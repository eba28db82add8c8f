/**
 * @file
 * Plain-text table emission used by the example programs to print
 * paper-style tables.
 */

#ifndef QC_COMMON_TABLE_HH
#define QC_COMMON_TABLE_HH

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace qc {

/**
 * A simple column-aligned text table.
 *
 * Columns are sized to the widest cell; numeric formatting is the
 * caller's responsibility (use the fmt* helpers below).
 */
class TextTable
{
  public:
    /** Set the header row. */
    void header(std::initializer_list<std::string> cells);

    /** Append a data row. */
    void row(std::initializer_list<std::string> cells);

    /** Append a data row from a vector. */
    void row(std::vector<std::string> cells);

    /** Render with column alignment and a rule under the header. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
std::string fmtFixed(double v, int precision = 1);

/** Format an integer with no decoration. */
std::string fmtInt(long long v);

/** Format a ratio as a percentage string, e.g. "78.2%". */
std::string fmtPct(double ratio, int precision = 1);

} // namespace qc

#endif // QC_COMMON_TABLE_HH

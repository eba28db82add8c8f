/**
 * @file
 * Plain-text table emission used by the example programs to print
 * paper-style tables.
 */

#ifndef QC_EXAMPLES_TABLE_HH
#define QC_EXAMPLES_TABLE_HH

#include <algorithm>
#include <initializer_list>
#include <iomanip>
#include <ostream>
#include <sstream>
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
    void
    header(std::initializer_list<std::string> cells)
    {
        header_.assign(cells);
    }

    /** Append a data row. */
    void
    row(std::initializer_list<std::string> cells)
    {
        rows_.emplace_back(cells);
    }

    /** Append a data row from a vector. */
    void
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    /** Render with column alignment and a rule under the header. */
    void
    print(std::ostream &os) const
    {
        std::vector<std::size_t> widths;
        auto grow = [&widths](const std::vector<std::string> &cells) {
            if (widths.size() < cells.size())
                widths.resize(cells.size(), 0);
            for (std::size_t i = 0; i < cells.size(); ++i)
                widths[i] = std::max(widths[i], cells[i].size());
        };
        grow(header_);
        for (const auto &r : rows_)
            grow(r);

        auto emit = [&](const std::vector<std::string> &cells) {
            for (std::size_t i = 0; i < widths.size(); ++i) {
                const std::string &cell =
                    i < cells.size() ? cells[i] : "";
                os << std::left
                   << std::setw(static_cast<int>(widths[i])) << cell;
                if (i + 1 < widths.size())
                    os << "  ";
            }
            os << '\n';
        };

        if (!header_.empty()) {
            emit(header_);
            std::size_t total = 0;
            for (std::size_t w : widths)
                total += w;
            total += 2 * (widths.empty() ? 0 : widths.size() - 1);
            os << std::string(total, '-') << '\n';
        }
        for (const auto &r : rows_)
            emit(r);
    }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
inline std::string
fmtFixed(double v, int precision = 1)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    return ss.str();
}

/** Format an integer with no decoration. */
inline std::string
fmtInt(long long v)
{
    return std::to_string(v);
}

/** Format a ratio as a percentage string, e.g. "78.2%". */
inline std::string
fmtPct(double ratio, int precision = 1)
{
    return fmtFixed(100.0 * ratio, precision) + "%";
}

} // namespace qc

#endif // QC_EXAMPLES_TABLE_HH

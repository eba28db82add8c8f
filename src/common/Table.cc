#include "Table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace qc {

void
TextTable::header(std::initializer_list<std::string> cells)
{
    header_.assign(cells);
}

void
TextTable::row(std::initializer_list<std::string> cells)
{
    rows_.emplace_back(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
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
            const std::string &cell = i < cells.size() ? cells[i] : "";
            os << std::left << std::setw(static_cast<int>(widths[i]))
               << cell;
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

std::string
fmtFixed(double v, int precision)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    return ss.str();
}

std::string
fmtInt(long long v)
{
    return std::to_string(v);
}

std::string
fmtPct(double ratio, int precision)
{
    return fmtFixed(100.0 * ratio, precision) + "%";
}

} // namespace qc

#include "core/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace fathom::core {

void
ConsoleTable::SetHeader(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
ConsoleTable::AddRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
ConsoleTable::Render() const
{
    // Column widths over header and all rows.
    std::vector<std::size_t> widths;
    auto grow = [&widths](const std::vector<std::string>& cells) {
        if (cells.size() > widths.size()) {
            widths.resize(cells.size(), 0);
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            widths[i] = std::max(widths[i], cells[i].size());
        }
    };
    grow(header_);
    for (const auto& row : rows_) {
        grow(row);
    }

    std::ostringstream out;
    auto emit = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            out << std::left << std::setw(static_cast<int>(widths[i]) + 2)
                << cells[i];
        }
        out << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t w : widths) {
            total += w + 2;
        }
        out << std::string(total, '-') << "\n";
    }
    for (const auto& row : rows_) {
        emit(row);
    }
    return out.str();
}

std::string
FormatDouble(double value, int digits)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(digits) << value;
    return out.str();
}

std::string
FormatPercent(double fraction, int digits)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(digits) << fraction * 100.0 << "%";
    return out.str();
}

std::vector<std::string>
SplitCsv(const std::string& csv)
{
    std::vector<std::string> out;
    std::istringstream in(csv);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (!item.empty()) {
            out.push_back(item);
        }
    }
    return out;
}

}  // namespace fathom::core

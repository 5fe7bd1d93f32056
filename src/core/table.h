/**
 * @file
 * Minimal aligned-console-table formatter shared by the benchmark
 * binaries that print the paper's tables and figure series, plus the
 * comma-list splitter their flag parsers share.
 */
#ifndef FATHOM_CORE_TABLE_H
#define FATHOM_CORE_TABLE_H

#include <string>
#include <vector>

namespace fathom::core {

/** Accumulates rows of cells and renders them column-aligned. */
class ConsoleTable {
  public:
    /** Sets the header row. */
    void SetHeader(std::vector<std::string> cells);

    /** Appends one data row. */
    void AddRow(std::vector<std::string> cells);

    /** @return the aligned rendering, with a rule under the header. */
    std::string Render() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Formats a double with @p digits decimal places. */
std::string FormatDouble(double value, int digits = 3);

/** Formats a fraction as a percentage string, e.g. "42.3%". */
std::string FormatPercent(double fraction, int digits = 1);

/** Splits a comma-separated flag value, dropping empty items. */
std::vector<std::string> SplitCsv(const std::string& csv);

}  // namespace fathom::core

#endif  // FATHOM_CORE_TABLE_H

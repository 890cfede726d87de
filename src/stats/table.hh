/**
 * @file
 * Text-table and CSV rendering used by the experiment reports and the
 * tools' summaries.
 */

#ifndef SMT_STATS_TABLE_HH
#define SMT_STATS_TABLE_HH

#include <string>
#include <vector>

namespace smt
{

/** A simple left-aligned-first-column text table with a title. */
class Table
{
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    /** Set the column headers (defines the column count). */
    void setHeader(std::vector<std::string> header);

    /** Append one row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Append a visual separator row. */
    void addSeparator();

    /** Render with aligned columns. */
    std::string render() const;

    /** Render as CSV (no separators, title as a comment line). */
    std::string renderCsv() const;

    const std::string &title() const { return title_; }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_; ///< empty row = separator.
};

/** Format helpers for table cells. */
std::string fmtDouble(double v, int precision = 2);
std::string fmtPercent(double fraction, int precision = 1);

} // namespace smt

#endif // SMT_STATS_TABLE_HH

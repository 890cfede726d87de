/**
 * @file
 * Text-table rendering used by the experiment reports.
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

    /** Render with aligned columns. */
    std::string render() const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace smt

#endif // SMT_STATS_TABLE_HH

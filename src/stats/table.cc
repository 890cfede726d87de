#include "stats/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace smt
{

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    smt_assert(header_.empty() || row.size() == header_.size());
    rows_.push_back(std::move(row));
}

std::string
Table::render() const
{
    const std::size_t cols = header_.size();
    std::vector<std::size_t> width(cols, 0);
    for (std::size_t c = 0; c < cols; ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    std::ostringstream os;
    os << "== " << title_ << " ==\n";
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c == 0)
                os << std::left << std::setw(static_cast<int>(width[c]))
                   << row[c];
            else
                os << "  " << std::right
                   << std::setw(static_cast<int>(width[c])) << row[c];
        }
        os << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t c = 0; c < cols; ++c)
            total += width[c] + (c ? 2 : 0);
        os << std::string(total, '-') << '\n';
    }
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

} // namespace smt

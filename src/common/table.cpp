#include "common/table.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"

namespace bacp::common {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  BACP_ASSERT(!header_.empty(), "table needs at least one column");
}

Table& Table::begin_row() {
  if (!rows_.empty()) {
    BACP_ASSERT(rows_.back().size() == header_.size(),
                "previous row not fully populated");
  }
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

Table& Table::add_cell(std::string value) {
  BACP_ASSERT(!rows_.empty(), "begin_row before add_cell");
  BACP_ASSERT(rows_.back().size() < header_.size(), "row has too many cells");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::add_cell(double value, int precision) {
  return add_cell(format_double(value, precision));
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

std::string Table::format_double(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell_text = c < row.size() ? row[c] : std::string{};
      os << (c == 0 ? "| " : " | ") << std::left
         << std::setw(static_cast<int>(widths[c])) << cell_text;
    }
    os << " |\n";
  };

  print_row(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace bacp::common

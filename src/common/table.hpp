#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace bacp::common {

/// Minimal ASCII table writer used by the benchmark harness to print
/// paper-style rows. Cells are strings; numeric helpers format consistently.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add_cell calls fill it left to right.
  Table& begin_row();
  Table& add_cell(std::string value);
  Table& add_cell(double value, int precision = 3);

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_columns() const { return header_.size(); }
  const std::string& cell(std::size_t row, std::size_t col) const;

  /// Renders with aligned columns and a header rule.
  void print(std::ostream& os) const;

  static std::string format_double(double value, int precision);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bacp::common

#include "common/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace bacp::common {
namespace {

TEST(Table, CellsRoundTrip) {
  Table t({"a", "b"});
  t.begin_row().add_cell("x").add_cell("7");
  t.begin_row().add_cell(1.5, 2).add_cell("y");
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.cell(0, 0), "x");
  EXPECT_EQ(t.cell(0, 1), "7");
  EXPECT_EQ(t.cell(1, 0), "1.50");
}

TEST(Table, FormatDoublePrecision) {
  EXPECT_EQ(Table::format_double(3.14159, 2), "3.14");
  EXPECT_EQ(Table::format_double(2.0, 0), "2");
  EXPECT_EQ(Table::format_double(0.5, 3), "0.500");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"col", "x"});
  t.begin_row().add_cell("longer-cell").add_cell("1");
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("| col"), std::string::npos);
  EXPECT_NE(out.find("longer-cell"), std::string::npos);
  // Header separator rule present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, EmptyTablePrintsHeaderOnly) {
  Table t({"only"});
  std::ostringstream oss;
  t.print(oss);
  EXPECT_EQ(oss.str(), "| only |\n|------|\n");
}

}  // namespace
}  // namespace bacp::common

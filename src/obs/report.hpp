#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"

namespace bacp::obs {

/// One table of a Report, declared once with typed cells and rendered as
/// aligned console text and as JSON with native numbers.
class ReportTable {
 public:
  ReportTable(std::string name, std::vector<std::string> columns);

  ReportTable& begin_row();
  ReportTable& cell(std::string value);
  ReportTable& cell(const char* value) { return cell(std::string(value)); }
  ReportTable& cell(double value, int precision = 3);
  ReportTable& cell(std::uint64_t value);

  const std::string& name() const { return name_; }
  std::size_t num_rows() const { return rows_.size(); }

  /// Console rendering (formatted strings, aligned columns).
  common::Table render() const;
  /// {"columns": [...], "rows": [[...]]} with native cell types.
  Json to_json() const;

 private:
  struct Cell {
    Json value;
    std::string text;  ///< formatted form for the console
  };
  ReportTable& push(Cell cell);

  std::string name_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// Where a Report goes besides the console. Parsed from the standard
/// `--json-out=<path>` flag every bench and example binary accepts (see
/// with_report_flags).
struct ReportOptions {
  std::string json_out;

  static ReportOptions from_args(const common::ArgParser& parser);
};

/// A bench/example result artifact: named tables, headline metrics, meta
/// and free-form notes, declared once and emitted as a console report and a
/// schema-stable deterministic JSON document. The JSON is what
/// scripts/run_benches.sh captures into bench/out/ for the perf trajectory.
class Report {
 public:
  Report(std::string name, std::string title);

  Report& meta(std::string key, std::string value);
  Report& metric(std::string name, double value, int precision = 3);
  Report& metric(std::string name, std::uint64_t value);
  Report& note(std::string text);
  /// Embeds a raw JSON section at the top level (e.g. a full
  /// SystemResults::to_json() or a TimeSeries).
  Report& attach(std::string key, Json value);

  ReportTable& table(std::string name, std::vector<std::string> columns);

  double metric_value(std::string_view name, double fallback = 0.0) const;

  void print(std::ostream& os) const;
  Json to_json() const;

  /// Prints to `console` and honors options.json_out (parent directories
  /// are created). Returns false if the file write failed (after reporting
  /// it to stderr). Provenance pairs from BACP_BENCH_META
  /// ("key=value,key=value", set by scripts/run_benches.sh with the build
  /// preset and git SHA) are appended to the JSON artifact's "meta" object;
  /// to_json() itself stays environment-independent.
  bool emit(std::ostream& console, const ReportOptions& options) const;

 private:
  struct Metric {
    std::string name;
    Json value;
    std::string text;
  };

  std::string name_;
  std::string title_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Metric> metrics_;
  std::deque<ReportTable> tables_;  // deque: table() references stay valid
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, Json>> attachments_;
};

/// Appends the standard report flags (--json-out, --help) to a binary's
/// flag spec.
std::vector<std::pair<std::string, std::string>> with_report_flags(
    std::vector<std::pair<std::string, std::string>> spec);

/// Standard CLI prologue: parses argv, prints help or a parse error as
/// appropriate. A positional argument is an error too unless the binary
/// reads them (`reads_positional`): a stray word such as `-trials` (one
/// dash) must not run the defaults. Returns the exit code to return from
/// main, or nullopt to continue running.
std::optional<int> handle_cli(common::ArgParser& parser, int argc,
                              const char* const* argv, bool reads_positional = false);

}  // namespace bacp::obs

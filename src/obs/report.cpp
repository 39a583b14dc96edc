#include "obs/report.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string_view>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "obs/phase_timer.hpp"

namespace bacp::obs {

ReportTable::ReportTable(std::string name, std::vector<std::string> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {}

ReportTable& ReportTable::begin_row() {
  rows_.emplace_back();
  return *this;
}

ReportTable& ReportTable::push(Cell cell) {
  BACP_ASSERT(!rows_.empty(), "cell before begin_row");
  BACP_ASSERT(rows_.back().size() < columns_.size(), "more cells than columns");
  rows_.back().push_back(std::move(cell));
  return *this;
}

ReportTable& ReportTable::cell(std::string value) {
  std::string text = value;
  return push(Cell{Json(std::move(value)), std::move(text)});
}

ReportTable& ReportTable::cell(double value, int precision) {
  return push(Cell{Json(value), common::Table::format_double(value, precision)});
}

ReportTable& ReportTable::cell(std::uint64_t value) {
  return push(Cell{Json(value), std::to_string(value)});
}

common::Table ReportTable::render() const {
  common::Table table(columns_);
  for (const auto& row : rows_) {
    table.begin_row();
    for (const auto& c : row) table.add_cell(c.text);
  }
  return table;
}

Json ReportTable::to_json() const {
  Json columns = Json::array();
  for (const auto& column : columns_) columns.push_back(column);
  Json rows = Json::array();
  for (const auto& row : rows_) {
    Json out_row = Json::array();
    for (const auto& c : row) out_row.push_back(c.value);
    rows.push_back(std::move(out_row));
  }
  return Json::object().set("columns", std::move(columns)).set("rows", std::move(rows));
}

ReportOptions ReportOptions::from_args(const common::ArgParser& parser) {
  ReportOptions options;
  options.json_out = parser.get("json-out", "");
  return options;
}

Report::Report(std::string name, std::string title)
    : name_(std::move(name)), title_(std::move(title)) {}

Report& Report::meta(std::string key, std::string value) {
  meta_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Report& Report::metric(std::string name, double value, int precision) {
  std::string text = common::Table::format_double(value, precision);
  metrics_.push_back(Metric{std::move(name), Json(value), std::move(text)});
  return *this;
}

Report& Report::metric(std::string name, std::uint64_t value) {
  std::string text = std::to_string(value);
  metrics_.push_back(Metric{std::move(name), Json(value), std::move(text)});
  return *this;
}

Report& Report::note(std::string text) {
  notes_.push_back(std::move(text));
  return *this;
}

Report& Report::attach(std::string key, Json value) {
  attachments_.emplace_back(std::move(key), std::move(value));
  return *this;
}

ReportTable& Report::table(std::string name, std::vector<std::string> columns) {
  tables_.emplace_back(std::move(name), std::move(columns));
  return tables_.back();
}

double Report::metric_value(std::string_view name, double fallback) const {
  for (const auto& metric : metrics_) {
    if (metric.name == name) {
      return metric.value.is_number() ? metric.value.as_double() : fallback;
    }
  }
  return fallback;
}

void Report::print(std::ostream& os) const {
  os << "=== " << title_ << " ===\n";
  for (const auto& [key, value] : meta_) os << key << ": " << value << '\n';
  for (const auto& t : tables_) {
    if (tables_.size() > 1) os << "\n[" << t.name() << "]\n";
    t.render().print(os);
  }
  if (!metrics_.empty()) {
    os << '\n';
    for (const auto& metric : metrics_) {
      os << metric.name << " = " << metric.text << '\n';
    }
  }
  for (const auto& n : notes_) os << '\n' << n << '\n';
}

Json Report::to_json() const {
  Json meta = Json::object();
  for (const auto& [key, value] : meta_) meta.set(key, value);

  Json metrics = Json::object();
  for (const auto& metric : metrics_) metrics.set(metric.name, metric.value);

  Json tables = Json::object();
  for (const auto& t : tables_) tables.set(t.name(), t.to_json());

  Json notes = Json::array();
  for (const auto& n : notes_) notes.push_back(n);

  Json out = Json::object()
                 .set("schema", std::uint64_t{1})
                 .set("report", name_)
                 .set("title", title_)
                 .set("meta", std::move(meta))
                 .set("metrics", std::move(metrics))
                 .set("tables", std::move(tables))
                 .set("notes", std::move(notes));
  for (const auto& [key, value] : attachments_) out.set(key, value);
  return out;
}

namespace {

bool write_file(const std::string& path, const std::string& contents) {
  const std::filesystem::path fs_path(path);
  std::error_code ec;
  if (fs_path.has_parent_path()) {
    std::filesystem::create_directories(fs_path.parent_path(), ec);  // best effort
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot open JSON file '" << path << "'\n";
    return false;
  }
  out << contents;
  out.close();
  if (!out) {
    std::cerr << "error: failed writing JSON file '" << path << "'\n";
    return false;
  }
  return true;
}

}  // namespace

namespace {

/// Provenance metadata injected by the environment (scripts/run_benches.sh
/// sets BACP_BENCH_META="preset=release-lto,git_sha=<sha>"): appended to the
/// JSON artifact's "meta" object only, so the in-process Report stays
/// deterministic and the console output stays clean.
std::vector<std::pair<std::string, std::string>> env_meta() {
  std::vector<std::pair<std::string, std::string>> out;
  // Environment reads go through common::env (the sanctioned site for the
  // bacp-det-wallclock determinism check), never raw std::getenv.
  const std::string raw = common::env_string("BACP_BENCH_META", "");
  if (raw.empty()) return out;
  std::string_view rest(raw);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;  // malformed: skip
    out.emplace_back(std::string(item.substr(0, eq)), std::string(item.substr(eq + 1)));
  }
  return out;
}

}  // namespace

bool Report::emit(std::ostream& console, const ReportOptions& options) const {
  print(console);
  const std::string timings = global_phase_timers().summary();
  if (!timings.empty()) console << '\n' << timings << '\n';
  if (options.json_out.empty()) return true;
  Json json = to_json();
  if (const auto extra = env_meta(); !extra.empty()) {
    Json meta = *json.find("meta");
    for (const auto& [key, value] : extra) meta.set(key, value);
    json.set("meta", std::move(meta));
  }
  return write_file(options.json_out, json.dump(2) + "\n");
}

std::vector<std::pair<std::string, std::string>> with_report_flags(
    std::vector<std::pair<std::string, std::string>> spec) {
  spec.emplace_back("json-out=", "write the report as deterministic JSON to <path>");
  spec.emplace_back("help", "show this help");
  return spec;
}

std::optional<int> handle_cli(common::ArgParser& parser, int argc,
                              const char* const* argv, bool reads_positional) {
  const std::string program = argc > 0 ? argv[0] : "program";
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << "\n\n" << parser.help(program);
    return 2;
  }
  if (!reads_positional && !parser.positional().empty()) {
    std::cerr << "error: " << parser.positional().front() << ": unexpected argument\n\n"
              << parser.help(program);
    return 2;
  }
  if (parser.has("help")) {
    std::cout << parser.help(program);
    return 0;
  }
  return std::nullopt;
}

}  // namespace bacp::obs

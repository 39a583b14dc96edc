#include "checks.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <initializer_list>
#include <set>

namespace bacp::analyze {

namespace {

/// Which part of the tree a check patrols during a tree scan. Explicit file
/// arguments (fixture mode) bypass scoping entirely.
enum class Scope : std::uint8_t {
  kSimulation,  ///< src/ bench/ examples/ — determinism checks; tests may
                ///< legitimately use wall clocks and pointers
  kAllCode,     ///< src/ bench/ examples/ tests/ — API-ban checks
  kSrcOnly,     ///< src/ — snapshot/audit structural contracts
  kEverything,  ///< every scanned file — NOLINT hygiene
};

bool under_dir(const std::string& rel, const char* dir) {
  const std::string prefix = std::string(dir) + "/";
  return rel.rfind(prefix, 0) == 0;
}

bool in_scope(const std::string& rel, Scope scope) {
  switch (scope) {
    case Scope::kSimulation:
      return under_dir(rel, "src") || under_dir(rel, "bench") ||
             under_dir(rel, "examples");
    case Scope::kAllCode:
      return under_dir(rel, "src") || under_dir(rel, "bench") ||
             under_dir(rel, "examples") || under_dir(rel, "tests");
    case Scope::kSrcOnly:
      return under_dir(rel, "src");
    case Scope::kEverything:
      return true;
  }
  return false;
}

/// Emits a finding unless a well-formed NOLINT marker covers the line.
void emit(const SourceFile& file, const char* check, std::uint32_t line,
          std::string message, std::vector<Finding>& out) {
  if (file.lexed.suppressed(check, line)) return;
  out.push_back({file.rel, line, check, std::move(message)});
}

/// Scans the template argument list opened by the '<' at `open_angle` and
/// reports whether the first top-level argument (for `first_only`) or any
/// argument contains a raw pointer declarator. Returns false for token runs
/// that turn out not to be template argument lists (stray comparisons).
bool template_args_have_ptr(const std::vector<Token>& toks,
                            std::size_t open_angle, bool first_only) {
  int depth = 1;
  bool saw_ptr = false;
  for (std::size_t i = open_angle + 1; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return saw_ptr;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return saw_ptr;
    } else if (t == "," && depth == 1 && first_only) {
      return saw_ptr;
    } else if (t == ";" || t == "{" || t == "}") {
      return false;  // not a template argument list after all
    } else if (t == "*") {
      saw_ptr = true;
    }
  }
  return false;
}

/// True when toks[i..] spells `std :: name` with `name` in `names`.
bool std_qualified(const std::vector<Token>& toks, std::size_t i,
                   std::initializer_list<const char*> names) {
  if (i + 2 >= toks.size()) return false;
  if (toks[i].text != "std" || toks[i + 1].text != "::") return false;
  for (const char* name : names) {
    if (toks[i + 2].text == name) return true;
  }
  return false;
}

// --- bacp-det-ptr-key -------------------------------------------------------

void check_det_ptr_key(const CodeModel& model, bool explicit_files,
                       std::vector<Finding>& out) {
  for (const SourceFile& file : model.files) {
    if (!explicit_files && !in_scope(file.rel, Scope::kSimulation)) continue;
    const std::vector<Token>& toks = file.toks();
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (!std_qualified(toks, i, {"map", "set", "multimap", "multiset"}))
        continue;
      if (toks[i + 3].text != "<") continue;
      if (template_args_have_ptr(toks, i + 3, /*first_only=*/true)) {
        emit(file, "bacp-det-ptr-key", toks[i].line,
             "ordered container keyed by raw pointer: iteration order is "
             "allocation-address order and varies run to run; key by a stable "
             "id instead",
             out);
      }
    }
  }
}

// --- bacp-det-ptr-order -----------------------------------------------------

void check_det_ptr_order(const CodeModel& model, bool explicit_files,
                         std::vector<Finding>& out) {
  for (const SourceFile& file : model.files) {
    if (!explicit_files && !in_scope(file.rel, Scope::kSimulation)) continue;
    const std::vector<Token>& toks = file.toks();
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      // std::hash<T*> / std::less<T*>: ordering or hashing by address.
      if (std_qualified(toks, i, {"hash", "less", "greater"}) &&
          toks[i + 3].text == "<" &&
          template_args_have_ptr(toks, i + 3, /*first_only=*/false)) {
        emit(file, "bacp-det-ptr-order", toks[i].line,
             "hashing/ordering raw pointers compares allocation addresses, "
             "which differ across runs; use a stable id",
             out);
        continue;
      }
      // sort-family call with a lambda comparator that compares its pointer
      // parameters directly.
      const std::string& name = toks[i].text;
      if (name != "sort" && name != "stable_sort" && name != "partial_sort" &&
          name != "nth_element") {
        continue;
      }
      if (!is_free_call(toks, i, name)) continue;
      const std::size_t call_close = match_close(toks, i + 1);
      for (std::size_t j = i + 2; j < call_close; ++j) {
        if (toks[j].text != "[") continue;
        const std::string& prev = toks[j - 1].text;
        if (prev != "(" && prev != "," && prev != "=") continue;  // subscript
        const std::size_t intro_close = match_close(toks, j);
        if (intro_close >= call_close ||
            toks[intro_close + 1].text != "(") {
          continue;
        }
        const std::size_t params_open = intro_close + 1;
        const std::size_t params_close = match_close(toks, params_open);
        // Collect parameter names whose declarators contain '*'.
        std::set<std::string> ptr_params;
        {
          bool arg_has_ptr = false;
          std::string last_ident;
          for (std::size_t k = params_open + 1; k <= params_close; ++k) {
            const std::string& t = toks[k].text;
            if (t == "*") arg_has_ptr = true;
            if (toks[k].kind == Tok::Identifier) last_ident = t;
            if (t == "," || k == params_close) {
              if (arg_has_ptr && !last_ident.empty())
                ptr_params.insert(last_ident);
              arg_has_ptr = false;
              last_ident.clear();
            }
          }
        }
        if (ptr_params.size() < 2) continue;
        std::size_t body_open = params_close + 1;
        while (body_open < call_close && toks[body_open].text != "{")
          ++body_open;
        if (body_open >= call_close) continue;
        const std::size_t body_close = match_close(toks, body_open);
        for (std::size_t k = body_open + 1; k + 1 < body_close; ++k) {
          if ((toks[k].text == "<" || toks[k].text == ">") &&
              ptr_params.count(toks[k - 1].text) != 0 &&
              ptr_params.count(toks[k + 1].text) != 0) {
            emit(file, "bacp-det-ptr-order", toks[k].line,
                 "sort comparator orders raw pointer parameters by address; "
                 "compare a stable field instead",
                 out);
            break;
          }
        }
      }
    }
  }
}

// --- bacp-det-wallclock -----------------------------------------------------

bool wallclock_sanctioned(const std::string& rel) {
  return rel.rfind("src/common/", 0) == 0;
}

void check_det_wallclock(const CodeModel& model, bool explicit_files,
                         std::vector<Finding>& out) {
  static const std::set<std::string> banned_calls = {
      "time",          "clock",    "rand",      "srand",   "random",
      "drand48",       "lrand48",  "mrand48",   "srand48", "gettimeofday",
      "clock_gettime", "localtime", "gmtime",   "mktime",  "getenv",
      "setenv",        "putenv",   "unsetenv",
  };
  static const std::set<std::string> clock_types = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  for (const SourceFile& file : model.files) {
    if (!explicit_files && !in_scope(file.rel, Scope::kSimulation)) continue;
    if (wallclock_sanctioned(file.rel)) continue;
    const std::vector<Token>& toks = file.toks();
    // Per-file clock aliases: using X = ...steady_clock...;
    std::set<std::string> clock_names = clock_types;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].text != "using" || toks[i + 2].text != "=") continue;
      if (toks[i + 1].kind != Tok::Identifier) continue;
      for (std::size_t j = i + 3; j < toks.size() && toks[j].text != ";"; ++j) {
        if (clock_types.count(toks[j].text) != 0) {
          clock_names.insert(toks[i + 1].text);
          break;
        }
      }
    }
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::Identifier) continue;
      const std::string& text = toks[i].text;
      if (banned_calls.count(text) != 0 && is_free_call(toks, i, text)) {
        // A method *declaration* that shares a banned name (CoreTimer::time)
        // is not a call: its parameter list is followed by cv-qualifiers, a
        // body, or an annotation rather than an expression continuation.
        const std::size_t after = match_close(toks, i + 1) + 1;
        if (after < toks.size() &&
            (toks[after].text == "const" || toks[after].text == "{" ||
             toks[after].text == "noexcept" || toks[after].text == "override" ||
             toks[after].text.rfind("BACP_", 0) == 0)) {
          continue;
        }
        emit(file, "bacp-det-wallclock", toks[i].line,
             "call to " + text +
                 "() injects wall-clock/environment state into the "
                 "simulation; the sanctioned site is src/common/",
             out);
        continue;
      }
      if (text == "random_device") {
        emit(file, "bacp-det-wallclock", toks[i].line,
             "std::random_device is nondeterministic; seed SplitMix/PCG "
             "streams from the config digest instead",
             out);
        continue;
      }
      if (clock_names.count(text) != 0 && i + 3 < toks.size() &&
          toks[i + 1].text == "::" && toks[i + 2].text == "now" &&
          toks[i + 3].text == "(") {
        emit(file, "bacp-det-wallclock", toks[i].line,
             "reading a real clock (" + text +
                 "::now) makes results timing-dependent; simulation time must "
                 "come from the epoch counter",
             out);
      }
    }
  }
}

// --- bacp-det-float-reduce --------------------------------------------------

/// True when `name` has a float-typed declaration in `toks` outside
/// [skip_begin, skip_end): a {double,float} token within the preceding eight
/// tokens with no statement/argument separators in between (covers
/// `double x`, `std::vector<double> xs`, `std::atomic<float> f`).
bool declared_float(const std::vector<Token>& toks, const std::string& name,
                    std::size_t skip_begin, std::size_t skip_end) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (i >= skip_begin && i < skip_end) continue;
    if (toks[i].kind != Tok::Identifier || toks[i].text != name) continue;
    const std::size_t lo = i >= 8 ? i - 8 : 0;
    for (std::size_t j = i; j-- > lo;) {
      const std::string& t = toks[j].text;
      if (t == ";" || t == "," || t == "(" || t == ")" || t == "{" ||
          t == "}" || t == "=") {
        break;
      }
      if (t == "double" || t == "float") return true;
    }
  }
  return false;
}

void check_det_float_reduce(const CodeModel& model, bool explicit_files,
                            std::vector<Finding>& out) {
  static const std::set<std::string> ops = {"+=", "-=", "*=", "/="};
  for (const SourceFile& file : model.files) {
    if (!explicit_files && !in_scope(file.rel, Scope::kSimulation)) continue;
    const std::vector<Token>& toks = file.toks();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Identifier) continue;
      if (toks[i].text != "parallel_for" && toks[i].text != "submit") continue;
      if (toks[i + 1].text != "(") continue;
      const std::size_t call_close = match_close(toks, i + 1);
      for (std::size_t j = i + 2; j < call_close; ++j) {
        if (toks[j].text != "[") continue;
        const std::string& prev = toks[j - 1].text;
        if (prev != "(" && prev != "," && prev != "=") continue;
        const std::size_t intro_close = match_close(toks, j);
        std::size_t body_open = intro_close + 1;
        if (body_open < call_close && toks[body_open].text == "(") {
          body_open = match_close(toks, body_open) + 1;
        }
        while (body_open < call_close && toks[body_open].text != "{")
          ++body_open;
        if (body_open >= call_close) continue;
        const std::size_t body_close = match_close(toks, body_open);
        for (std::size_t k = body_open + 1; k < body_close; ++k) {
          if (toks[k].kind != Tok::Punct || ops.count(toks[k].text) == 0)
            continue;
          // LHS base identifier: step over a subscript if present.
          std::size_t lhs = k - 1;
          if (toks[lhs].text == "]") {
            int depth = 0;
            while (lhs > body_open) {
              if (toks[lhs].text == "]") ++depth;
              if (toks[lhs].text == "[" && --depth == 0) break;
              --lhs;
            }
            if (lhs == body_open) continue;
            --lhs;
          }
          if (toks[lhs].kind != Tok::Identifier) continue;
          const std::string& base = toks[lhs].text;
          // A declaration of `base` inside the lambda body means a local
          // accumulator; only captured floats race.
          bool local = false;
          for (std::size_t m = body_open + 1; m + 1 < body_close; ++m) {
            if ((toks[m].text == "double" || toks[m].text == "float" ||
                 toks[m].text == "auto") &&
                toks[m + 1].kind == Tok::Identifier &&
                toks[m + 1].text == base) {
              local = true;
              break;
            }
          }
          if (local) continue;
          if (declared_float(toks, base, body_open, body_close)) {
            emit(file, "bacp-det-float-reduce", toks[k].line,
                 "compound assignment to captured float `" + base +
                     "` inside a ThreadPool lambda: concurrent float "
                     "accumulation is order-dependent; reduce per-worker "
                     "partials after join",
                 out);
          }
        }
      }
    }
  }
}

// --- bacp-snapshot-fields ---------------------------------------------------

/// Collects every identifier reachable from the named seed methods of
/// `info`, following calls into other methods of the same class (inline or
/// out-of-line bodies).
std::set<std::string> reachable_identifiers(
    const CodeModel& model, const ClassInfo& info,
    std::initializer_list<const char*> seeds) {
  std::set<std::string> ids;
  std::set<std::string> visited;
  std::vector<std::string> work;
  for (const char* seed : seeds) {
    if (info.has_method(seed)) work.emplace_back(seed);
  }
  while (!work.empty()) {
    const std::string method = work.back();
    work.pop_back();
    if (!visited.insert(method).second) continue;
    std::vector<std::pair<const SourceFile*, std::pair<std::size_t, std::size_t>>>
        bodies;
    const auto inline_it = info.inline_bodies.find(method);
    if (inline_it != info.inline_bodies.end()) {
      for (const auto& range : inline_it->second)
        bodies.push_back({info.file, range});
    }
    const auto out_it = model.method_bodies.find({info.name, method});
    if (out_it != model.method_bodies.end()) {
      for (const MethodBody& body : out_it->second)
        bodies.push_back({body.file, {body.begin, body.end}});
    }
    for (const auto& [file, range] : bodies) {
      const std::vector<Token>& toks = file->toks();
      for (std::size_t i = range.first; i <= range.second && i < toks.size();
           ++i) {
        if (toks[i].kind != Tok::Identifier) continue;
        ids.insert(toks[i].text);
        if (info.has_method(toks[i].text) &&
            visited.count(toks[i].text) == 0) {
          work.push_back(toks[i].text);
        }
      }
    }
  }
  return ids;
}

void check_snapshot_fields(const CodeModel& model, bool explicit_files,
                           std::vector<Finding>& out) {
  for (const auto& [name, infos] : model.classes) {
    for (const ClassInfo& info : infos) {
      if (!explicit_files && !in_scope(info.file->rel, Scope::kSrcOnly))
        continue;
      if (!info.has_method("save_state") || !info.has_method("restore_state")) continue;
      const std::set<std::string> save_ids =
          reachable_identifiers(model, info, {"save_state"});
      const std::set<std::string> restore_ids =
          reachable_identifiers(model, info, {"restore_state"});
      for (const MemberVar& member : info.members) {
        const bool saved = save_ids.count(member.name) != 0;
        const bool restored = restore_ids.count(member.name) != 0;
        if (saved && restored) continue;
        std::string missing;
        if (!saved && !restored) {
          missing = "save and restore paths";
        } else if (!saved) {
          missing = "save path";
        } else {
          missing = "restore path";
        }
        emit(*info.file, "bacp-snapshot-fields", member.line,
             "member `" + member.name + "` of serialized class `" + name +
                 "` is not referenced on the " + missing +
                 "; a snapshot round-trip would silently drop or corrupt it",
             out);
      }
    }
  }
}

// --- bacp-reset-fields ------------------------------------------------------

/// Mirror of bacp-snapshot-fields for the reset contract: a class offering
/// reset_in_place() promises a rewind to cold-construction state, so every
/// member must be referenced somewhere on the reset path (directly or via a
/// same-class helper it calls). A member the reset never touches leaks the
/// previous trial's state into the next one — exactly the corruption class
/// the pooled-System engine (harness::SystemPool) must exclude. Immutable
/// geometry echoes and derived lookup tables are waived per-member with
/// `NOLINTNEXTLINE(bacp-reset-fields): why`.
void check_reset_fields(const CodeModel& model, bool explicit_files,
                        std::vector<Finding>& out) {
  for (const auto& [name, infos] : model.classes) {
    for (const ClassInfo& info : infos) {
      if (!explicit_files && !in_scope(info.file->rel, Scope::kSrcOnly))
        continue;
      if (!info.has_method("reset_in_place")) continue;
      const std::set<std::string> reset_ids =
          reachable_identifiers(model, info, {"reset_in_place"});
      for (const MemberVar& member : info.members) {
        if (reset_ids.count(member.name) != 0) continue;
        emit(*info.file, "bacp-reset-fields", member.line,
             "member `" + member.name + "` of resettable class `" + name +
                 "` is not referenced on the reset_in_place path; a pooled "
                 "reuse would leak the previous run's state into the next",
             out);
      }
    }
  }
}

// --- bacp-audit-coverage ----------------------------------------------------

void check_audit_coverage(const CodeModel& model, bool explicit_files,
                          std::vector<Finding>& out) {
  for (const auto& [name, infos] : model.classes) {
    for (const ClassInfo& info : infos) {
      if (!explicit_files && !in_scope(info.file->rel, Scope::kSrcOnly))
        continue;
      if (!info.has_method("audit_checkpoint")) continue;
      for (const MemberVar& member : info.members) {
        for (const std::string& type : member.type_ids) {
          if (type == name) continue;
          if (info.nested_types.count(type) != 0) continue;
          if (model.classes.count(type) == 0) continue;  // std / external
          if (model.audited_types.count(type) != 0) continue;
          emit(*info.file, "bacp-audit-coverage", member.line,
               "stateful member `" + member.name + "` (type `" + type +
                   "`) of audited aggregate `" + name +
                   "` has no registered audit_* entry point",
               out);
          break;  // one finding per member
        }
      }
    }
  }
}

// --- bacp-arg-lenient -------------------------------------------------------

void check_arg_lenient(const CodeModel& model, bool explicit_files,
                       std::vector<Finding>& out) {
  static const std::set<std::string> getters = {"get_u64", "get_i64",
                                               "get_double", "get_bool"};
  for (const SourceFile& file : model.files) {
    if (!explicit_files && !in_scope(file.rel, Scope::kAllCode)) continue;
    const std::vector<Token>& toks = file.toks();
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Identifier || getters.count(toks[i].text) == 0)
        continue;
      const std::string& prev = toks[i - 1].text;
      if (prev != "." && prev != "->") continue;
      if (toks[i + 1].text != "(") continue;
      emit(file, "bacp-arg-lenient", toks[i].line,
           "lenient ArgParser getter `" + toks[i].text +
               "` swallows typos; use the strict *_or_fail form "
               "(common/args.hpp)",
           out);
    }
  }
}

// --- bacp-raw-assert --------------------------------------------------------

void check_raw_assert(const CodeModel& model, bool explicit_files,
                      std::vector<Finding>& out) {
  for (const SourceFile& file : model.files) {
    if (!explicit_files && !in_scope(file.rel, Scope::kAllCode)) continue;
    if (file.rel == "src/common/assert.hpp") continue;
    const std::vector<Token>& toks = file.toks();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (is_free_call(toks, i, "assert")) {
        emit(file, "bacp-raw-assert", toks[i].line,
             "raw assert() vanishes under NDEBUG; use BACP_ASSERT "
             "(common/assert.hpp) so release builds keep the invariant",
             out);
      }
    }
  }
}

// --- bacp-raw-strtol --------------------------------------------------------

void check_raw_strtol(const CodeModel& model, bool explicit_files,
                      std::vector<Finding>& out) {
  static const std::set<std::string> raw_parsers = {
      "strtoull", "strtoul", "strtoll", "strtol", "atoi", "atol", "atoll"};
  for (const SourceFile& file : model.files) {
    if (!explicit_files && !in_scope(file.rel, Scope::kAllCode)) continue;
    if (file.rel == "src/common/parse.cpp") continue;
    const std::vector<Token>& toks = file.toks();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::Identifier ||
          raw_parsers.count(toks[i].text) == 0) {
        continue;
      }
      if (!is_free_call(toks, i, toks[i].text)) continue;
      emit(file, "bacp-raw-strtol", toks[i].line,
           "raw " + toks[i].text +
               "() accepts trailing garbage and saturates silently; use the "
               "strict parsers in common/parse.hpp",
           out);
    }
  }
}

// --- bacp-nolint-reason -----------------------------------------------------

void check_nolint_reason(const CodeModel& model, bool /*explicit_files*/,
                         std::vector<Finding>& out) {
  for (const SourceFile& file : model.files) {
    for (const NolintMarker& marker : file.lexed.nolints) {
      if (marker.well_formed) continue;
      // Deliberately not suppressible: a bare marker cannot waive itself.
      out.push_back(
          {file.rel, marker.line, "bacp-nolint-reason",
           "NOLINT marker without check id and reason; write "
           "`NOLINT(check-id): why this site is exempt`"});
    }
  }
}

// --- registry ---------------------------------------------------------------

using CheckFn = void (*)(const CodeModel&, bool, std::vector<Finding>&);

struct CheckEntry {
  CheckInfo info;
  CheckFn fn;
};

const std::vector<CheckEntry>& registry() {
  static const std::vector<CheckEntry> entries = {
      {{"bacp-det-ptr-key",
        "ordered containers keyed by raw pointers (address-order iteration)"},
       &check_det_ptr_key},
      {{"bacp-det-ptr-order",
        "hashing/sorting by raw pointer value (address-order results)"},
       &check_det_ptr_order},
      {{"bacp-det-wallclock",
        "wall-clock/environment reads outside sanctioned common/ sites"},
       &check_det_wallclock},
      {{"bacp-det-float-reduce",
        "float compound-assignment into captures inside ThreadPool lambdas"},
       &check_det_float_reduce},
      {{"bacp-snapshot-fields",
        "serialized classes whose members miss the save or restore path"},
       &check_snapshot_fields},
      {{"bacp-reset-fields",
        "resettable classes whose members miss the reset_in_place path"},
       &check_reset_fields},
      {{"bacp-audit-coverage",
        "audited aggregates with members lacking an audit_* entry point"},
       &check_audit_coverage},
      {{"bacp-arg-lenient",
        "lenient ArgParser getters instead of strict *_or_fail forms"},
       &check_arg_lenient},
      {{"bacp-raw-assert",
        "raw assert() instead of BACP_ASSERT (common/assert.hpp)"},
       &check_raw_assert},
      {{"bacp-raw-strtol",
        "raw strto*/ato* parsing instead of common/parse.hpp"},
       &check_raw_strtol},
      {{"bacp-nolint-reason",
        "NOLINT markers without a check id and reason"},
       &check_nolint_reason},
  };
  return entries;
}

}  // namespace

const std::vector<CheckInfo>& check_catalog() {
  static const std::vector<CheckInfo> catalog = [] {
    std::vector<CheckInfo> out;
    for (const CheckEntry& entry : registry()) out.push_back(entry.info);
    return out;
  }();
  return catalog;
}

std::vector<Finding> run_checks(const CodeModel& model,
                                const std::vector<std::string>& check_ids,
                                bool explicit_files) {
  std::vector<Finding> findings;
  for (const CheckEntry& entry : registry()) {
    if (!check_ids.empty() &&
        std::find(check_ids.begin(), check_ids.end(), entry.info.id) ==
            check_ids.end()) {
      continue;
    }
    entry.fn(model, explicit_files, findings);
  }
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.rel == b.rel && a.line == b.line &&
                                      a.check == b.check;
                             }),
                 findings.end());
  return findings;
}

}  // namespace bacp::analyze

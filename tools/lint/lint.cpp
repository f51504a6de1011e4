#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>
#include <unordered_set>

#include "obs/registry.hpp"
#include "util/error.hpp"

namespace lumos::lint {

namespace {

// ------------------------------------------------------------- stripping --

enum class ScanState { Code, LineComment, BlockComment, String, Char, Raw };

bool is_raw_string_start(std::string_view s, std::size_t i) {
  // `R"` possibly prefixed by u8/u/U/L, and not part of an identifier.
  if (s[i] != 'R' || i + 1 >= s.size() || s[i + 1] != '"') return false;
  std::size_t start = i;
  while (start > 0 &&
         (s[start - 1] == 'u' || s[start - 1] == 'U' || s[start - 1] == 'L' ||
          s[start - 1] == '8')) {
    --start;
  }
  if (start > 0 && (std::isalnum(static_cast<unsigned char>(s[start - 1])) ||
                    s[start - 1] == '_')) {
    return false;
  }
  return true;
}

}  // namespace

std::string strip_for_scan(std::string_view content) {
  std::string out(content);
  ScanState state = ScanState::Code;
  std::string raw_close;  // ")delim\"" for the active raw string
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case ScanState::Code:
        if (c == '/' && next == '/') {
          state = ScanState::LineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = ScanState::BlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (is_raw_string_start(content, i)) {
          // Collect the delimiter between `R"` and `(`.
          std::size_t d = i + 2;
          while (d < content.size() && content[d] != '(') ++d;
          raw_close = ")";
          raw_close.append(content.substr(i + 2, d - (i + 2)));
          raw_close.push_back('"');
          state = ScanState::Raw;
          i = d;  // keep R"...( visible; contents get blanked
        } else if (c == '"') {
          state = ScanState::String;
        } else if (c == '\'') {
          state = ScanState::Char;
        }
        break;
      case ScanState::LineComment:
        if (c == '\n') {
          // Backslash-newline is spliced in translation phase 2, BEFORE
          // comments are recognised — so a `//` comment whose line ends
          // with `\` (optionally followed by a CR) swallows the next
          // physical line too. Treating that line as code used to leak
          // comment text into the token rules.
          std::size_t back = i;
          if (back > 0 && content[back - 1] == '\r') --back;
          if (back == 0 || content[back - 1] != '\\') {
            state = ScanState::Code;
          }
        } else {
          out[i] = ' ';
        }
        break;
      case ScanState::BlockComment:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = ScanState::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case ScanState::String:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = ScanState::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case ScanState::Char:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = ScanState::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case ScanState::Raw:
        if (content.compare(i, raw_close.size(), raw_close) == 0) {
          i += raw_close.size() - 1;
          state = ScanState::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

namespace {

// ---------------------------------------------------------------- helpers --

std::vector<std::string_view> split_lines(std::string_view s) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t nl = s.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string first_component(std::string_view path) {
  const std::size_t slash = path.find('/');
  return std::string(slash == std::string_view::npos ? path
                                                     : path.substr(0, slash));
}

bool ends_with_any(std::string_view path,
                   std::initializer_list<std::string_view> suffixes) {
  return std::any_of(suffixes.begin(), suffixes.end(),
                     [&](std::string_view suffix) {
                       return path.size() >= suffix.size() &&
                              path.substr(path.size() - suffix.size()) ==
                                  suffix;
                     });
}

// True when `path` IS `file` or ends with "/<file>" — so the exemption for
// "util/rng.cpp" covers "src/util/rng.cpp" but not "synth/my_rng.cpp".
bool path_is_any(std::string_view path,
                 std::initializer_list<std::string_view> files) {
  return std::any_of(files.begin(), files.end(), [&](std::string_view file) {
    if (path == file) return true;
    if (path.size() <= file.size()) return false;
    return path[path.size() - file.size() - 1] == '/' &&
           path.substr(path.size() - file.size()) == file;
  });
}

bool blank(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

// ------------------------------------------------------------ token rules --

// `fast` holds plain substrings at least one of which must appear in a
// line before the regex is consulted; std::regex_search over every line
// of a ~40k-line tree dominates lint time, and a std::string_view::find
// pre-check rejects the overwhelmingly common no-match lines for cents.
// An empty list means "always run the regex".
struct TokenRule {
  const char* name;
  std::vector<const char*> fast;
  std::regex pattern;
  const char* message;
};

bool fast_path_hits(const TokenRule& rule, std::string_view line) {
  if (rule.fast.empty()) return true;
  return std::any_of(rule.fast.begin(), rule.fast.end(),
                     [&](const char* needle) {
                       return line.find(needle) != std::string_view::npos;
                     });
}

const std::vector<TokenRule>& rng_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"banned-rng",
                 {"rand"},
                 std::regex(R"(\b(std\s*::\s*)?s?rand\s*\()"),
                 "rand()/srand() is unseeded global state; draw from a "
                 "seeded util::Rng instead"});
    r.push_back({"banned-rng", {"random_device"},
                 std::regex(R"(std\s*::\s*random_device\b)"),
                 "std::random_device is non-deterministic; seed a util::Rng "
                 "explicitly so runs reproduce bit-for-bit"});
    return r;
  }();
  return rules;
}

const std::vector<TokenRule>& thread_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"raw-thread", {"thread"},
                 std::regex(R"(std\s*::\s*j?thread\b)"),
                 "raw std::thread escapes the pool's shutdown and exception "
                 "discipline; use util::ThreadPool"});
    r.push_back({"raw-thread", {"async"},
                 std::regex(R"(std\s*::\s*async\b)"),
                 "std::async has unspecified threading; use "
                 "util::ThreadPool::submit"});
    r.push_back({"raw-thread", {"detach"},
                 std::regex(R"(\.\s*detach\s*\(\s*\))"),
                 "detached threads cannot be joined at shutdown; use "
                 "util::ThreadPool"});
    return r;
  }();
  return rules;
}

const std::vector<TokenRule>& stdout_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"stdout-io",
                 {"cout", "cerr", "clog"},
                 std::regex(R"(std\s*::\s*(cout|cerr|clog)\b)"),
                 "library code must log via util::logging (LUMOS_INFO & co), "
                 "not write to process-wide streams"});
    return r;
  }();
  return rules;
}

const std::vector<TokenRule>& exit_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    const char* message =
        "library code must not tear the process down (skips destructors, "
        "flushes, and the bench exit-code taxonomy); return an error or "
        "throw a typed lumos::Error, and exit only from main()";
    // Four separate patterns: `\bexit` deliberately fails to land inside
    // `quick_exit` or POSIX `_exit` (preceded by `_`, a word character),
    // so the async-signal-safe post-fork `_exit(2)` idiom stays legal.
    r.push_back({"raw-exit", {"exit"},
                 std::regex(R"(\b(std\s*::\s*)?exit\s*\()"), message});
    r.push_back({"raw-exit", {"quick_exit"},
                 std::regex(R"(\b(std\s*::\s*)?quick_exit\s*\()"), message});
    r.push_back({"raw-exit", {"abort"},
                 std::regex(R"(\b(std\s*::\s*)?abort\s*\()"), message});
    r.push_back({"raw-exit", {"_Exit"},
                 std::regex(R"(\b(std\s*::\s*)?_Exit\s*\()"), message});
    return r;
  }();
  return rules;
}

const std::vector<TokenRule>& float_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"float-time", {"float"},
                 std::regex(R"(\bfloat\b)"),
                 "simulator time and accounting are double-only; float "
                 "drops whole seconds past ~97 days of simulated time"});
    return r;
  }();
  return rules;
}

const std::vector<TokenRule>& priority_queue_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"sim-priority-queue",
                 {"priority_queue"},
                 std::regex(R"(std\s*::\s*priority_queue\b)"),
                 "simulator event ordering must go through sim::EventQueue "
                 "(sim/event_queue.hpp) so the documented event_before "
                 "tie-break — not heap insertion order — decides ties"});
    return r;
  }();
  return rules;
}

void apply_token_rules(const std::vector<TokenRule>& rules,
                       const std::vector<std::string_view>& stripped_lines,
                       std::string_view rel_path,
                       std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    const auto& line = stripped_lines[i];
    for (const auto& rule : rules) {
      // Cheap any-of substring screen first; the regex only runs on
      // lines that could possibly match. ~10x fewer regex executions
      // on a full-tree scan.
      if (!fast_path_hits(rule, line)) continue;
      if (std::regex_search(line.begin(), line.end(), rule.pattern)) {
        out.push_back({std::string(rel_path), static_cast<int>(i + 1),
                       rule.name, rule.message});
      }
    }
  }
}

// ----------------------------------------------------- structural rules --

void check_pragma_once(const std::vector<std::string_view>& stripped_lines,
                       std::string_view rel_path,
                       std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    if (blank(stripped_lines[i])) continue;
    const auto line = stripped_lines[i];
    const auto start = line.find_first_not_of(" \t");
    if (line.substr(start).rfind("#pragma once", 0) != 0) {
      out.push_back({std::string(rel_path), static_cast<int>(i + 1),
                     "pragma-once",
                     "headers must open with #pragma once (before any other "
                     "code, including include guards)"});
    }
    return;  // only the first non-comment line matters
  }
  out.push_back({std::string(rel_path), 1, "pragma-once",
                 "header has no #pragma once"});
}

void check_includes(const std::vector<std::string_view>& raw_lines,
                    std::string_view rel_path, std::vector<Diagnostic>& out) {
  static const std::regex include_re(
      R"(^\s*#\s*include\s*([<"])([^>"]*)[>"])");
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    std::cmatch m;
    if (!std::regex_search(raw_lines[i].begin(), raw_lines[i].end(), m,
                           include_re)) {
      continue;
    }
    const std::string target = m[2].str();
    const int line = static_cast<int>(i + 1);
    if (target.find("..") != std::string::npos) {
      out.push_back({std::string(rel_path), line, "include-hygiene",
                     "parent-relative include \"" + target +
                         "\"; include project headers root-relative "
                         "(e.g. \"util/rng.hpp\")"});
    }
    if (target.find('\\') != std::string::npos) {
      out.push_back({std::string(rel_path), line, "include-hygiene",
                     "backslash in include path \"" + target + "\""});
    }
    if (!seen.insert(target).second) {
      out.push_back({std::string(rel_path), line, "include-hygiene",
                     "duplicate include of \"" + target + "\""});
    }
  }
}

// --------------------------------------------------- naked-catch-all rule --

// `catch (...)` that neither rethrows nor captures the exception erases
// the error entirely — the caller observes success where there was a
// failure. Handlers must rethrow (`throw;`), convert to a typed
// lumos::Error (`throw InternalError(...)`), or capture via
// std::current_exception for deferred rethrow. The ThreadPool boundary is
// allowlisted at the call site in lint_source.
void check_naked_catch_all(std::string_view stripped,
                           std::string_view rel_path,
                           std::vector<Diagnostic>& out) {
  static const std::regex catch_re(R"(\bcatch\s*\(\s*\.\.\.\s*\))");
  const auto end = std::cregex_iterator();
  for (auto it = std::cregex_iterator(
           stripped.data(), stripped.data() + stripped.size(), catch_re);
       it != end; ++it) {
    const auto match_pos = static_cast<std::size_t>(it->position());
    const std::size_t open =
        stripped.find('{', match_pos + static_cast<std::size_t>(it->length()));
    bool clean = false;
    if (open != std::string_view::npos) {
      int depth = 0;
      std::size_t i = open;
      for (; i < stripped.size(); ++i) {
        if (stripped[i] == '{') {
          ++depth;
        } else if (stripped[i] == '}' && --depth == 0) {
          break;
        }
      }
      const std::string_view body = stripped.substr(open, i - open);
      clean = body.find("throw") != std::string_view::npos ||
              body.find("current_exception") != std::string_view::npos;
    }
    if (!clean) {
      const int line = 1 + static_cast<int>(std::count(
                               stripped.begin(),
                               stripped.begin() +
                                   static_cast<std::ptrdiff_t>(match_pos),
                               '\n'));
      out.push_back(
          {std::string(rel_path), line, "naked-catch-all",
           "catch (...) swallows the error; rethrow, convert to a typed "
           "lumos::Error, or capture std::current_exception"});
    }
  }
}

}  // namespace

// ----------------------------------------------------------- public API --

std::string format(const Diagnostic& d) {
  std::ostringstream os;
  os << d.file << ':' << d.line << ": [" << d.rule << "] " << d.message;
  return os.str();
}

std::vector<Diagnostic> lint_source(std::string_view rel_path,
                                    std::string_view content) {
  std::vector<Diagnostic> out;
  const std::string stripped = strip_for_scan(content);
  const auto stripped_lines = split_lines(stripped);
  const auto raw_lines = split_lines(content);
  const std::string top = first_component(rel_path);
  const bool is_header = ends_with_any(rel_path, {".hpp", ".h"});
  // Paths under tools/, examples/, and tests/ are binaries and harnesses:
  // they may print and (in tests) spawn threads deliberately. bench/ is
  // checked like library code — harnesses render through streams handed to
  // them, and only the files on the explicit stdout allowlist below own
  // the process-wide streams.
  const bool checked_code =
      top != "tools" && top != "examples" && top != "tests";

  if (checked_code &&
      !path_is_any(rel_path, {"util/rng.hpp", "util/rng.cpp"})) {
    apply_token_rules(rng_rules(), stripped_lines, rel_path, out);
  }
  if (checked_code && !path_is_any(rel_path, {"util/thread_pool.hpp",
                                              "util/thread_pool.cpp"})) {
    apply_token_rules(thread_rules(), stripped_lines, rel_path, out);
    // Same allowlist: the pool's deferred-rethrow machinery is the one
    // sanctioned catch-all boundary.
    check_naked_catch_all(stripped, rel_path, out);
  }
  // stdout-io allowlist, one entry per legitimate stream owner:
  //  * util/logging      — the logging sink itself;
  //  * obs/json.cpp      — write_json's documented "-" = stdout path;
  //  * bench/common.hpp  — map_bench_exception, the exit-code ladder;
  //  * bench/bench_runner.cpp — the runner's progress/usage output.
  if (checked_code &&
      !path_is_any(rel_path,
                   {"util/logging.hpp", "util/logging.cpp", "obs/json.cpp",
                    "bench/common.hpp", "bench/bench_runner.cpp"})) {
    apply_token_rules(stdout_rules(), stripped_lines, rel_path, out);
  }
  // raw-exit: entry-point TUs (anything defining `int main(`) own their
  // process and may exit/abort — e.g. bench_runner's --inject-fault
  // crash hook. Everything else must return or
  // throw so the supervisor sees the documented exit-code taxonomy.
  if (checked_code) {
    static const std::regex main_re(R"(\bint\s+main\s*\()");
    if (!std::regex_search(stripped.begin(), stripped.end(), main_re)) {
      apply_token_rules(exit_rules(), stripped_lines, rel_path, out);
    }
  }
  if (top == "sim" || top == "trace" || top == "core") {
    apply_token_rules(float_rules(), stripped_lines, rel_path, out);
  }
  // sim-priority-queue: the EventQueue heap backend is the ONE sanctioned
  // std::priority_queue in the simulator — every other event collection
  // must use the shared abstraction so the event_before total order (and
  // the calendar/heap bit-equivalence it guarantees) cannot fork.
  if (top == "sim" && !path_is_any(rel_path, {"sim/event_queue.hpp",
                                              "sim/event_queue.cpp"})) {
    apply_token_rules(priority_queue_rules(), stripped_lines, rel_path, out);
  }
  if (is_header) check_pragma_once(stripped_lines, rel_path, out);
  check_includes(raw_lines, rel_path, out);

  apply_suppressions(rel_path, content, out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return out;
}

void apply_suppressions(std::string_view rel_path, std::string_view content,
                        std::vector<Diagnostic>& diags) {
  // Suppressions are read from the RAW text: the stripper blanks comment
  // interiors, and the whole point of `// lumos-lint: allow(...)` is to
  // live in a comment.
  static const std::regex allow_re(
      R"(//\s*lumos-lint:\s*allow\(([A-Za-z0-9_-]+)\)[ \t]*(\S?))");
  struct Allow {
    std::string rule;
    bool has_reason = false;
  };
  std::vector<Allow> by_line;  // index = 0-based line
  bool any = false;
  {
    const auto raw_lines = split_lines(content);
    by_line.resize(raw_lines.size());
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
      const auto& line = raw_lines[i];
      if (line.find("lumos-lint:") == std::string_view::npos) continue;
      std::cmatch m;
      if (!std::regex_search(line.begin(), line.end(), m, allow_re)) continue;
      by_line[i] = {m[1].str(), m[2].length() > 0};
      any = true;
    }
  }
  if (!any) return;

  std::erase_if(diags, [&](const Diagnostic& d) {
    for (int line : {d.line, d.line - 1}) {  // own line, then line above
      const auto i = static_cast<std::size_t>(line - 1);
      if (line >= 1 && i < by_line.size() && by_line[i].has_reason &&
          by_line[i].rule == d.rule) {
        return true;
      }
    }
    return false;
  });
  for (std::size_t i = 0; i < by_line.size(); ++i) {
    if (!by_line[i].rule.empty() && !by_line[i].has_reason) {
      diags.push_back({std::string(rel_path), static_cast<int>(i + 1),
                       "lint-suppression",
                       "allow(" + by_line[i].rule +
                           ") needs a reason: a suppression that does not "
                           "say why is a finding, not an exemption"});
    }
  }
}

std::vector<SourceFile> load_tree(const std::filesystem::path& root,
                                  std::string_view prefix) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(root)) {
    throw InvalidArgument("lumos_lint: not a directory: " + root.string());
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<SourceFile> out;
  out.reserve(files.size());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw InvalidArgument("lumos_lint: unreadable: " + file.string());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out.push_back(
        {std::string(prefix) + file.lexically_relative(root).generic_string(),
         std::move(buffer).str()});
  }
  return out;
}

std::vector<Diagnostic> lint_tree(const std::filesystem::path& root,
                                  std::string_view prefix) {
  std::vector<Diagnostic> out;
  for (const SourceFile& file : load_tree(root, prefix)) {
    auto diags = lint_source(file.rel_path, file.content);
    out.insert(out.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
  }
  return out;
}

std::vector<Diagnostic> lint_tree(const std::filesystem::path& root,
                                  std::string_view prefix,
                                  obs::Registry& registry) {
  obs::ScopedTimer timer(registry.histogram("lint.tree_seconds"));
  const auto files = load_tree(root, prefix);
  std::vector<Diagnostic> out;
  for (const SourceFile& file : files) {
    auto diags = lint_source(file.rel_path, file.content);
    out.insert(out.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
  }
  registry.counter("lint.files").add(files.size());
  registry.counter("lint.findings").add(out.size());
  // Gauge mirror of the histogram sample: a single lint run's wall cost,
  // directly greppable in the emitted JSON.
  registry.gauge("lint.duration_ms").set(timer.elapsed_seconds() * 1e3);
  return out;
}

}  // namespace lumos::lint

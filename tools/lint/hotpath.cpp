#include "lint/hotpath.hpp"

#include <algorithm>
#include <array>
#include <regex>
#include <string>

namespace lumos::lint {

namespace {

struct MarkerRule {
  const char* name;
  std::vector<const char*> fast;  // any-of substring screen
  std::regex pattern;
  const char* message;
};

/// A marker-scoped body pass: find `marker`, brace-match the function body
/// that follows, and hold every line of it to `rules`. The hot-path and
/// signal-handler disciplines are the two instances.
struct MarkerPass {
  std::string_view marker;
  const char* misuse_rule;
  const char* misuse_message;
  const std::vector<MarkerRule>* rules;
};

const std::vector<MarkerRule>& hot_rules() {
  static const std::vector<MarkerRule> rules = [] {
    std::vector<MarkerRule> r;
    r.push_back({"hot-alloc",
                 {"new", "alloc", "make_unique", "make_shared"},
                 std::regex(R"(\bnew\b|\b(?:m|c|re)alloc\s*\(|\bmake_unique\b|\bmake_shared\b)"),
                 "heap allocation in a hot path: per-event allocation "
                 "dominates the event-throughput bench — preallocate in "
                 "setup code or use the SoA pools"});
    r.push_back({"hot-node-container",
                 {"map", "set", "list"},
                 std::regex(R"(\bstd\s*::\s*(?:unordered_)?(?:multi)?(?:map|set)\s*<|\bstd\s*::\s*(?:forward_)?list\s*<)"),
                 "node-based container in a hot path: every insert "
                 "allocates a node — hot state belongs in the flat SoA "
                 "vectors (sim/job_soa.hpp)"});
    r.push_back({"hot-mutex",
                 {"lock", "mutex"},
                 std::regex(R"(\bstd\s*::\s*(?:recursive_|shared_|timed_)*mutex\b|\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|\.\s*lock\s*\()"),
                 "lock acquisition in a hot path: the engine is "
                 "single-threaded by design — parallel studies run whole "
                 "simulations on a thread pool, never inside the event "
                 "loop"});
    r.push_back({"hot-stream",
                 {"cout", "cerr", "clog", "stream"},
                 std::regex(R"(\bstd\s*::\s*(?:cout|cerr|clog)\b|\bstd\s*::\s*[io]?(?:string|f)stream\b|\bstd\s*::\s*basic_[io]?stream\b)"),
                 "stream I/O in a hot path: formatting and flushing stall "
                 "the event loop — record into obs counters and "
                 "render after the run"});
    r.push_back({"hot-throw",
                 {"throw"},
                 std::regex(R"(\bthrow\b)"),
                 "throw in a hot path: if this guards a genuine invariant, "
                 "suppress with the invariant spelled out; otherwise return "
                 "a status the caller can branch on"});
    r.push_back({"hot-regex",
                 {"regex"},
                 std::regex(R"(\bstd\s*::\s*regex\b|\bregex_(?:search|match|replace)\s*\()"),
                 "std::regex in a hot path: compilation and matching are "
                 "orders of magnitude too slow per event — parse in setup "
                 "code"});
    return r;
  }();
  return rules;
}

// Async-signal-safety: a handler body may touch lock-free atomics,
// sig_atomic_t, and the short POSIX async-signal-safe list — nothing that
// allocates, locks, formats, or unwinds. POSIX 2.4.3 is the authority;
// these rules catch the ways C++ code usually violates it.
const std::vector<MarkerRule>& signal_rules() {
  static const std::vector<MarkerRule> rules = [] {
    std::vector<MarkerRule> r;
    r.push_back({"signal-alloc",
                 {"new", "alloc", "make_unique", "make_shared"},
                 std::regex(R"(\bnew\b|\b(?:m|c|re)alloc\s*\(|\bfree\s*\(|\bmake_unique\b|\bmake_shared\b)"),
                 "allocation in a signal handler: malloc takes a lock the "
                 "interrupted thread may already hold — handlers store "
                 "into a pre-existing lock-free atomic and return"});
    r.push_back({"signal-mutex",
                 {"lock", "mutex"},
                 std::regex(R"(\bstd\s*::\s*(?:recursive_|shared_|timed_)*mutex\b|\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|\.\s*lock\s*\()"),
                 "lock in a signal handler: if the interrupted thread "
                 "holds it the process deadlocks — only lock-free atomics "
                 "are async-signal-safe"});
    r.push_back({"signal-stream",
                 {"cout", "cerr", "clog", "stream", "printf", "puts",
                  "LUMOS_INFO", "LUMOS_WARN", "LUMOS_ERROR", "LUMOS_DEBUG"},
                 std::regex(R"(\bstd\s*::\s*(?:cout|cerr|clog)\b|\bstd\s*::\s*[io]?(?:string|f)stream\b|\b(?:f|s|vf|vs)?printf\s*\(|\bputs\s*\(|\bLUMOS_(?:INFO|WARN|ERROR|DEBUG)\b)"),
                 "I/O or logging in a signal handler: stdio and the "
                 "LUMOS_* log macros buffer, lock, and allocate — none of "
                 "which is async-signal-safe; set a flag and log from the "
                 "normal control path"});
    r.push_back({"signal-throw",
                 {"throw"},
                 std::regex(R"(\bthrow\b)"),
                 "throw in a signal handler: unwinding out of a handler "
                 "is undefined behaviour — record the condition in an "
                 "atomic and act on it outside the handler"});
    return r;
  }();
  return rules;
}

const MarkerPass& hot_pass() {
  static const MarkerPass pass{
      "LUMOS_HOT_PATH", "hot-path-misuse",
      "LUMOS_HOT_PATH marks a declaration, not a definition — the marker "
      "checks a function body, so put it on the definition",
      &hot_rules()};
  return pass;
}

const MarkerPass& signal_pass() {
  static const MarkerPass pass{
      "LUMOS_SIGNAL_HANDLER", "signal-handler-misuse",
      "LUMOS_SIGNAL_HANDLER marks a declaration, not a definition — the "
      "marker checks a function body, so put it on the definition",
      &signal_rules()};
  return pass;
}

int line_of(std::string_view text, std::size_t offset) {
  return 1 + static_cast<int>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(offset),
                            '\n'));
}

bool is_ident(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Best-effort function name for messages: the last identifier before the
/// first '(' between the marker and the body.
std::string function_name(std::string_view stripped, std::size_t from,
                          std::size_t to) {
  const std::string_view sig = stripped.substr(from, to - from);
  const std::size_t paren = sig.find('(');
  if (paren == std::string_view::npos) return "(unknown)";
  std::size_t end = paren;
  while (end > 0 && !is_ident(sig[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && is_ident(sig[begin - 1])) --begin;
  if (begin == end) return "(unknown)";
  return std::string(sig.substr(begin, end - begin));
}

struct Body {
  std::size_t open = 0;   // offset of '{' in stripped content
  std::size_t close = 0;  // offset one past the matching '}'
  std::string name;
  bool misuse = false;    // marker on a declaration (hit ';' first)
  std::size_t misuse_at = 0;
};

/// Locates the function body following a marker at `marker_end`. Crosses
/// parenthesised regions (parameter lists, noexcept clauses, default
/// arguments containing braces are inside parens so they don't confuse
/// the depth-0 '{' search).
Body find_body(std::string_view stripped, std::size_t marker_end) {
  Body body;
  int paren = 0;
  std::size_t i = marker_end;
  for (; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == '(') ++paren;
    else if (c == ')') --paren;
    else if (c == ';' && paren == 0) {
      body.misuse = true;
      body.misuse_at = i;
      return body;
    } else if (c == '{' && paren == 0) {
      break;
    }
  }
  if (i >= stripped.size()) {
    body.misuse = true;
    body.misuse_at = marker_end;
    return body;
  }
  body.open = i;
  body.name = function_name(stripped, marker_end, i);
  int depth = 0;
  for (; i < stripped.size(); ++i) {
    if (stripped[i] == '{') ++depth;
    else if (stripped[i] == '}' && --depth == 0) {
      ++i;
      break;
    }
  }
  body.close = i;  // end of content counts as close for unbalanced input
  return body;
}

std::vector<Diagnostic> scan_marked_bodies(const MarkerPass& pass,
                                           std::string_view rel_path,
                                           std::string_view content) {
  std::vector<Diagnostic> out;
  if (rel_path == "util/annotations.hpp") return out;  // definition site

  const std::string stripped = strip_for_scan(content);
  std::size_t scanned_until = 0;  // markers inside a scanned body: skip
  std::size_t pos = 0;
  while ((pos = stripped.find(pass.marker, pos)) != std::string::npos) {
    const std::size_t marker_at = pos;
    pos += pass.marker.size();
    // Token boundary: don't fire on e.g. LUMOS_HOT_PATH_SOMETHING.
    if (pos < stripped.size() && is_ident(stripped[pos])) continue;
    if (marker_at > 0 && is_ident(stripped[marker_at - 1])) continue;
    if (marker_at < scanned_until) continue;  // nested marker, deduped

    const Body body = find_body(stripped, pos);
    if (body.misuse) {
      out.push_back({std::string(rel_path), line_of(stripped, marker_at),
                     pass.misuse_rule, pass.misuse_message});
      continue;
    }
    scanned_until = body.close;

    // Scan the body line by line against the pass's rules.
    std::size_t line_start = body.open;
    int line_no = line_of(stripped, body.open);
    while (line_start < body.close) {
      std::size_t nl = stripped.find('\n', line_start);
      if (nl == std::string::npos || nl > body.close) nl = body.close;
      const std::string_view line =
          std::string_view(stripped).substr(line_start, nl - line_start);
      for (const MarkerRule& rule : *pass.rules) {
        const bool maybe = std::any_of(
            rule.fast.begin(), rule.fast.end(), [&](const char* needle) {
              return line.find(needle) != std::string_view::npos;
            });
        if (!maybe) continue;
        if (std::regex_search(line.begin(), line.end(), rule.pattern)) {
          out.push_back({std::string(rel_path), line_no, rule.name,
                         std::string(rule.message) + " (in " + body.name +
                             ")"});
        }
      }
      line_start = nl + 1;
      ++line_no;
    }
  }

  apply_suppressions(rel_path, content, out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return out;
}

std::vector<Diagnostic> scan_tree(const MarkerPass& pass,
                                  const std::vector<SourceFile>& files) {
  std::vector<Diagnostic> out;
  for (const SourceFile& file : files) {
    auto diags = scan_marked_bodies(pass, file.rel_path, file.content);
    out.insert(out.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
  }
  return out;
}

}  // namespace

std::vector<Diagnostic> check_hot_paths(std::string_view rel_path,
                                        std::string_view content) {
  return scan_marked_bodies(hot_pass(), rel_path, content);
}

std::vector<Diagnostic> check_hot_paths(const std::vector<SourceFile>& files) {
  return scan_tree(hot_pass(), files);
}

std::vector<Diagnostic> check_signal_handlers(std::string_view rel_path,
                                              std::string_view content) {
  return scan_marked_bodies(signal_pass(), rel_path, content);
}

std::vector<Diagnostic> check_signal_handlers(
    const std::vector<SourceFile>& files) {
  return scan_tree(signal_pass(), files);
}

}  // namespace lumos::lint

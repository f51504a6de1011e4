// docs_check — documentation consistency gate (the `docs_check` ctest).
//
// Docs drift silently: a module gets added to tools/lint/layers.txt but
// never to docs/ARCHITECTURE.md, or a FIGURES.md row keeps naming a bench
// harness that was renamed away. This tool pins two invariants:
//
//   1. every module declared in tools/lint/layers.txt (and the `bench`
//      pseudo-module) is documented in docs/ARCHITECTURE.md — matched as
//      a backticked `module` mention, the way the module map writes them;
//   2. the docs/FIGURES.md table rows (first-column `| `name` |` cells)
//      and the harnesses `bench_runner --list` prints are the same set:
//      every row names a harness, and every harness has a row.
//
// Usage: docs_check --repo <repo root> [--runner <bench_runner>]. Check 2
// runs only when --runner is given (the bench is optional in the build).
// Prints one line per violation and exits non-zero on any, so
// `ctest -R docs_check` gives file-level diagnostics. Registered in
// tools/CMakeLists.txt; also run by tools/check.sh's docs stage.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "docs_check: cannot read " << path << '\n';
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Module names from layers.txt: leading `name:` of non-comment lines.
std::vector<std::string> layer_modules(const std::string& text) {
  std::vector<std::string> modules;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto colon = line.find(':', first);
    if (colon == std::string::npos) continue;
    modules.push_back(line.substr(first, colon - first));
  }
  return modules;
}

/// First-column backticked harness names of FIGURES.md table rows.
std::vector<std::string> figures_rows(const std::string& text) {
  std::vector<std::string> names;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    // A data row starts "| `name`"; header/separator rows do not.
    const auto tick = line.find("| `");
    if (tick != 0) continue;
    const auto start = tick + 3;
    const auto end = line.find('`', start);
    if (end == std::string::npos) continue;
    names.push_back(line.substr(start, end - start));
  }
  return names;
}

/// Harness names from `<runner> --list` (first tab-separated column).
/// Returns false if the runner cannot be run or fails.
bool runner_harnesses(const std::string& runner,
                      std::vector<std::string>& names) {
  const std::string command = "\"" + runner + "\" --list";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string listing;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    listing.append(buf, n);
  }
  if (::pclose(pipe) != 0) return false;
  std::istringstream lines(listing);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) names.push_back(line.substr(0, line.find('\t')));
  }
  return true;
}

bool contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path repo = ".";
  std::string runner;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--repo") repo = argv[i + 1];
    if (std::string(argv[i]) == "--runner") runner = argv[i + 1];
  }
  const auto layers = read_file(repo / "tools" / "lint" / "layers.txt");
  const auto architecture =
      read_file(repo / "docs" / "ARCHITECTURE.md");
  const auto figures = read_file(repo / "docs" / "FIGURES.md");
  if (layers.empty() || architecture.empty() || figures.empty()) return 2;

  int violations = 0;

  for (const auto& module : layer_modules(layers)) {
    // The module map writes modules as backticked `name` mentions.
    if (architecture.find("`" + module + "`") == std::string::npos) {
      std::cout << "docs_check: module \"" << module
                << "\" (tools/lint/layers.txt) is not documented in "
                   "docs/ARCHITECTURE.md\n";
      ++violations;
    }
  }

  const auto rows = figures_rows(figures);
  std::vector<std::string> harnesses;
  if (!runner.empty()) {
    if (!runner_harnesses(runner, harnesses)) {
      std::cout << "docs_check: \"" << runner << " --list\" failed\n";
      return 2;
    }
    for (const auto& name : rows) {
      if (!contains(harnesses, name)) {
        std::cout << "docs_check: docs/FIGURES.md names \"" << name
                  << "\" but bench_runner --list has no such harness\n";
        ++violations;
      }
    }
    for (const auto& name : harnesses) {
      if (!contains(rows, name)) {
        std::cout << "docs_check: harness \"" << name
                  << "\" (bench_runner --list) has no docs/FIGURES.md row\n";
        ++violations;
      }
    }
  }

  if (violations == 0) {
    std::cout << "docs_check: clean (" << layer_modules(layers).size()
              << " modules, " << harnesses.size()
              << " bench harnesses checked)\n";
    return 0;
  }
  std::cout << "docs_check: " << violations << " violation(s)\n";
  return 1;
}

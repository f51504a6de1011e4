// lumos_lint CLI: the project's structural gatekeeper.
//
//   lumos_lint [options] <source-dir>...
//
//   --pass rules|layers|hotpath|signals
//                                 run one pass (repeatable; default: all)
//   --layers <file>               layer DAG spec (default tools/lint/layers.txt)
//
// Passes: `rules` is the per-file engine (lint.hpp), `layers` the
// include-graph analysis against the declared DAG (structure.hpp),
// `hotpath` the LUMOS_HOT_PATH body discipline, and `signals` the
// LUMOS_SIGNAL_HANDLER async-signal-safety discipline (hotpath.hpp,
// which hosts both marker-scoped scanners). Trees are
// loaded once and shared; the structural passes see the concatenation of
// every root, so cross-root edges (bench/ including src/ headers) are
// part of the graph.
//
// Exit status: 0 clean, 1 findings, 2 usage/IO/config error. Diagnostics
// print as `<base>/<file>:<line>: [rule] message` — absolute when the
// roots are absolute (ctest), so editors can jump to them — followed by
// per-rule counts and a one-line summary.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint/hotpath.hpp"
#include "lint/lint.hpp"
#include "lint/structure.hpp"
#include "util/error.hpp"

namespace {

struct Options {
  std::vector<std::string> roots;
  bool pass_rules = true;
  bool pass_layers = true;
  bool pass_hotpath = true;
  bool pass_signals = true;
  std::string layers_file = "tools/lint/layers.txt";
};

void usage(std::ostream& out) {
  out << "usage: lumos_lint [options] <source-dir>...\n"
         "  --pass rules|layers|hotpath|signals\n"
         "                               run one pass (repeatable; default "
         "all)\n"
         "  --layers <file>              layer DAG (default "
         "tools/lint/layers.txt)\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw lumos::InvalidArgument("lumos_lint: cannot read " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Per-root display base so findings print as jump-to-able paths: a root
/// ".../src" lints files as "sim/x.cpp" and prints ".../src/sim/x.cpp";
/// a root ".../bench" lints as "bench/x.cpp" and prints ".../bench/x.cpp".
struct RootBase {
  std::string prefix;  // "" or "bench/"
  std::string base;    // directory to prepend for display
};

std::string display_path(const std::vector<RootBase>& bases,
                         const std::string& file) {
  const RootBase* best = nullptr;
  for (const RootBase& rb : bases) {
    if (file.rfind(rb.prefix, 0) != 0) continue;
    if (best == nullptr || rb.prefix.size() > best->prefix.size()) best = &rb;
  }
  if (best == nullptr || best->base.empty()) return file;
  return best->base + "/" + file;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> passes;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "lumos_lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (arg == "--pass") {
      passes.push_back(value("--pass"));
    } else if (arg == "--layers") {
      opt.layers_file = value("--layers");
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "lumos_lint: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      opt.roots.push_back(arg);
    }
  }
  if (!passes.empty()) {
    opt.pass_rules = opt.pass_layers = opt.pass_hotpath = false;
    opt.pass_signals = false;
    for (const std::string& p : passes) {
      if (p == "rules") opt.pass_rules = true;
      else if (p == "layers") opt.pass_layers = true;
      else if (p == "hotpath") opt.pass_hotpath = true;
      else if (p == "signals") opt.pass_signals = true;
      else {
        std::cerr << "lumos_lint: unknown pass '" << p
                  << "' (rules|layers|hotpath|signals)\n";
        return 2;
      }
    }
  }
  if (opt.roots.empty()) {
    std::cerr << "lumos_lint: no source directory given (try: lumos_lint "
                 "src bench)\n";
    return 2;
  }

  try {
    std::vector<lumos::lint::Diagnostic> findings;
    std::vector<RootBase> bases;

    // Load every root once; all passes share the same file set.
    std::vector<lumos::lint::SourceFile> files;
    for (const std::string& root : opt.roots) {
      const auto path = std::filesystem::path(root).lexically_normal();
      std::string name = path.filename().string();
      if (name.empty()) name = path.parent_path().filename().string();
      const std::string prefix = name == "src" ? "" : name + "/";
      const std::string base =
          prefix.empty() ? path.string() : path.parent_path().string();
      bases.push_back({prefix, base});
      auto tree = lumos::lint::load_tree(path, prefix);
      files.insert(files.end(), std::make_move_iterator(tree.begin()),
                   std::make_move_iterator(tree.end()));
    }

    if (opt.pass_rules) {
      for (const auto& file : files) {
        auto diags = lumos::lint::lint_source(file.rel_path, file.content);
        findings.insert(findings.end(), std::make_move_iterator(diags.begin()),
                        std::make_move_iterator(diags.end()));
      }
    }
    if (opt.pass_layers) {
      const auto spec = lumos::lint::parse_layers(read_file(opt.layers_file));
      auto diags = lumos::lint::check_structure(files, spec);
      findings.insert(findings.end(), std::make_move_iterator(diags.begin()),
                      std::make_move_iterator(diags.end()));
    }
    if (opt.pass_hotpath) {
      auto diags = lumos::lint::check_hot_paths(files);
      findings.insert(findings.end(), std::make_move_iterator(diags.begin()),
                      std::make_move_iterator(diags.end()));
    }
    if (opt.pass_signals) {
      auto diags = lumos::lint::check_signal_handlers(files);
      findings.insert(findings.end(), std::make_move_iterator(diags.begin()),
                      std::make_move_iterator(diags.end()));
    }

    std::stable_sort(findings.begin(), findings.end(),
                     [](const lumos::lint::Diagnostic& a,
                        const lumos::lint::Diagnostic& b) {
                       if (a.file != b.file) return a.file < b.file;
                       return a.line < b.line;
                     });

    for (const auto& d : findings) {
      lumos::lint::Diagnostic shown = d;
      shown.file = display_path(bases, d.file);
      std::cout << lumos::lint::format(shown) << "\n";
    }

    std::map<std::string, std::size_t> by_rule;
    for (const auto& d : findings) ++by_rule[d.rule];
    for (const auto& [rule, count] : by_rule) {
      std::cout << "  " << rule << ": " << count << "\n";
    }

    if (findings.empty()) {
      std::cout << "lumos_lint: clean (" << opt.roots.size() << " tree"
                << (opt.roots.size() == 1 ? "" : "s") << " checked)\n";
      return 0;
    }
    std::cout << "lumos_lint: " << findings.size() << " violation"
              << (findings.size() == 1 ? "" : "s") << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "lumos_lint: " << e.what() << "\n";
    return 2;
  }
}

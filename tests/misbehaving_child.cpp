// Fixture child for supervise_test: a process that misbehaves on demand,
// so the supervisor is exercised against real crashes, hangs, and torn
// output rather than mocks. Usage:
//
//   misbehaving_child MODE [ARGS...]
//
//   clean                 print a valid one-line report JSON, exit 0
//   exit CODE             exit with CODE (exit-code mapping tests)
//   crash                 abort() -> SIGABRT
//   hang                  sleep forever (SIGTERM at default disposition,
//                         so the supervisor's SIGTERM suffices)
//   stubborn              ignore SIGTERM, then sleep forever (forces the
//                         supervisor's SIGKILL escalation)
//   huge-stderr           stream ~2 MiB to stderr (ring-tail test),
//                         ending with a recognisable marker, then exit 3
//   partial-json          print a truncated JSON document, exit 0
//   flaky STATE_FILE      crash on the first run (creates STATE_FILE),
//                         behave like `clean` once it exists — the
//                         retry-then-succeed scenario
//   atomic-loop PATH      rewrite PATH forever via write_json_atomic,
//                         SIGTERM ignored — the parent SIGKILLs it at an
//                         arbitrary instant and PATH must still parse
//   failpoint-write PATH  arm the obs.write_json failpoint, then attempt
//                         an atomic write: in failpoint builds the typed
//                         InjectedFault maps to exit 4 and PATH is never
//                         created; elsewhere the write succeeds (exit 0)
//
// Exit codes mirror bench/common.hpp: 0 ok, 2 usage, 3 runtime, 4 fault.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "util/failpoint.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace {

constexpr int kOk = 0;
constexpr int kUsage = 2;
constexpr int kRuntime = 3;
constexpr int kFault = 4;

void print_clean_report() {
  lumos::obs::Json report = lumos::obs::Json::object();
  report["figure"] = "Fixture";
  lumos::obs::Json metrics = lumos::obs::Json::object();
  metrics["fixture.value"] = 1.0;
  report["metrics"] = std::move(metrics);
  std::cout << report.dump(-1) << '\n';
}

[[noreturn]] void sleep_forever() {
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: misbehaving_child MODE [ARGS...]\n";
    return kUsage;
  }
  const std::string mode = argv[1];

  if (mode == "clean") {
    print_clean_report();
    return kOk;
  }
  if (mode == "exit") {
    if (argc < 3) return kUsage;
    return std::atoi(argv[2]);
  }
  if (mode == "crash") {
    std::abort();
  }
  if (mode == "hang") {
    sleep_forever();
  }
  if (mode == "stubborn") {
    std::signal(SIGTERM, SIG_IGN);
    sleep_forever();
  }
  if (mode == "huge-stderr") {
    const std::string chunk(1024, 'x');
    for (int i = 0; i < 2048; ++i) {
      std::cerr << chunk << '\n';
    }
    std::cerr << "END-OF-STDERR-MARKER\n";
    return kRuntime;
  }
  if (mode == "partial-json") {
    std::cout << "{\"figure\": \"Fixture\", \"metrics\": {" << std::flush;
    return kOk;
  }
  if (mode == "flaky") {
    if (argc < 3) return kUsage;
    std::ifstream probe(argv[2]);
    if (!probe) {
      std::ofstream(argv[2]) << "attempted\n";
      std::abort();
    }
    print_clean_report();
    return kOk;
  }
  if (mode == "atomic-loop") {
    if (argc < 3) return kUsage;
    std::signal(SIGTERM, SIG_IGN);  // only SIGKILL stops the loop
    for (std::int64_t i = 0;; ++i) {
      lumos::obs::Json doc = lumos::obs::Json::object();
      doc["iteration"] = i;
      doc["payload"] = std::string(4096, 'p');
      lumos::obs::write_json_atomic(doc, argv[2]);
    }
  }
  if (mode == "failpoint-write") {
    if (argc < 3) return kUsage;
    lumos::fault::FailpointRegistry::global().arm("obs.write_json");
    lumos::obs::Json doc = lumos::obs::Json::object();
    doc["key"] = 1;
    lumos::obs::write_json_atomic(doc, argv[2]);
    return kOk;
  }
  std::cerr << "misbehaving_child: unknown mode \"" << mode << "\"\n";
  return kUsage;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const lumos::fault::InjectedFault& e) {
    std::cerr << "misbehaving_child: " << e.what() << '\n';
    return kFault;
  } catch (const std::exception& e) {
    std::cerr << "misbehaving_child: " << e.what() << '\n';
    return kRuntime;
  }
}

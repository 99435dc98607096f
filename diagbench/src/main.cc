// diagbench: the MISTIQUE diagnosis benchmark.
//
//   diagbench --workload <dnn-cold-routed|trad-warm-local|adaptive-dev-loop>
//             --seed <n> --seconds <s> --trace <0|1>
//   diagbench --self-check
//
// Prints host facts on a '#' line and, as the last line, one JSON object
// with correct/attempted/failed and the end-to-end (trace 0) or per-layer
// (trace 1) metrics. --self-check runs every workload briefly, handing each
// oracle one corrupted answer, and fails unless every oracle catches it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "obs/flight_recorder.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: diagbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "       diagbench --self-check [--work-dir <dir>]\n");
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace diagbench;  // NOLINT
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      args.self_check = true;
      continue;
    }
    if (i + 1 >= argc) Usage();
    const char* v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else {
      Usage();
    }
  }
  std::filesystem::create_directories(args.work_dir);

  if (args.self_check) {
    Oracles::Get().SetSelfCheck(true);
    args.seconds = 1;
    RunOutput ignored;
    RunDnnColdRouted(args, &ignored);
    RunTradWarmLocal(args, &ignored);
    RunAdaptiveDevLoop(args, &ignored);
    const bool passed = Oracles::Get().SelfCheckPassed(kOracleNames);
    std::printf("self-check %s\n", passed ? "passed" : "FAILED");
    return passed ? 0 : 1;
  }

  if (args.seconds <= 0) Usage();
  RunOutput out;
  if (args.workload == "dnn-cold-routed") {
    RunDnnColdRouted(args, &out);
  } else if (args.workload == "trad-warm-local") {
    RunTradWarmLocal(args, &out);
  } else if (args.workload == "adaptive-dev-loop") {
    RunAdaptiveDevLoop(args, &out);
  } else {
    Usage();
  }
  PrintResult(args, out, Oracles::Get().all_ok());
  return 0;
}

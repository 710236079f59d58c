// wfbench: the repository benchmark binary. See wfbench/README.md.
//
//   wfbench --workload W --seed N --seconds S --trace 0|1 --reference FILE
//       prints the result JSON as its last stdout line
//   wfbench ... --setup-only 1
//       sets up, then prints a result JSON holding only setup_s
//   wfbench --workload W --record FILE
//       writes W's reference of simulated results to FILE
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "runner.h"

int main(int argc, char** argv) {
  wfbench::Options options;
  std::string record_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "wfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--setup-only") {
      options.setup_only = value == "1";
    } else if (arg == "--reference") {
      options.reference_path = value;
    } else if (arg == "--record") {
      record_path = value;
    } else {
      std::fprintf(stderr, "wfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.workload.empty() ||
      (record_path.empty() && options.reference_path.empty())) {
    std::fprintf(stderr,
                 "usage: wfbench --workload W (--record FILE | --seed N "
                 "--seconds S --trace 0|1 [--setup-only 1] --reference FILE)\n");
    return 2;
  }
  try {
    if (!record_path.empty()) {
      std::ofstream out(record_path);
      out << wfbench::record(options.workload);
      return out ? 0 : 1;
    }
    const std::string line = wfbench::run(options);
    std::printf("%s\n", line.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

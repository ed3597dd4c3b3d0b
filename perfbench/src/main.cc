// p2pdb_perfbench: the repository's benchmark program (perfbench/NOTES.md).
//
//   p2pdb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--scale full|tiny] [--workdir DIR]
//
// Prints progress on stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/runner.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: p2pdb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  p2pdb::perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scale") {
      if (std::strcmp(value, "tiny") != 0 && std::strcmp(value, "full") != 0) {
        return Usage();
      }
      options.tiny = std::strcmp(value, "tiny") == 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty()) return Usage();
  return p2pdb::perfbench::RunBenchmark(options);
}

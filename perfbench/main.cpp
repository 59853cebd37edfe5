// perfbench — one workload run of the repository benchmark.
//
//   perfbench <solve|sharded|fleet> --seed N --seconds S --trace 0|1
//             --work-dir DIR
//   perfbench daemon ...            (fleet's daemon child; see fleet.cpp)
//
// Prints progress on stderr and one JSON report as the last stdout line;
// perfbench/run.py builds this binary and turns the report into the
// benchmark's result line.  Exit status 1 when any correctness check failed.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "report.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench <solve|sharded|fleet> --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::strcmp(argv[1], "daemon") == 0) return run_daemon(argc, argv);
  if (argc < 2) {
    usage();
    return 2;
  }
  Options opt;
  opt.workload = argv[1];
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage();
        return 2;
      }
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  if (opt.work_dir.empty() || opt.seconds <= 0.0) {
    usage();
    return 2;
  }
  opt.trace_path = opt.work_dir + "/trace-" + opt.workload + ".jsonl";
  char exe[PATH_MAX] = {};
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n > 0) opt.self_exe.assign(exe, static_cast<std::size_t>(n));

  bind_to_budget();
  Report report;
  try {
    if (opt.workload == "solve" || opt.workload == "sharded") {
      run_solve(opt, report);
    } else if (opt.workload == "fleet") {
      run_fleet(opt, report);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.to_json().c_str());
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}

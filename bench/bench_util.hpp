#pragma once
// Shared plumbing for the benchmark harnesses: argument/environment
// parsing and table formatting.
//
// Common knobs (flags override environment variables):
//   --scale=X    NRC_SCALE    problem-size multiplier (1.0 = defaults;
//                             the paper's EXTRALARGE sizes need ~2.5-4)
//   --threads=N  NRC_THREADS  parallel thread count (paper: 12)
//   --reps=N     NRC_REPS     timed repetitions (median is reported)
//   --warmup=N   NRC_WARMUP   untimed warm-up runs
//   --sims=N     NRC_SIMS     simulated per-thread recoveries (Fig. 10: 12)
//   --trials=N   NRC_TRIALS   whole-suite passes that are min-merged;
//                             spacing repetitions minutes apart rides out
//                             the multi-second vCPU interference bursts of
//                             shared/virtualized hosts
//   --kernel=K                restrict to one kernel (repeatable)
//   --out=PATH   NRC_OUT      where to write the bench's JSON artifact
//                             (default: the bench's own name in the
//                             current directory — pass an absolute path
//                             in CI so out-of-tree binary dirs can't
//                             silently drop the artifact)

#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace nrc::bench {

struct Args {
  double scale = 1.0;
  int threads = 12;
  int reps = 3;
  int warmup = 1;
  int sims = 12;
  int trials = 2;
  std::string out;
  std::vector<std::string> kernels;

  static Args parse(int argc, char** argv) {
    Args a;
    if (const char* e = std::getenv("NRC_SCALE")) a.scale = std::atof(e);
    if (const char* e = std::getenv("NRC_OUT")) a.out = e;
    if (const char* e = std::getenv("NRC_THREADS")) a.threads = std::atoi(e);
    if (const char* e = std::getenv("NRC_REPS")) a.reps = std::atoi(e);
    if (const char* e = std::getenv("NRC_WARMUP")) a.warmup = std::atoi(e);
    if (const char* e = std::getenv("NRC_SIMS")) a.sims = std::atoi(e);
    if (const char* e = std::getenv("NRC_TRIALS")) a.trials = std::atoi(e);
    for (int i = 1; i < argc; ++i) {
      const std::string s = argv[i];
      auto val = [&](const char* prefix) -> const char* {
        const size_t n = std::strlen(prefix);
        return s.compare(0, n, prefix) == 0 ? s.c_str() + n : nullptr;
      };
      if (const char* v = val("--scale=")) {
        a.scale = std::atof(v);
      } else if (const char* v = val("--threads=")) {
        a.threads = std::atoi(v);
      } else if (const char* v = val("--reps=")) {
        a.reps = std::atoi(v);
      } else if (const char* v = val("--warmup=")) {
        a.warmup = std::atoi(v);
      } else if (const char* v = val("--sims=")) {
        a.sims = std::atoi(v);
      } else if (const char* v = val("--trials=")) {
        a.trials = std::atoi(v);
      } else if (const char* v = val("--out=")) {
        a.out = v;
      } else if (const char* v = val("--kernel=")) {
        a.kernels.emplace_back(v);
      } else if (s == "--help" || s == "-h") {
        std::printf(
            "flags: --scale=X --threads=N --reps=N --warmup=N --sims=N "
            "--trials=N --out=PATH --kernel=NAME (repeatable)\n");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", s.c_str());
        std::exit(2);
      }
    }
    if (a.threads < 1) a.threads = 1;
    if (a.threads > omp_get_num_procs()) a.threads = omp_get_num_procs();
    if (a.reps < 1) a.reps = 1;
    return a;
  }

  bool wants(const std::string& kernel) const {
    if (kernels.empty()) return true;
    for (const auto& k : kernels)
      if (k == kernel) return true;
    return false;
  }
};

inline void rule(int width = 118) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace nrc::bench

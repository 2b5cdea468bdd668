// cold_build — what a cold collapse() costs, stage by stage.
//
// A structure the plan cache has not seen pays the symbolic build before
// its first run: the ranking system and the level equations, and then a
// bind.  (Each level's root is chosen by interval at recovery time, so
// nothing is calibrated here.)  This bench times each stage separately
// (the library functions collapse() is made of, called in its order)
// plus collapse() as a whole — which also walks a small domain for its
// model check (a nest empty-ranged at every size is refused), a cost
// only that column shows — on
//
//   the eight serving shapes and six cold families of the benchmark
//   population (benchmark/population.cpp, the families at their fixed
//   shifts), and
//   the quartic i=0..N, j=i..N+s, k=j..N+s, l=k..N+s over a shift sweep.
//
// One sample of a stage is the mean over a batch of at least
// kMinBuilds builds and at least kMinBatchUs of timed work (a single
// cold build lasts 5-100 us, so one build per sample would leave a
// stage's median to a handful of timer reads).  Each bind in a batch
// binds a freshly collapsed nest, as a cold build does, so it starts
// from the caches a collapse() leaves.  Every stage takes one sample
// per trial; the tables print the median and the JSON
// (BENCH_build.json, --out=PATH overrides) records min, median and max
// over trials per stage in microseconds, with the run's provenance
// (cpu, nproc, git_sha, git_dirty), the trial count and the batch
// minimums.  No floor is enforced: the numbers are a per-layer record.
// It exits non-zero only if the staged level equations differ from
// collapse()'s.
//
//   ./bench_cold_build --trials=7

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nrcollapse.hpp"

using namespace nrc;

namespace {

struct BuildNest {
  std::string name;
  NestSpec nest;
};

NestSpec parse(const std::string& text) { return parse_nest_program(text + "body { }\n").nest; }

std::vector<BuildNest> build_nests() {
  std::vector<BuildNest> out = {
      {"tri", parse("params N\nloop i = 0 .. N - 1\nloop j = i + 1 .. N\n")},
      {"lower", parse("params N\nloop i = 0 .. N\nloop j = 0 .. i + 1\n")},
      {"tetra", parse("params N\nloop i = 0 .. N - 1\nloop j = 0 .. i + 1\nloop k = j .. i + 1\n")},
      {"simplex3", parse("params N\nloop i = 0 .. N\nloop j = i .. N\nloop k = j .. N\n")},
      {"simplex4",
       parse("params N\nloop i = 0 .. N\nloop j = i .. N\nloop k = j .. N\nloop l = k .. N\n")},
      {"simplex4sh", parse("params N\nloop i = 3 .. N + 3\nloop j = i - 2 .. N + 3\n"
                           "loop k = j .. N + 4\nloop l = k .. N + 5\n")},
      {"rect", parse("params N M\nloop i = 0 .. N\nloop j = 0 .. M\n")},
      {"skew", parse("params T N\nloop i = 0 .. T\nloop j = i .. N + 2*i\n")},
      {"c2a", parse("params N\nloop i = 0 .. N\nloop j = i + 16 .. N + 32\n")},
      {"c2b", parse("params N\nloop i = 0 .. N\nloop j = 16 .. i + 33\n")},
      {"c3a", parse("params N\nloop i = 0 .. N\nloop j = i .. N + 4\nloop k = j .. N + 6\n")},
      {"c3b", parse("params N\nloop i = 0 .. N\nloop j = 0 .. i + 1\nloop k = j + 6 .. i + 13\n")},
      {"c4a",
       parse("params N\nloop i = 0 .. N\nloop j = i .. N\nloop k = j .. N\nloop l = k .. N + 1\n")},
      {"c4b", parse("params N\nloop i = 0 .. N\nloop j = i .. N + 1\nloop k = j .. N + 1\n"
                    "loop l = k .. N + 1\n")},
  };
  for (int s : {0, 1, 2, 4, 8, 14, 16, 20, 32, 64}) {
    const std::string sh = std::to_string(s);
    out.push_back({"quartic_s" + sh,
                   parse("params N\nloop i = 0 .. N\nloop j = i .. N + " + sh +
                         "\nloop k = j .. N + " + sh + "\nloop l = k .. N + " + sh + "\n")});
  }
  return out;
}

constexpr const char* kStages[] = {"ranking", "formulas", "bind", "collapse"};
constexpr int kNumStages = 4;

constexpr int kMinBuilds = 8;
constexpr double kMinBatchUs = 4000;

using Clock = std::chrono::steady_clock;
double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Mean microseconds of `timed()` over a batch of at least kMinBuilds
/// calls and kMinBatchUs of summed time; `setup()` runs untimed before
/// each call.
template <class Setup, class Timed>
double batch_mean_us(Setup&& setup, Timed&& timed) {
  double total = 0;
  int n = 0;
  while (n < kMinBuilds || total < kMinBatchUs) {
    setup();
    const auto t0 = Clock::now();
    timed();
    total += us_since(t0);
    ++n;
  }
  return total / n;
}

/// One sample of every stage of `bn`'s cold build: microseconds each.
std::vector<double> time_stages(const BuildNest& bn) {
  std::vector<double> us(kNumStages, 0.0);
  const NestSpec& nest = bn.nest;
  const auto none = [] {};

  us[0] = batch_mean_us(none, [&] { (void)build_ranking_system(nest); });

  const RankingSystem rs = build_ranking_system(nest);
  std::vector<LevelFormula> levels;
  us[1] = batch_mean_us(none, [&] { levels = build_level_formulas(rs, 4); });

  Collapsed col;
  us[3] = batch_mean_us(none, [&] { col = collapse(nest); });
  for (int k = 0; k < nest.depth(); ++k)
    if (col.levels()[static_cast<size_t>(k)].coeffs != levels[static_cast<size_t>(k)].coeffs) {
      std::fprintf(stderr, "FAIL: %s level %d: staged equation differs from collapse()\n",
                   bn.name.c_str(), k);
      std::exit(1);
    }

  ParamMap params;
  for (const auto& p : nest.params()) params[p] = 64;
  i64 trip = 0;
  us[2] = batch_mean_us([&] { col = collapse(nest); },
                        [&] { trip = col.bind(params).trip_count(); });
  if (trip <= 0) std::exit(1);
  return us;
}

struct Stat {
  double min, median, max;
};

Stat stat(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v.front(), v[v.size() / 2], v.back()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::Args::parse(argc, argv);
  const int trials = std::max(1, args.trials);
  const std::vector<BuildNest> nests = build_nests();

  // samples[nest][stage][trial]; trials interleave the nests so a burst
  // of host noise spreads over all of them.
  std::vector<std::vector<std::vector<double>>> samples(
      nests.size(), std::vector<std::vector<double>>(kNumStages));
  for (const BuildNest& bn : nests) (void)time_stages(bn);  // warm-up
  for (int t = 0; t < trials; ++t)
    for (size_t i = 0; i < nests.size(); ++i) {
      const std::vector<double> us = time_stages(nests[i]);
      for (int s = 0; s < kNumStages; ++s) samples[i][static_cast<size_t>(s)].push_back(us[s]);
    }

  std::printf(
      "cold build, median of %d trials, microseconds per stage (each trial the mean of a batch "
      "of >= %d builds and >= %.0f us)\n",
      trials, kMinBuilds, kMinBatchUs);
  std::printf("%-12s", "nest");
  for (const char* s : kStages) std::printf(" %11s", s);
  std::printf("\n");
  bench::rule(12 + 12 * kNumStages);
  for (size_t i = 0; i < nests.size(); ++i) {
    std::printf("%-12s", nests[i].name.c_str());
    for (int s = 0; s < kNumStages; ++s)
      std::printf(" %11.1f", stat(samples[i][static_cast<size_t>(s)]).median);
    std::printf("\n");
  }
  bench::rule(12 + 12 * kNumStages);
  std::printf(
      "stages: ranking system, level formulas, bind (all parameters 64);\n"
      "collapse = the whole build (with its model-check walk), timed separately.\n");

  const std::string out_path = args.out.empty() ? "BENCH_build.json" : args.out;
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"cold_build\",\n  \"unit\": \"us\",\n"
               "  \"stat\": \"[min, median, max] over trials of each trial's batch mean\",\n"
               "  \"trials\": %d,\n  \"batch_min_builds\": %d,\n  \"batch_min_us\": %.0f,\n"
               "  %s,\n  \"nests\": [\n",
               trials, kMinBuilds, kMinBatchUs, bench::provenance_json().c_str());
  for (size_t i = 0; i < nests.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"depth\": %d, \"stages\": {", nests[i].name.c_str(),
                 nests[i].nest.depth());
    for (int s = 0; s < kNumStages; ++s) {
      const Stat st = stat(samples[i][static_cast<size_t>(s)]);
      std::fprintf(f, "%s\"%s\": [%.1f, %.1f, %.1f]", s ? ", " : "", kStages[s], st.min,
                   st.median, st.max);
    }
    std::fprintf(f, "}}%s\n", i + 1 < nests.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// serving_hammer — multi-client load test of the plan-serving layer,
// with an enforced SLO.
//
// Three phases:
//
//   1. Throughput: T threads hammer the full protocol path
//      (serve::handle_request -> PlanCache::get_keyed -> describe) over
//      a small hot set of domains, primed through handle_request, in a
//      fixed window of hits only (thread start, priming and warm-up
//      stay outside it).  Reports requests/s, request p50/p99 and the
//      cache hit rate.
//
//   2. Head-of-line SLO: a single-shard cache serves a pre-cached hot
//      domain while builder threads continuously force COLD quartic
//      plans (shifted 4-deep simplex nests, each a distinct structure,
//      ~tens of ms of collapse+bind apiece) through the SAME shard.
//      Before the future-based miss path, every hit queued behind the
//      in-flight build (~21 ms head-of-line for a ~1 µs hit); now the
//      shard lock is held for map surgery only.  The enforced floor:
//
//        p99(contended hits)  <=  max(10 x p99(uncontended hits),
//                                     NRC_SLO_FLOOR_NS [default 500 µs])
//
//      The absolute allowance keeps scheduler jitter on small CI
//      runners from failing the ratio when the uncontended p99 is
//      sub-microsecond; the old build-under-the-lock behavior sits 1-2
//      orders of magnitude above it either way.
//
//   3. Warm KernelCache: the jitrun verb's steady state — one cold
//      out-of-process compile, then same-key requests as shared-future
//      hits (p50/p99), plus the restart path through the on-disk object
//      cache (render + dlopen, no compile).  Reported and written to
//      the JSON, not SLO-gated; skipped with a note when no C toolchain
//      is present.
//
//   4. Hit path per verb: serve::handle_request latency p50/p99 for
//      describe, run, emit and lint on one hot (primed) key per depth
//      2-4, each of 5k-50k iterations like the benchmark's serve keys.
//      One client, the run verb at omp_get_max_threads() threads (nrcd
//      under benchmark/ runs with OMP_NUM_THREADS=1); each trial's
//      percentiles are reported as median, min and max over --trials.
//      Reported, not gated.
//
// Emits BENCH_serving.json (bench/trajectory.py renders the serving
// table from it) and exits non-zero when the SLO fails — the CI
// perf-trajectory leg runs this binary, so the floor is enforced on
// the avx2 runner.
//
// Flags/env: bench_util.hpp (--threads, --trials, --out) plus
// NRC_SLO_FLOOR_NS.
//
// --smoke: a fast functional pass (~1/10th the request volume, one
// trial, SLO reported but not enforced) for sanitizer CI legs — under
// TSan the latency numbers mean nothing, but the thread choreography is
// exactly the production contention pattern, which is what the race
// detector needs to see.

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "nrcollapse.hpp"

using namespace nrc;

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

i64 percentile(std::vector<i64>& ns, double p) {
  if (ns.empty()) return 0;
  const size_t k = std::min(ns.size() - 1, static_cast<size_t>(p * static_cast<double>(ns.size())));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k), ns.end());
  return ns[k];
}

/// The paper's Fig. 1 triangular shape: a ~1 µs quadratic bind, the
/// serving hot key.
NestSpec triangular(i64 /*unused*/ = 0) {
  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N") - 1)
      .loop("j", aff::v("i") + 1, aff::v("N"));
  return nest;
}

/// A 4-deep simplex whose outermost level equation is quartic — the
/// most expensive bind in the kernel set.  `shift` perturbs the
/// innermost upper bound so every value is a DISTINCT nest structure:
/// a guaranteed cold collapse+bind (no symbolic reuse).
NestSpec shifted_simplex4(i64 shift) {
  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"))
      .loop("k", aff::v("j"), aff::v("N"))
      .loop("l", aff::v("k"), aff::v("N") + shift);
  return nest;
}

const char* kHotCFor = R"(
for (i = 0; i < N - 1; i++)
  for (j = i + 1; j < N; j++) {
    /* body */;
  }
)";

/// Phase 4's hot keys: one per depth, 5k-50k iterations each.
struct HitKey {
  const char* name;
  int depth;
  const char* cfor;
  i64 n;
};
const HitKey kHitKeys[] = {
    {"triangular", 2, kHotCFor, 300},
    {"tetrahedral", 3,
     "for (i = 0; i < N; i++)\n"
     "  for (j = i; j < N; j++)\n"
     "    for (k = j; k < N; k++) { /* body */; }\n",
     60},
    {"simplex4", 4,
     "for (i = 0; i < N; i++)\n"
     "  for (j = i; j < N; j++)\n"
     "    for (k = j; k < N; k++)\n"
     "      for (l = k; l < N; l++) { /* body */; }\n",
     25},
};
const char* const kHitVerbs[] = {"describe", "run", "emit", "lint"};

/// "[median, min, max]" of one percentile's per-trial values, in ns.
std::string median_min_max(std::vector<i64> v) {
  std::sort(v.begin(), v.end());
  return "[" + std::to_string(v[v.size() / 2]) + ", " + std::to_string(v.front()) + ", " +
         std::to_string(v.back()) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before the shared parser sees (and rejects) it.
  bool smoke = false;
  std::vector<char*> fwd;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else
      fwd.push_back(argv[i]);
  }
  bench::Args args = bench::Args::parse(static_cast<int>(fwd.size()), fwd.data());
  i64 slo_floor_ns = 500000;
  if (const char* e = std::getenv("NRC_SLO_FLOOR_NS")) slo_floor_ns = std::atoll(e);

  std::printf("serving_hammer: plan-serving layer under multi-client load%s\n",
              smoke ? " (smoke mode)" : "");
  bench::rule();

  // ------------------------------------------------- phase 1: throughput
  // T protocol clients over a hot set of 8 parameterizations of the
  // triangular nest.  Each key is primed through handle_request (nrcd's
  // entries are keyed on the request text, so priming through the
  // library API would not cover them), every client warms up, and then
  // all clients run for one fixed window: thread start and the cold
  // builds stay outside it, and every timed request is a hit.
  const int clients = std::max(1, std::min(args.threads, 8));
  const int kHotParams = 8;
  const int kWarmupPerClient = smoke ? 20 : 200;
  const i64 window_ns = smoke ? 20'000'000 : 300'000'000;
  PlanCache front(64, 16);
  std::vector<serve::Request> hot(static_cast<size_t>(kHotParams));
  for (int p = 0; p < kHotParams; ++p) {
    serve::Request& req = hot[static_cast<size_t>(p)];
    req.verb = "describe";
    req.nest_text = kHotCFor;
    req.params = {{"N", 1000 + 100 * p}};
    (void)serve::handle_request(front, req);
  }
  const PlanCacheStats primed = front.stats();

  std::vector<std::vector<i64>> lat(static_cast<size_t>(clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false}, stop{false};
  double phase1_s = 0;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t)
      threads.emplace_back([&, t] {
        auto& mine = lat[static_cast<size_t>(t)];
        mine.reserve(1 << 18);
        auto serve_one = [&](int r, bool timed) {
          const serve::Request& req = hot[static_cast<size_t>((r + t) % kHotParams)];
          const i64 t0 = now_ns();
          const serve::Response resp = serve::handle_request(front, req);
          if (timed) mine.push_back(now_ns() - t0);
          if (!resp.ok || resp.outcome != "hit") {
            std::fprintf(stderr, "FAIL: phase 1 request %s: %s", resp.outcome.c_str(),
                         resp.payload.c_str());
            std::exit(1);
          }
        };
        for (int r = 0; r < kWarmupPerClient; ++r) serve_one(r, false);
        ++ready;
        while (!go.load()) std::this_thread::yield();
        for (int r = 0; !stop.load(std::memory_order_relaxed); ++r) serve_one(r, true);
      });
    while (ready.load() < clients) std::this_thread::yield();
    const i64 t_phase1 = now_ns();
    go = true;
    std::this_thread::sleep_for(std::chrono::nanoseconds(window_ns));
    stop = true;
    for (auto& th : threads) th.join();
    phase1_s = static_cast<double>(now_ns() - t_phase1) / 1e9;
  }
  std::vector<i64> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  const double requests_per_s = static_cast<double>(all.size()) / phase1_s;
  const i64 p50_req = percentile(all, 0.50);
  const i64 p99_req = percentile(all, 0.99);
  PlanCacheStats fs = front.stats();  // the window and the warm-up, not the priming
  fs.hits -= primed.hits;
  fs.misses -= primed.misses;
  const double hit_rate =
      fs.lookups() ? static_cast<double>(fs.hits) / static_cast<double>(fs.lookups()) : 0.0;

  std::printf("%-34s %12.0f req/s   (%zu hits in %.0f ms, %d clients)\n",
              "protocol throughput (describe)", requests_per_s, all.size(), phase1_s * 1e3,
              clients);
  std::printf("%-34s %9.1f us   p99 %9.1f us\n", "request latency p50",
              static_cast<double>(p50_req) / 1e3, static_cast<double>(p99_req) / 1e3);
  std::printf("%-34s %11.1f %%   (%lld hits / %lld lookups)\n", "cache hit rate",
              100.0 * hit_rate, static_cast<long long>(fs.hits),
              static_cast<long long>(fs.lookups()));
  bench::rule();

  // ----------------------------------- phase 2: head-of-line SLO (1 shard)
  // Min-merged over --trials passes (the repo's convention for riding
  // out interference bursts on shared CI hosts).
  const int kBuilders = 2;
  const int kColdBuildsPerBuilder = smoke ? 3 : 12;
  const int kUncSamples = smoke ? 2000 : 20000;
  // Builders keep going past their quota until the hitter holds this many
  // contended samples: with fast cold builds the quota alone can finish
  // before the hitter's first sample, and an empty sample set has no p99.
  const int kMinContSamples = smoke ? 200 : 2000;
  const i64 kHotN = 3000;
  const int trials = smoke ? 1 : std::max(1, args.trials);
  i64 best_unc = -1, best_cont = -1;
  i64 cold_ns_sum = 0, cold_builds = 0;
  // Each shift is one more distinct cold quartic structure, across trials too.
  std::atomic<i64> shift_counter{0};

  for (int trial = 0; trial < trials; ++trial) {
    PlanCache shard(8, 1);  // one shard: every key contends by construction
    shard.get(triangular(), {{"N", kHotN}});

    // Uncontended hit p99.
    std::vector<i64> unc;
    unc.reserve(static_cast<size_t>(kUncSamples));
    for (int r = 0; r < kUncSamples; ++r) {
      const i64 t0 = now_ns();
      (void)shard.get_with_outcome(triangular(), {{"N", kHotN}});
      unc.push_back(now_ns() - t0);
    }

    // Contended: builders force distinct cold quartic plans through the
    // same (only) shard while one hitter hammers the hot key.
    std::atomic<int> builders_left{kBuilders};
    std::atomic<int> cont_taken{0};
    std::vector<std::thread> builders;
    std::atomic<i64> trial_cold_ns{0};
    std::atomic<i64> trial_cold_n{0};
    for (int b = 0; b < kBuilders; ++b)
      builders.emplace_back([&] {
        for (int i = 0; i < kColdBuildsPerBuilder || cont_taken.load() < kMinContSamples; ++i) {
          const i64 shift = shift_counter.fetch_add(1);
          const i64 t0 = now_ns();
          const GetResult r = shard.get_with_outcome(shifted_simplex4(shift), {{"N", 40}});
          trial_cold_ns += now_ns() - t0;
          ++trial_cold_n;
          if (r.outcome != GetOutcome::ColdBuild) {
            std::fprintf(stderr, "FAIL: expected a cold build, got %s\n",
                         get_outcome_name(r.outcome));
            std::exit(1);
          }
        }
        --builders_left;
      });

    std::vector<i64> cont;
    cont.reserve(1 << 18);
    while (builders_left.load() > 0) {
      const i64 t0 = now_ns();
      (void)shard.get_with_outcome(triangular(), {{"N", kHotN}});
      cont.push_back(now_ns() - t0);
      ++cont_taken;
    }
    for (auto& th : builders) th.join();

    const i64 p99u = percentile(unc, 0.99);
    const i64 p99c = percentile(cont, 0.99);
    if (best_unc < 0 || p99u < best_unc) best_unc = p99u;
    if (best_cont < 0 || p99c < best_cont) best_cont = p99c;
    cold_ns_sum += trial_cold_ns.load();
    cold_builds += trial_cold_n.load();
    std::printf("trial %d: hit p99 %8.2f us uncontended, %8.2f us under %lld cold builds "
                "(%zu contended samples)\n",
                trial, static_cast<double>(p99u) / 1e3, static_cast<double>(p99c) / 1e3,
                static_cast<long long>(trial_cold_n.load()), cont.size());
  }

  const double cold_build_ms =
      cold_builds ? static_cast<double>(cold_ns_sum) / static_cast<double>(cold_builds) / 1e6
                  : 0.0;
  const double ratio =
      best_unc > 0 ? static_cast<double>(best_cont) / static_cast<double>(best_unc) : 0.0;
  const i64 slo_ns = std::max(10 * best_unc, slo_floor_ns);
  const bool slo_ok = best_cont <= slo_ns;

  bench::rule();
  std::printf("%-34s %9.2f us\n", "hit p99, uncontended", static_cast<double>(best_unc) / 1e3);
  std::printf("%-34s %9.2f us   (%.1fx; mean cold build %.1f ms)\n",
              "hit p99, cold binds in flight", static_cast<double>(best_cont) / 1e3, ratio,
              cold_build_ms);
  std::printf("%-34s %9.2f us   -> %s\n", "SLO: p99 <= max(10x, floor)",
              static_cast<double>(slo_ns) / 1e3, slo_ok ? "OK" : "FAIL");
  bench::rule();

  // ------------------------------ phase 3: warm KernelCache (jit serving)
  // The jitrun verb's steady state: one out-of-process compile, then
  // every same-key request is a shared-future cache hit.  Reported (and
  // written to the JSON for the trajectory), not SLO-gated: the compile
  // is a one-time entry fee the cost model amortizes, and the
  // no-toolchain configuration has its own CI leg.  The disk-reuse line
  // is what an nrcd restart pays — render + dlopen, no compile.
  const bool jit_avail = jit::toolchain_available();
  double jit_compile_ms = 0, jit_disk_ms = 0;
  i64 jit_p50 = 0, jit_p99 = 0;
  if (jit_avail) {
    const auto plan = CollapsePlan::build(triangular(), {{"N", kHotN}});
    const Schedule js = Schedule::per_thread();
    KernelCache kc(8, 2);
    JitOptions jopt;
    jopt.use_disk_cache = false;
    {
      const i64 t0 = now_ns();
      const auto k = kc.get(plan, js, jopt);
      jit_compile_ms = static_cast<double>(now_ns() - t0) / 1e6;
      if (!k->compiled()) {
        std::fprintf(stderr, "FAIL: jit compile fell back: %s\n", k->status().c_str());
        return 1;
      }
    }
    const int kJitSamples = smoke ? 2000 : 20000;
    std::vector<i64> jhits;
    jhits.reserve(static_cast<size_t>(kJitSamples));
    for (int r = 0; r < kJitSamples; ++r) {
      const i64 t0 = now_ns();
      (void)kc.get(plan, js, jopt);
      jhits.push_back(now_ns() - t0);
    }
    jit_p50 = percentile(jhits, 0.50);
    jit_p99 = percentile(jhits, 0.99);

    char templ[] = "/tmp/nrc_hammer_jit_XXXXXX";
    if (::mkdtemp(templ) != nullptr) {
      JitOptions disk;
      disk.cache_dir = templ;
      (void)JitKernel::build(plan, js, disk);  // populate the object cache
      const i64 t0 = now_ns();
      const auto k2 = JitKernel::build(plan, js, disk);
      jit_disk_ms = static_cast<double>(now_ns() - t0) / 1e6;
      if (!k2->info().from_disk)
        std::fprintf(stderr, "note: disk reuse was not served from the object cache\n");
      std::system(("rm -rf " + std::string(templ)).c_str());
    }

    std::printf("%-34s %9.2f ms   (one-time, out of process)\n", "jit cold compile",
                jit_compile_ms);
    std::printf("%-34s %9.2f us   p99 %9.2f us\n", "jit warm hit p50",
                static_cast<double>(jit_p50) / 1e3, static_cast<double>(jit_p99) / 1e3);
    std::printf("%-34s %9.2f ms   (render + dlopen, no compile)\n",
                "jit restart via disk cache", jit_disk_ms);
    std::printf("%s\n", kc.stats_line().c_str());
  } else {
    std::printf("jit kernel serving: skipped (no C toolchain)\n");
  }

  bench::rule();

  // ------------------------------------- phase 4: hit path per verb
  const int kHitSamples = smoke ? 40 : 400;
  const int omp_threads = omp_get_max_threads();
  constexpr size_t kNumKeys = std::size(kHitKeys);
  constexpr size_t kNumVerbs = std::size(kHitVerbs);
  // [key][verb][trial]
  std::vector<i64> hit_p50[kNumKeys][kNumVerbs], hit_p99[kNumKeys][kNumVerbs];
  PlanCache hits(64, 16);
  for (int trial = 0; trial < trials; ++trial) {
    for (size_t k = 0; k < kNumKeys; ++k) {
      for (size_t v = 0; v < kNumVerbs; ++v) {
        serve::Request req;
        req.verb = kHitVerbs[v];
        req.params = {{"N", kHitKeys[k].n}};
        req.nest_text = kHitKeys[k].cfor;
        const serve::Response first = serve::handle_request(hits, req);  // primes the key
        std::vector<i64> ns;
        ns.reserve(static_cast<size_t>(kHitSamples));
        for (int r = 0; r < kHitSamples; ++r) {
          const i64 t0 = now_ns();
          const serve::Response resp = serve::handle_request(hits, req);
          ns.push_back(now_ns() - t0);
          if (!resp.ok || resp.outcome != "hit" ||
              (req.verb == "run" && resp.payload != first.payload)) {
            std::fprintf(stderr, "FAIL: %s on %s: %s %s", req.verb.c_str(), kHitKeys[k].name,
                         resp.outcome.c_str(), resp.payload.c_str());
            return 1;
          }
        }
        hit_p50[k][v].push_back(percentile(ns, 0.50));
        hit_p99[k][v].push_back(percentile(ns, 0.99));
      }
    }
  }
  std::printf("hit path per verb (handle_request, %d omp threads, median over %d trials)\n",
              omp_threads, trials);
  for (size_t k = 0; k < kNumKeys; ++k) {
    std::printf("  %-12s d%d  N=%-4lld", kHitKeys[k].name, kHitKeys[k].depth,
                static_cast<long long>(kHitKeys[k].n));
    for (size_t v = 0; v < kNumVerbs; ++v) {
      std::vector<i64> p50 = hit_p50[k][v];
      std::printf("  %s p50 %7.1f us", kHitVerbs[v],
                  static_cast<double>(percentile(p50, 0.50)) / 1e3);
    }
    std::printf("\n");
  }

  const std::string out = args.out.empty() ? "BENCH_serving.json" : args.out;
  if (FILE* f = std::fopen(out.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"serving_hammer\",\n");
    std::fprintf(f, "  %s,\n", bench::provenance_json().c_str());
    std::fprintf(f, "  \"clients\": %d,\n", clients);
    std::fprintf(f, "  \"requests_per_s\": %.1f,\n", requests_per_s);
    std::fprintf(f, "  \"window_ms\": %.1f,\n", phase1_s * 1e3);
    std::fprintf(f, "  \"p50_request_ns\": %lld,\n", static_cast<long long>(p50_req));
    std::fprintf(f, "  \"p99_request_ns\": %lld,\n", static_cast<long long>(p99_req));
    std::fprintf(f, "  \"hit_rate\": %.4f,\n", hit_rate);
    std::fprintf(f, "  \"slo\": {\n");
    std::fprintf(f, "    \"p99_hit_uncontended_ns\": %lld,\n", static_cast<long long>(best_unc));
    std::fprintf(f, "    \"p99_hit_contended_ns\": %lld,\n", static_cast<long long>(best_cont));
    std::fprintf(f, "    \"contended_over_uncontended\": %.2f,\n", ratio);
    std::fprintf(f, "    \"cold_build_ms_mean\": %.2f,\n", cold_build_ms);
    std::fprintf(f, "    \"floor_ns\": %lld,\n", static_cast<long long>(slo_floor_ns));
    std::fprintf(f, "    \"ok\": %s\n", slo_ok ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"jit\": {\n");
    std::fprintf(f, "    \"available\": %s,\n", jit_avail ? "true" : "false");
    std::fprintf(f, "    \"compile_ms\": %.2f,\n", jit_compile_ms);
    std::fprintf(f, "    \"warm_hit_p50_ns\": %lld,\n", static_cast<long long>(jit_p50));
    std::fprintf(f, "    \"warm_hit_p99_ns\": %lld,\n", static_cast<long long>(jit_p99));
    std::fprintf(f, "    \"disk_restart_ms\": %.2f\n", jit_disk_ms);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"hit_path\": {\n");
    std::fprintf(f, "    \"omp_threads\": %d,\n", omp_threads);
    std::fprintf(f, "    \"samples_per_trial\": %d,\n", kHitSamples);
    std::fprintf(f, "    \"trials\": %d,\n", trials);
    std::fprintf(f,
                 "    \"stat\": \"[median, min, max] over trials of each trial's "
                 "percentile, ns\",\n");
    std::fprintf(f, "    \"keys\": [\n");
    for (size_t k = 0; k < kNumKeys; ++k) {
      std::fprintf(f, "      {\"name\": \"%s\", \"depth\": %d, \"N\": %lld, \"verbs\": {",
                   kHitKeys[k].name, kHitKeys[k].depth, static_cast<long long>(kHitKeys[k].n));
      for (size_t v = 0; v < kNumVerbs; ++v)
        std::fprintf(f, "%s\"%s\": {\"p50_ns\": %s, \"p99_ns\": %s}", v ? ", " : "",
                     kHitVerbs[v], median_min_max(hit_p50[k][v]).c_str(),
                     median_min_max(hit_p99[k][v]).c_str());
      std::fprintf(f, "}}%s\n", k + 1 < kNumKeys ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out.c_str());
    return 1;
  }

  if (!slo_ok && smoke) {
    std::fprintf(stderr,
                 "note: SLO miss ignored in smoke mode (sanitizer instrumentation "
                 "skews latency)\n");
    return 0;
  }
  if (!slo_ok) {
    std::fprintf(stderr,
                 "FAIL: contended hit p99 %.2f us exceeds the SLO %.2f us "
                 "(uncontended p99 %.2f us; cached hits are queueing behind cold binds)\n",
                 static_cast<double>(best_cont) / 1e3, static_cast<double>(slo_ns) / 1e3,
                 static_cast<double>(best_unc) / 1e3);
    return 1;
  }
  return 0;
}

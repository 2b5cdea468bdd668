// Randomized differential fuzzer for the JIT leg: every specialized
// kernel the JIT compiles must visit exactly the iteration multiset of
// the nest it was specialized from.  Drives JitKernel::build over the
// same seeded random nests the recovery and executor fuzzers use
// (testutil::make_fuzz_nest: triangular/tiled/skewed/degenerate), then
// diffs both entry points against the sequential odometer reference:
// run() as visit count + order-insensitive checksum + exact tuple
// multiset on small domains, fill() as the exact rank-ordered buffer
// (small domains) or its checksum (large ones).
//
// Budget: a JIT build is an out-of-process `cc -O2` (~100-300 ms), so
// the fast slice compiles a handful of kernels per fuzz class under
// two schedules (label tier1, suite JitFuzz); the long slice
// (suite JitFuzzLong, labels tier1;long, NRC_JIT_FUZZ_DOMAINS compiles
// per class) rotates the full schedule matrix and rides the
// push-to-main CI sanitize leg under ASan/UBSan.
//
// No toolchain is a graceful skip, not a failure: the library fallback
// path is covered by jit_kernel_test.cpp, and the no-toolchain CI leg
// proves tier-1 stays green without a compiler.
//
// Reproducing a failure: assertion messages carry the standard
// "class=<name> seed=<decimal>" line; rebuild that exact nest with
// testutil::make_fuzz_nest(cls, seed).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "jit/jit_kernel.hpp"
#include "jit/toolchain.hpp"
#include "support/error.hpp"

namespace nrc {
namespace {

using testutil::DomainObservation;
using testutil::FuzzClass;
using testutil::FuzzNest;

i64 env_i64(const char* name, i64 fallback) {
  const char* e = std::getenv(name);
  return e && *e ? std::atoll(e) : fallback;
}

struct JitFuzzTally {
  i64 compiled = 0;      ///< kernels built and differentially checked
  i64 skipped_plan = 0;  ///< open-form / refused-certificate skips
};

/// Differentially check one compiled kernel against the odometer.
void check_kernel(const JitKernel& k, const FuzzNest& fc, const char* sched_name) {
  const DomainObservation ref = testutil::odometer_reference(k.plan().eval());
  testutil::SchemeCollector col(ref.track_tuples);
  k.run([&](std::span<const i64> idx) { col.visit(idx); });
  EXPECT_TRUE(col.compare(ref))
      << fc.repro() << "jit run diverges, schedule=" << sched_name;

  const i64 total = k.trip_count();
  const size_t d = static_cast<size_t>(k.depth());
  std::vector<i64> buf(static_cast<size_t>(total) * d);
  ASSERT_EQ(k.fill(buf), total) << fc.repro();
  if (ref.track_tuples) {
    // Small domain: fill()'s rank order must equal recover() exactly.
    const CollapsedEval& cn = k.plan().eval();
    std::vector<i64> want(d);
    for (i64 pc = 1; pc <= total; ++pc) {
      cn.recover(pc, want);
      for (size_t j = 0; j < d; ++j)
        ASSERT_EQ(buf[static_cast<size_t>(pc - 1) * d + j], want[j])
            << fc.repro() << "jit fill diverges at pc=" << pc
            << ", schedule=" << sched_name;
    }
  } else {
    // Large domain: the buffer's tuple checksum must still match.
    u64 checksum = 0;
    for (i64 pc = 0; pc < total; ++pc)
      checksum += testutil::tuple_mix(
          std::span<const i64>(buf.data() + static_cast<size_t>(pc) * d, d));
    EXPECT_EQ(checksum, ref.checksum)
        << fc.repro() << "jit fill checksum diverges, schedule=" << sched_name;
  }
}

/// Build + check one fuzz nest under one schedule.  Returns 1 when a
/// kernel was actually compiled and checked, 0 on any skip.
int fuzz_one(const FuzzNest& fc, const Schedule& s, const char* sched_name,
             JitFuzzTally* tally) {
  if (fc.expect_empty) return 0;
  // One bind per nest keeps the out-of-process compile budget bounded:
  // the largest guaranteed-valid N exercises the deepest recovery.
  ParamMap pm = fc.fixed_params;
  pm["N"] = testutil::fuzz_bind_values(fc).back();
  CollapseOptions opts;
  opts.model_params = fc.model_params;
  std::shared_ptr<const CollapsePlan> plan;
  try {
    plan = CollapsePlan::build(fc.nest, pm, opts);
  } catch (const Error&) {
    return 0;  // the domain is empty/rejected at this bind
  }
  if (!plan->collapsed().fully_closed_form()) {
    ++tally->skipped_plan;
    return 0;
  }
  JitOptions jopt;
  jopt.use_disk_cache = false;
  auto k = JitKernel::build(plan, s, jopt);
  if (!k->compiled()) {
    const std::string& why = k->info().fallback_reason;
    // Plan-side refusals (overflow-certified nests, no closed form at
    // emit time) are legitimate skips; with a working toolchain, an
    // actual compile/dlopen failure on emitted C is a codegen bug.
    if (why.find("analyzer certificate") != std::string::npos ||
        why.rfind("emit:", 0) == 0) {
      ++tally->skipped_plan;
      return 0;
    }
    ADD_FAILURE() << fc.repro() << "jit build fell back: " << k->status()
                  << ", schedule=" << sched_name;
    return 0;
  }
  check_kernel(*k, fc, sched_name);
  ++tally->compiled;
  return 1;
}

// ------------------------------------------------------- fast slice

TEST(JitFuzz, DifferentialFast) {
  if (!jit::toolchain_available())
    GTEST_SKIP() << "no C compiler (" << jit::resolve_compiler()
                 << "): jit differential leg skipped";
  const i64 per_class = env_i64("NRC_JIT_FUZZ_FAST_COMPILES", 4);
  const Schedule scheds[] = {Schedule::per_thread(), Schedule::chunked(5)};
  const char* names[] = {"perthread", "chunked5"};
  JitFuzzTally tally;
  u64 base = 0x9100;
  for (const FuzzClass cls : testutil::kFuzzClasses) {
    i64 done = 0;
    u64 seed = base;
    base += 0x100;
    while (done < per_class) {
      const size_t which = static_cast<size_t>(seed % 2);
      done += fuzz_one(testutil::make_fuzz_nest(cls, seed), scheds[which],
                       names[which], &tally);
      ++seed;
      if (::testing::Test::HasFailure()) return;
    }
  }
  std::printf("[jit fuzz fast] compiled=%lld plan_skips=%lld\n",
              static_cast<long long>(tally.compiled),
              static_cast<long long>(tally.skipped_plan));
}

// ------------------------------------------- long slice (label: long)

TEST(JitFuzzLong, RotatingScheduleMatrix) {
  if (!jit::toolchain_available())
    GTEST_SKIP() << "no C compiler (" << jit::resolve_compiler()
                 << "): jit differential leg skipped";
  const i64 per_class = env_i64("NRC_JIT_FUZZ_DOMAINS", 40);
  const struct {
    Schedule s;
    const char* name;
  } matrix[] = {
      {Schedule::per_thread(), "perthread"},
      {Schedule::chunked(5), "chunked5"},
      {Schedule::per_iteration(), "periter"},
      {Schedule::simd_blocks(4), "simd4"},
      {Schedule::warp_sim(4), "warp4"},
      {Schedule::row_segments_chunked(8), "rowseg_chunked8"},
  };
  constexpr size_t kMatrix = sizeof(matrix) / sizeof(matrix[0]);
  JitFuzzTally tally;
  u64 base = 0xA200;
  for (const FuzzClass cls : testutil::kFuzzClasses) {
    i64 done = 0;
    u64 seed = base;
    base += 0x10000;
    while (done < per_class) {
      const size_t which = static_cast<size_t>(seed % kMatrix);
      done += fuzz_one(testutil::make_fuzz_nest(cls, seed), matrix[which].s,
                       matrix[which].name, &tally);
      ++seed;
      if (::testing::Test::HasFailure()) return;
    }
  }
  std::printf("[jit fuzz long] compiled=%lld plan_skips=%lld\n",
              static_cast<long long>(tally.compiled),
              static_cast<long long>(tally.skipped_plan));
}

}  // namespace
}  // namespace nrc

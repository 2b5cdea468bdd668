// Schedule descriptor + unified dispatcher: factory/validate/describe
// semantics, the auto_select heuristic, nrc::run body-shape dispatch
// (including its free tuple->segment/block adaptations and the
// SpecError on shapes no adaptation covers), and the emitter-side
// Schedule consumption (emission_style / emission_omp_schedule).
#include <gtest/gtest.h>

#include <omp.h>

#include "../test_util.hpp"
#include "codegen/c_emitter.hpp"
#include "pipeline/dispatch.hpp"
#include "pipeline/schedule.hpp"
#include "runtime/simd_abi.hpp"

namespace nrc {
namespace {

// ------------------------------------------------------------ descriptor

TEST(Schedule, FactoriesCarryTheirParameters) {
  EXPECT_EQ(Schedule::per_thread().scheme, Scheme::PerThread);
  EXPECT_EQ(Schedule::per_iteration(OmpSchedule::Dynamic).omp, OmpSchedule::Dynamic);
  EXPECT_EQ(Schedule::chunked(77).chunk, 77);
  EXPECT_EQ(Schedule::chunked(9, {}, OmpSchedule::Dynamic).omp, OmpSchedule::Dynamic);
  EXPECT_EQ(Schedule::row_segments_chunked(33).chunk, 33);
  EXPECT_EQ(Schedule::simd_blocks(16).vlen, 16);
  const Schedule sc = Schedule::simd_blocks_chunked(4, 128, {3});
  EXPECT_EQ(sc.vlen, 4);
  EXPECT_EQ(sc.chunk, 128);
  EXPECT_EQ(sc.cfg.threads, 3);
  EXPECT_EQ(Schedule::warp_sim(32).warp_size, 32);
  EXPECT_EQ(Schedule::serial_sim(12).serial_chunks, 12);
}

TEST(Schedule, ValidateThrowsExactlyWhereTheLegacyEntryPointsThrew) {
  EXPECT_THROW(Schedule::simd_blocks(0).validate(), SpecError);
  EXPECT_THROW(Schedule::simd_blocks(kMaxSimdLanes + 1).validate(), SpecError);
  EXPECT_THROW(Schedule::simd_blocks_chunked(0, 8).validate(), SpecError);
  EXPECT_THROW(Schedule::warp_sim(0).validate(), SpecError);
  // Non-positive chunks are documented fallbacks, not errors.
  EXPECT_NO_THROW(Schedule::chunked(0).validate());
  EXPECT_NO_THROW(Schedule::chunked(-5).validate());
  EXPECT_NO_THROW(Schedule::chunked(0, {}, OmpSchedule::Dynamic).validate());
  EXPECT_NO_THROW(Schedule::row_segments_chunked(0).validate());
}

TEST(Schedule, DescribeNamesSchemeAndParameters) {
  EXPECT_EQ(Schedule::per_thread().describe(), "per_thread()");
  EXPECT_EQ(Schedule::per_thread({8}).describe(), "per_thread(threads=8)");
  EXPECT_EQ(Schedule::per_iteration(OmpSchedule::Dynamic).describe(),
            "per_iteration(omp=dynamic)");
  EXPECT_EQ(Schedule::chunked(512).describe(), "chunked(chunk=512)");
  // Only the dynamic chunked flavour names its deal.
  EXPECT_EQ(Schedule::row_segments_chunked(64, {4}, OmpSchedule::Dynamic).describe(),
            "row_segments_chunked(chunk=64, omp=dynamic, threads=4)");
  // The simd schemes report the runtime leg so a log line pins down
  // which ABI actually ran (compile-time macros alone can't).
  const std::string abi = simd::runtime_abi();
  EXPECT_EQ(Schedule::simd_blocks(16).describe(), "simd_blocks(vlen=16, abi=" + abi + ")");
  EXPECT_EQ(Schedule::simd_blocks_chunked(8, 64, {2}).describe(),
            "simd_blocks_chunked(vlen=8, chunk=64, abi=" + abi + ", threads=2)");
  EXPECT_EQ(Schedule::warp_sim(32).describe(), "warp_sim(warp_size=32)");
  EXPECT_EQ(Schedule::serial_sim(12).describe(), "serial_sim(n_chunks=12)");
}

TEST(Schedule, DefaultChunkResolvesRealThreadCountAtZero) {
  // Regression: threads == 0 means "the OpenMP default", but
  // default_chunk used to fall into its np = 1 floor, sizing chunks for
  // a single thread (8 chunks total instead of 8 per thread) — every
  // auto-selected chunked schedule under the default RunConfig got ~np
  // times too coarse a partition for dynamic balancing.
  const i64 total = 1 << 17;  // small enough that the 4096 cap never bites
  const i64 at_zero = default_chunk(total, 0);
  const i64 at_default = default_chunk(total, omp_get_max_threads());
  EXPECT_EQ(at_zero, at_default);
  if (omp_get_max_threads() > 1) EXPECT_LT(at_zero, default_chunk(total, 1));
  // Explicit counts pin the exact partition: 32 chunks per thread.
  EXPECT_EQ(default_chunk(total, 4), total / (32 * 4));
  EXPECT_EQ(default_chunk(7, 4), 1);  // floor at one iteration
}

// ------------------------------------------------------------ auto_select

TEST(AutoSelect, TinyDomainOrOneThreadRunsSerial) {
  // One iteration or one thread: one row walk on the calling thread —
  // PerThread pinned to one thread.
  const Collapsed col = collapse(testutil::triangular_inclusive());
  const CollapsedEval tiny = col.bind({{"N", 1}});  // 1 iteration
  const Schedule::Choice t = Schedule::auto_select_with_cost(tiny);
  EXPECT_EQ(t.schedule.scheme, Scheme::PerThread);
  EXPECT_EQ(t.schedule.cfg.threads, 1);

  const CollapsedEval cn = col.bind({{"N", 400}});
  AutoSelectHints one_thread;
  one_thread.threads = 1;
  const Schedule::Choice o = Schedule::auto_select_with_cost(cn, one_thread);
  EXPECT_EQ(o.schedule.scheme, Scheme::PerThread);
  EXPECT_EQ(o.schedule.cfg.threads, 1);
}

TEST(AutoSelect, OneThreadPickIsTheRowWalkOnEveryFuzzClass) {
  // Over every fuzz class: the one-thread pick is never the Fig. 10
  // SerialSim protocol, and running it visits exactly the odometer's
  // tuple multiset.
  constexpr u64 kSeeds = 20;
  AutoSelectHints one_thread;
  one_thread.threads = 1;
  for (const testutil::FuzzClass cls : testutil::kFuzzClasses) {
    i64 domains = 0;
    for (u64 seed = 0x5100; seed < 0x5100 + kSeeds; ++seed) {
      const testutil::FuzzNest fc = testutil::make_fuzz_nest(cls, seed);
      if (fc.expect_empty) continue;
      CollapseOptions opts;
      opts.model_params = fc.model_params;
      const Collapsed col = collapse(fc.nest, opts);
      for (const i64 nv : testutil::fuzz_bind_values(fc)) {
        ParamMap p = fc.fixed_params;
        p["N"] = nv;
        const CollapsedEval cn = col.bind(p);
        const Schedule pick = Schedule::auto_select(cn, one_thread);
        const std::string where = fc.repro() + "N=" + std::to_string(nv) + " pick=" + pick.describe();
        ASSERT_NE(pick.scheme, Scheme::SerialSim) << where;
        EXPECT_EQ(pick.scheme, Scheme::PerThread) << where;
        EXPECT_EQ(pick.cfg.threads, 1) << where;
        const testutil::DomainObservation ref = testutil::odometer_reference(cn);
        ASSERT_TRUE(ref.track_tuples) << where;
        EXPECT_TRUE(testutil::run_scheme_differential(
            cn, ref, [&](auto&& visit) { run(cn, pick, visit); }))
            << where;
        ++domains;
      }
    }
    EXPECT_GT(domains, 0) << testutil::fuzz_class_name(cls);
  }
}

TEST(AutoSelect, SmallDomainUsesPerThread) {
  const Collapsed col = collapse(testutil::triangular_inclusive());
  const CollapsedEval cn = col.bind({{"N", 3}});  // 10 iterations
  AutoSelectHints h;
  h.threads = 8;  // 10 < 4 * 8
  const Schedule s = Schedule::auto_select(cn, h);
  EXPECT_EQ(s.scheme, Scheme::PerThread);
  EXPECT_EQ(s.cfg.threads, 8);
}

TEST(AutoSelect, CostlyRecoveryPrefersFewestRecoveries) {
  // simplex_5d's level 0 has degree 5: no closed form, binary-search
  // recovery — the costliest engine, so one recovery per thread wins.
  const Collapsed col = collapse(testutil::simplex_5d());
  const CollapsedEval cn = col.bind({{"N", 12}});
  ASSERT_EQ(cn.solver_kind(0), LevelSolverKind::Search);
  AutoSelectHints h;
  h.threads = 4;
  EXPECT_EQ(Schedule::auto_select(cn, h).scheme, Scheme::RowSegments);
}

TEST(AutoSelect, CheapClosedFormsTakeDynamicChunkedSegments) {
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 500}});
  AutoSelectHints h;
  h.threads = 4;
  const Schedule s = Schedule::auto_select(cn, h);
  EXPECT_EQ(s.scheme, Scheme::RowSegmentsChunked);
  EXPECT_EQ(s.omp, OmpSchedule::Dynamic);
  EXPECT_EQ(s.chunk, default_chunk(cn.trip_count(), 4));
}

TEST(AutoSelect, HighDegreeLevelsStayOnChunkedSegments) {
  // Cubic levels pay more per recovery; the chunk amortizes it.
  const Collapsed col = collapse(testutil::tetrahedral_fig6());
  const CollapsedEval cn = col.bind({{"N", 80}});
  AutoSelectHints h;
  h.threads = 4;
  EXPECT_EQ(Schedule::auto_select(cn, h).scheme, Scheme::RowSegmentsChunked);
}

TEST(AutoSelect, NeverPicksABlockScheme) {
  // The SIMD-block schemes run only when named explicitly.
  const std::pair<NestSpec, ParamMap> cases[] = {
      {testutil::triangular_strict(), {{"N", 500}}},
      {testutil::tetrahedral_fig6(), {{"N", 80}}},
      {testutil::simplex_4d(), {{"N", 30}}},
      {testutil::simplex_5d(), {{"N", 12}}},
  };
  for (const auto& [nest, params] : cases) {
    const CollapsedEval cn = collapse(nest).bind(params);
    for (const int t : {1, 2, 4, 8}) {
      AutoSelectHints h;
      h.threads = t;
      const Scheme s = Schedule::auto_select(cn, h).scheme;
      EXPECT_NE(s, Scheme::SimdBlocks) << nest.str() << " t=" << t;
      EXPECT_NE(s, Scheme::SimdBlocksChunked) << nest.str() << " t=" << t;
    }
  }
}

// --------------------------------------------------------------- dispatch

/// Every Schedule the matrix can produce, driven through nrc::run with
/// a tuple body, must visit the exact odometer multiset.
TEST(Dispatch, EverySchemeVisitsTheExactDomain) {
  const Collapsed col = collapse(testutil::tetrahedral_fig6());
  const CollapsedEval cn = col.bind({{"N", 9}});
  const auto ref = testutil::odometer_reference(cn);
  const i64 total = cn.trip_count();
  const Schedule schedules[] = {
      Schedule::per_iteration(OmpSchedule::Static, {3}),
      Schedule::per_iteration(OmpSchedule::Dynamic, {3}),
      Schedule::per_thread({3}),
      Schedule::chunked(7, {3}),
      Schedule::chunked(0, {3}),  // per-thread fallback
      Schedule::chunked(5, {3}, OmpSchedule::Dynamic),
      Schedule::row_segments_chunked(0, {3}, OmpSchedule::Dynamic),
      Schedule::row_segments({3}),
      Schedule::row_segments_chunked(11, {3}),
      Schedule::simd_blocks(4, {3}),
      Schedule::simd_blocks_chunked(4, total + 1, {3}),
      Schedule::warp_sim(6, {3}),
      Schedule::serial_sim(5),
  };
  for (const Schedule& s : schedules) {
    EXPECT_TRUE(testutil::run_scheme_differential(
        cn, ref, [&](auto&& visit) { run(cn, s, visit); }))
        << s.describe();
  }
}

TEST(Dispatch, SegmentBodyRunsNativeOnSegmentSchemes) {
  const Collapsed col = collapse(testutil::triangular_inclusive());
  const CollapsedEval cn = col.bind({{"N", 24}});
  i64 segment_calls = 0, visited = 0;
  run(cn, Schedule::row_segments({2}),
      [&](std::span<const i64> prefix, i64 j0, i64 j1) {
        (void)prefix;
#pragma omp atomic
        ++segment_calls;
#pragma omp atomic
        visited += j1 - j0;
      });
  EXPECT_EQ(visited, cn.trip_count());
  // Maximal runs: far fewer body calls than iterations.
  EXPECT_LE(segment_calls, 25 + 2);
}

TEST(Dispatch, SegmentBodyIsAcceptedByScalarRangeSchemes) {
  // A segment body on the scalar chunked scheme: the row walk produces
  // the same runs, so the adaptation is free and exact.
  const Collapsed col = collapse(testutil::triangular_inclusive());
  const CollapsedEval cn = col.bind({{"N", 24}});
  i64 visited = 0;
  run(cn, Schedule::chunked(13, {2}), [&](std::span<const i64>, i64 j0, i64 j1) {
#pragma omp atomic
    visited += j1 - j0;
  });
  EXPECT_EQ(visited, cn.trip_count());
}

TEST(Dispatch, TupleBodyIsAdaptedToBlockSchemes) {
  const Collapsed col = collapse(testutil::triangular_inclusive());
  const CollapsedEval cn = col.bind({{"N", 24}});
  const auto ref = testutil::odometer_reference(cn);
  EXPECT_TRUE(testutil::run_scheme_differential(cn, ref, [&](auto&& visit) {
    run(cn, Schedule::simd_blocks(8, {2}), visit);
  }));
}

TEST(Dispatch, MismatchedBodyShapeThrows) {
  const Collapsed col = collapse(testutil::triangular_inclusive());
  const CollapsedEval cn = col.bind({{"N", 8}});
  const auto block_body = [](int, const i64* const*) {};
  EXPECT_THROW(run(cn, Schedule::per_thread(), block_body), SpecError);
  EXPECT_THROW(run(cn, Schedule::per_iteration(), block_body), SpecError);
  EXPECT_THROW(run(cn, Schedule::warp_sim(4), block_body), SpecError);
  const auto segment_body = [](std::span<const i64>, i64, i64) {};
  EXPECT_THROW(run(cn, Schedule::per_iteration(), segment_body), SpecError);
  EXPECT_THROW(run(cn, Schedule::simd_blocks(4), segment_body), SpecError);
}

TEST(Dispatch, InvalidScheduleParametersThrow) {
  const Collapsed col = collapse(testutil::triangular_inclusive());
  const CollapsedEval cn = col.bind({{"N", 8}});
  const auto noop = [](std::span<const i64>) {};
  const auto block_noop = [](int, const i64* const*) {};
  EXPECT_THROW(run(cn, Schedule::simd_blocks(0), block_noop), SpecError);
  EXPECT_THROW(run(cn, Schedule::simd_blocks(kMaxSimdLanes + 1), noop), SpecError);
  EXPECT_THROW(run(cn, Schedule::warp_sim(0), noop), SpecError);
}

// ------------------------------------------------- emitter consumption

TEST(Emission, StyleMappingCoversEveryScheme) {
  EXPECT_EQ(emission_style(Schedule::per_iteration()), RecoveryStyle::PerIteration);
  EXPECT_EQ(emission_style(Schedule::per_thread()), RecoveryStyle::PerThread);
  EXPECT_EQ(emission_style(Schedule::row_segments()), RecoveryStyle::PerThread);
  EXPECT_EQ(emission_style(Schedule::serial_sim()), RecoveryStyle::PerThread);
  EXPECT_EQ(emission_style(Schedule::chunked(64)), RecoveryStyle::Chunked);
  EXPECT_EQ(emission_style(Schedule::row_segments_chunked(64)), RecoveryStyle::Chunked);
  // chunk <= 0 is the per-thread fallback at runtime, so the emission
  // lowers to the PerThread style — same descriptor, same scheme.
  EXPECT_EQ(emission_style(Schedule::chunked(0)), RecoveryStyle::PerThread);
  EXPECT_EQ(emission_style(Schedule::row_segments_chunked(-1)), RecoveryStyle::PerThread);
  EXPECT_EQ(emission_style(Schedule::simd_blocks(8)), RecoveryStyle::SimdBlocks);
  EXPECT_EQ(emission_style(Schedule::simd_blocks_chunked(8, 64)),
            RecoveryStyle::SimdBlocks);
  EXPECT_EQ(emission_style(Schedule::warp_sim(32)), RecoveryStyle::PerIteration);
}

TEST(Emission, OmpScheduleClauseFollowsTheSchedule) {
  EXPECT_EQ(emission_omp_schedule(Schedule::per_iteration()), "static");
  EXPECT_EQ(emission_omp_schedule(Schedule::per_iteration(OmpSchedule::Dynamic)),
            "dynamic");
  EXPECT_EQ(emission_omp_schedule(Schedule::chunked(256)), "static, 256");
  EXPECT_EQ(emission_omp_schedule(Schedule::chunked(0)), "static");  // per-thread fallback
  EXPECT_EQ(emission_omp_schedule(Schedule::row_segments_chunked(8, {}, OmpSchedule::Dynamic)),
            "dynamic, 8");
  EXPECT_EQ(emission_omp_schedule(Schedule::chunked(0, {}, OmpSchedule::Dynamic)), "static");
  // §VI-B's coalesced consecutive-iteration deal, expressed in OpenMP.
  EXPECT_EQ(emission_omp_schedule(Schedule::warp_sim(32)), "static, 1");
  EXPECT_EQ(emission_omp_schedule(Schedule::per_thread()), "static");
}

TEST(Emission, WarpScheduleEmitsCoalescedPerIteration) {
  const NestProgram prog = parse_nest_program(R"(
name w
params N
array double x[N]
loop i = 0 .. N
loop j = i .. N
body { x[i] += 1.0; }
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::warp_sim(32);
  const std::string src = emit_collapsed_function(prog, col, opt);
  EXPECT_NE(src.find("schedule(static, 1)"), std::string::npos) << src;
  EXPECT_EQ(src.find("__nrc_first"), std::string::npos);  // per-iteration shape
}

}  // namespace
}  // namespace nrc

// The compiled recovery engine: degree-specialized solvers, the quartic
// root-formula demotion and batched block recovery must agree exactly
// with the all-integer binary-search recovery over full domains.
#include <gtest/gtest.h>

#include <random>

#include "../test_util.hpp"
#include "core/real_solvers.hpp"
#include "kernels/registry.hpp"
#include "math/roots.hpp"

namespace nrc {
namespace {

void expect_engine_matches_search(const CollapsedEval& cn, const std::string& tag) {
  const size_t d = static_cast<size_t>(cn.depth());
  CollapsedEval demoted = cn;
  demoted.force_quartic_demotion();
  std::vector<i64> via_engine(d), via_demoted(d), via_search(d);
  for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
    cn.recover(pc, via_engine);
    demoted.recover(pc, via_demoted);
    cn.recover_search(pc, via_search);
    ASSERT_EQ(via_engine, via_search) << tag << " pc=" << pc;
    ASSERT_EQ(via_demoted, via_search) << tag << " (quartics demoted) pc=" << pc;
  }
}

void expect_blocks_match_search(const CollapsedEval& cn, i64 block, const std::string& tag) {
  const size_t d = static_cast<size_t>(cn.depth());
  std::vector<i64> out(static_cast<size_t>(block) * d);
  std::vector<i64> via_search(d);
  for (i64 lo = 1; lo <= cn.trip_count(); lo += block) {
    const i64 got = cn.recover_block(lo, block, out);
    ASSERT_EQ(got, std::min<i64>(block, cn.trip_count() - lo + 1)) << tag << " lo=" << lo;
    for (i64 r = 0; r < got; ++r) {
      cn.recover_search(lo + r, via_search);
      for (size_t q = 0; q < d; ++q)
        ASSERT_EQ(out[static_cast<size_t>(r) * d + q], via_search[q])
            << tag << " block=" << block << " pc=" << lo + r << " dim=" << q;
    }
  }
}

TEST(RecoveryEngine, MatchesSearchOnEveryKernelNest) {
  for (const auto& name : kernel_names()) {
    auto kernel = make_kernel(name);
    kernel->prepare(0.0);  // floor sizes: full domains stay test-sized
    const Collapsed col = collapse(kernel->collapsed_spec());
    const CollapsedEval cn = col.bind(kernel->bound_params());
    expect_engine_matches_search(cn, name);
  }
}

TEST(RecoveryEngine, BlocksMatchSearchOnEveryKernelNest) {
  for (const auto& name : kernel_names()) {
    auto kernel = make_kernel(name);
    kernel->prepare(0.0);
    const Collapsed col = collapse(kernel->collapsed_spec());
    const CollapsedEval cn = col.bind(kernel->bound_params());
    for (i64 block : {i64{1}, i64{7}, i64{64}, cn.trip_count()})
      expect_blocks_match_search(cn, block, name);
  }
}

TEST(RecoveryEngine, MatchesSearchOnAllShapes) {
  // The shape menagerie exercises every solver kind: exact-division
  // (degree 1), guarded-quadratic, guarded-cubic and guarded-ferrari.
  for (const auto& sc : testutil::closed_form_shapes()) {
    const ParamMap p = testutil::uniform_params(sc.nest, 7);
    if (!has_no_empty_ranges(sc.nest, p)) continue;
    const CollapsedEval cn = collapse(sc.nest).bind(p);
    expect_engine_matches_search(cn, sc.name);
    expect_blocks_match_search(cn, 5, sc.name);
  }
}

TEST(RecoveryEngine, SolverKindsMatchLevelDegrees) {
  {
    const CollapsedEval cn = collapse(testutil::triangular_strict()).bind({{"N", 30}});
    EXPECT_EQ(cn.solver_kind(0), LevelSolverKind::Quadratic);
    EXPECT_EQ(cn.solver_kind(1), LevelSolverKind::InnermostLinear);
  }
  {
    const CollapsedEval cn = collapse(testutil::rectangular()).bind({{"N", 9}, {"M", 4}});
    EXPECT_EQ(cn.solver_kind(0), LevelSolverKind::ExactDivision);
  }
  {
    const CollapsedEval cn = collapse(testutil::tetrahedral_fig6()).bind({{"N", 9}});
    EXPECT_EQ(cn.solver_kind(0), LevelSolverKind::Cubic);
    EXPECT_EQ(cn.solver_kind(1), LevelSolverKind::Quadratic);
  }
  {
    const CollapsedEval cn = collapse(testutil::simplex_4d()).bind({{"N", 8}});
    EXPECT_EQ(cn.solver_kind(0), LevelSolverKind::Quartic);  // guarded Ferrari
  }
  {
    const CollapsedEval cn = collapse(testutil::simplex_5d()).bind({{"N", 6}});
    EXPECT_EQ(cn.solver_kind(0), LevelSolverKind::Search);  // degree 5
  }
}

TEST(RecoveryEngine, SearchFallbackLevelsStayExact) {
  // Degree-5 outer level has no closed form; the engine mixes search and
  // specialized levels in one nest.
  const CollapsedEval cn = collapse(testutil::simplex_5d()).bind({{"N", 6}});
  expect_engine_matches_search(cn, "simplex_5d");
  expect_blocks_match_search(cn, 11, "simplex_5d");
}

TEST(RecoveryEngine, MaxDepthNest) {
  // Depth-kMaxDepth nest: a rectangular tower over a triangular base.
  NestSpec n;
  n.param("N");
  n.loop("t0", aff::c(0), aff::v("N"));
  n.loop("t1", aff::v("t0"), aff::v("N"));
  for (int k = 2; k < kMaxDepth; ++k)
    n.loop("t" + std::to_string(k), aff::c(0), aff::c(2));
  ASSERT_EQ(n.depth(), kMaxDepth);
  const CollapsedEval cn = collapse(n).bind({{"N", 3}});
  expect_engine_matches_search(cn, "max_depth");
  expect_blocks_match_search(cn, 64, "max_depth");
}

TEST(RecoverBlock, EdgeCases) {
  const CollapsedEval cn = collapse(testutil::triangular_strict()).bind({{"N", 12}});
  const size_t d = static_cast<size_t>(cn.depth());
  std::vector<i64> out(8 * d);

  EXPECT_EQ(cn.recover_block(1, 0, out), 0);   // empty request
  EXPECT_EQ(cn.recover_block(1, -3, out), 0);  // negative request

  // Clipping at the end of the domain.
  EXPECT_EQ(cn.recover_block(cn.trip_count(), 8, out), 1);
  std::vector<i64> last(d);
  cn.last(last);
  EXPECT_EQ(out[0], last[0]);
  EXPECT_EQ(out[1], last[1]);

  // Out-of-range pc_lo and undersized output throw.
  EXPECT_THROW(cn.recover_block(0, 4, out), SolveError);
  EXPECT_THROW(cn.recover_block(cn.trip_count() + 1, 4, out), SolveError);
  std::vector<i64> tiny(d);
  EXPECT_THROW(cn.recover_block(1, 8, tiny), SpecError);
}

TEST(RecoverBlock, SingleLoopNest) {
  NestSpec n;
  n.param("N").loop("i", aff::c(2), aff::v("N"));
  const CollapsedEval cn = collapse(n).bind({{"N", 9}});
  std::vector<i64> out(7);
  ASSERT_EQ(cn.recover_block(1, 7, out), 7);
  for (i64 r = 0; r < 7; ++r) EXPECT_EQ(out[static_cast<size_t>(r)], 2 + r);
}

TEST(Advance, AgreesWithRepeatedIncrement) {
  const CollapsedEval cn = collapse(testutil::tetrahedral_fig6()).bind({{"N", 8}});
  const size_t d = static_cast<size_t>(cn.depth());
  for (i64 step : {i64{1}, i64{2}, i64{5}, i64{17}}) {
    std::vector<i64> a(d), b(d);
    cn.first(a);
    cn.first(b);
    bool a_alive = true, b_alive = true;
    while (a_alive && b_alive) {
      a_alive = cn.advance(a, step);
      for (i64 s = 0; s < step && b_alive; ++s) b_alive = cn.increment(b);
      ASSERT_EQ(a_alive, b_alive) << "step=" << step;
      if (a_alive) ASSERT_EQ(a, b) << "step=" << step;
    }
  }
}

TEST(RecoveryEngine, StatsCountClosedFormLevels) {
  const CollapsedEval cn = collapse(testutil::tetrahedral_fig6()).bind({{"N", 12}});
  RecoveryStats stats;
  std::vector<i64> idx(3);
  for (i64 pc = 1; pc <= cn.trip_count(); ++pc) cn.recover(pc, idx, &stats);
  // Two non-innermost levels per recovery, none needing search.
  EXPECT_EQ(stats.levels(), 2 * cn.trip_count());
  EXPECT_EQ(stats.fallback, 0);
  EXPECT_GT(stats.closed_form, 0);
}

TEST(RecoveryEngine, DescribeNamesLoweredSolvers) {
  const std::string d = collapse(testutil::tetrahedral_fig6()).describe();
  EXPECT_NE(d.find("lowered solver: guarded-cubic"), std::string::npos) << d;
  EXPECT_NE(d.find("lowered solver: guarded-quadratic"), std::string::npos);
  EXPECT_NE(d.find("lowered solver: innermost-linear"), std::string::npos);
  const std::string q = collapse(testutil::simplex_4d()).describe();
  EXPECT_NE(q.find("lowered solver: guarded-ferrari"), std::string::npos) << q;
  EXPECT_NE(q.find("[formula demotion]"), std::string::npos) << q;
  EXPECT_NE(q.find("guard policy: proven-exact f64"), std::string::npos) << q;
  const std::string r = collapse(testutil::rectangular()).describe();
  EXPECT_NE(r.find("lowered solver: exact-division"), std::string::npos) << r;
}

TEST(RecoveryEngine, DescribeIsHostIndependent) {
  // describe() reports the symbolic plan only: nothing in it names the
  // SIMD leg the library was compiled for.
  for (const NestSpec& nest : {testutil::triangular_strict(), testutil::simplex_4d()}) {
    const std::string d = collapse(nest).describe();
    EXPECT_EQ(d.find("lane"), std::string::npos) << d;
    EXPECT_EQ(d.find("simd"), std::string::npos) << d;
  }
}

TEST(RecoveryEngine, AstronomicalParameterOffsetsStillBind) {
  // Folding A ~ 1e6 into quartic level coefficients produces A^4-scale
  // constants; the guarded Ferrari runs fine on the exactly evaluated
  // i128 coefficients (the exact-double proof fails at these magnitudes,
  // so the checked reference guards carry the level).
  NestSpec n;
  n.param("A");
  n.loop("i", aff::v("A"), aff::v("A") + 9)
      .loop("j", aff::v("i"), aff::v("A") + 9)
      .loop("k", aff::v("j"), aff::v("A") + 9)
      .loop("l", aff::v("k"), aff::v("A") + 9);
  const CollapsedEval cn = collapse(n).bind({{"A", 1000000}});
  EXPECT_EQ(cn.solver_kind(0), LevelSolverKind::Quartic);
  EXPECT_FALSE(cn.guards_provably_f64(0));
  expect_engine_matches_search(cn, "astronomical_offsets");
  expect_blocks_match_search(cn, 13, "astronomical_offsets");
}

// ---------------------------------------------------------------------------
// Guarded real-arithmetic Ferrari (PR 3).

/// Compare ferrari_estimate against the complex reference evaluator for
/// every one of the 12 Ferrari branches of one coefficient set.  Where
/// the real-arithmetic path claims success, its floor must match the
/// reference floor to within 1 (the correction budget of the exact
/// guard); where the reference itself degenerates the claim is skipped.
void expect_ferrari_tracks_reference(const double (&A)[5], const std::string& tag) {
  cld cc[5];
  for (int e = 0; e < 5; ++e) cc[e] = cld(static_cast<long double>(A[e]), 0.0L);
  for (int br = 0; br < 12; ++br) {
    i64 est;
    if (!ferrari_estimate<long double>(A, br, &est)) continue;  // demotes: fine
    const cld ref = root_branch_value(std::span<const cld>(cc, 5), br);
    if (!std::isfinite(static_cast<double>(ref.real()))) continue;
    const long double re = ref.real();
    if (re < -9e18L || re > 9e18L) continue;
    const i64 ref_est = static_cast<i64>(std::floor(re + 1e-9L));
    EXPECT_NEAR(static_cast<double>(est), static_cast<double>(ref_est), 1.0)
        << tag << " branch=" << br;
  }
}

TEST(FerrariEstimate, QuarticEdgeFamilies) {
  // Biquadratic (x^2-1)(x^2-4): odd coefficients zero, the resolvent
  // has the w = 0 root Ferrari cannot divide through (those branches
  // must report degeneration, not a wrong estimate).
  const double biquadratic[5] = {4, 0, -5, 0, 1};
  expect_ferrari_tracks_reference(biquadratic, "biquadratic");
  // Repeated real roots (x-2)^2 (x+3)^2: the resolvent discriminant is
  // exactly zero.
  const double repeated[5] = {36, -12, -11, 2, 1};
  expect_ferrari_tracks_reference(repeated, "repeated");
  // Near-zero resolvent discriminant: the repeated-root quartic
  // perturbed one unit either way.
  const double near_lo[5] = {35, -12, -11, 2, 1};
  const double near_hi[5] = {37, -12, -11, 2, 1};
  expect_ferrari_tracks_reference(near_lo, "near_disc_lo");
  expect_ferrari_tracks_reference(near_hi, "near_disc_hi");
  // Clustered real roots 7, 7, 8, -1.
  const double clustered[5] = {-392, -231, 139, -21, 1};
  expect_ferrari_tracks_reference(clustered, "clustered");
  // Degenerate leading coefficient: never claims an estimate.
  const double cubic_like[5] = {1, 2, 3, 4, 0};
  i64 est;
  for (int br = 0; br < 12; ++br)
    EXPECT_FALSE(ferrari_estimate<long double>(cubic_like, br, &est)) << br;
}

TEST(FerrariEstimate, RandomQuarticsTrackReference) {
  std::mt19937_64 rng(20260726);
  for (int iter = 0; iter < 4000; ++iter) {
    double A[5];
    const i64 m = iter % 3 == 0 ? 9 : iter % 3 == 1 ? 1000 : 2000000;
    for (int e = 0; e < 5; ++e)
      A[e] = static_cast<double>(static_cast<i64>(rng() % static_cast<u64>(2 * m + 1)) - m);
    if (A[4] == 0) A[4] = 1;
    if (iter % 7 == 0) A[3] = A[1] = 0;  // biquadratic slice
    expect_ferrari_tracks_reference(A, "random#" + std::to_string(iter));
  }
}

/// Complex Cardano with the +i convention for real radicands: the
/// square root of a negative real discriminant is always taken on the
/// +i branch, as cubic_estimate does.  root_branch_value is *not* a
/// usable oracle for cubic
/// branches 1/2: its fully-complex evaluation can flip the radicand's
/// imaginary zero to -0 depending on coefficient signs, conjugating the
/// cube root and swapping those two branches — Re of a quartic branch is
/// invariant under that conjugation, a cubic branch value is not.
cld cardano_plus_i(const double* A, int branch) {
  const long double b = static_cast<long double>(A[2]) / A[3];
  const long double c = static_cast<long double>(A[1]) / A[3];
  const long double d = static_cast<long double>(A[0]) / A[3];
  const long double p = c - b * b / 3.0L;
  const long double q = 2.0L * b * b * b / 27.0L - b * c / 3.0L + d;
  const long double delta = q * q / 4.0L + p * p * p / 27.0L;
  const cld sq = delta >= 0 ? cld(std::sqrt(delta), 0.0L)
                            : cld(0.0L, std::sqrt(-delta));
  const cld u = principal_cbrt(-q / 2.0L + sq);
  constexpr long double kPi = 3.14159265358979323846264338327950288L;
  const cld uk = u * cld(std::cos(2.0L * kPi * branch / 3.0L),
                         std::sin(2.0L * kPi * branch / 3.0L));
  return uk - p / (3.0L * uk) - b / 3.0L;
}

TEST(CubicEstimate, AllBranchesTrackReference) {
  // The Viete/Cardano estimate must track the +i-convention
  // reference on all three branches (the seed only ever exercised
  // branch 0; the Ferrari resolvent reaches every branch).
  std::mt19937_64 rng(777);
  for (int iter = 0; iter < 4000; ++iter) {
    double A[4];
    for (int e = 0; e < 4; ++e)
      A[e] = static_cast<double>(static_cast<i64>(rng() % 2001) - 1000);
    if (A[3] == 0) A[3] = 1;
    for (int br = 0; br < 3; ++br) {
      i64 est;
      if (!cubic_estimate<long double>(A, br, &est)) continue;
      const cld ref = cardano_plus_i(A, br);
      if (!std::isfinite(static_cast<double>(ref.real()))) continue;
      const i64 ref_est = static_cast<i64>(std::floor(ref.real() + 1e-9L));
      EXPECT_NEAR(static_cast<double>(est), static_cast<double>(ref_est), 1.0)
          << "iter=" << iter << " branch=" << br;
    }
  }
}

/// Every quartic-level shape: the Ferrari engine must agree with search
/// over the full domain without a single search fallback or demotion
/// (healthy nests never leave the real-arithmetic path).
TEST(RecoveryEngine, FerrariSolvesQuarticNestsWithoutDemotion) {
  for (const auto& sc : {testutil::simplex_4d(), testutil::simplex_4d_shifted(),
                         testutil::trapezoid_tower_4d(), testutil::simplex_4d_tower()}) {
    const ParamMap p = testutil::uniform_params(sc, 9);
    if (!has_no_empty_ranges(sc, p)) continue;
    const CollapsedEval cn = collapse(sc).bind(p);
    ASSERT_EQ(cn.solver_kind(0), LevelSolverKind::Quartic);

    RecoveryStats stats;
    const size_t d = static_cast<size_t>(cn.depth());
    std::vector<i64> eng(d), ref(d);
    for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
      cn.recover_search(pc, ref);
      cn.recover(pc, eng, &stats);
      ASSERT_EQ(eng, ref) << "ferrari pc=" << pc;
    }
    EXPECT_EQ(stats.fallback, 0);
    EXPECT_EQ(stats.quartic_demoted, 0);
    EXPECT_GT(stats.closed_form, 0);
  }
}

/// Demotion to the root formula on guard failure: force_quartic_demotion
/// makes every quartic point take the demoted path (the complex root
/// formula's estimate + exact guard, quartic_demoted counting), and the
/// results must still match search exactly.
TEST(RecoveryEngine, QuarticGuardFailureDemotesToRootFormula) {
  for (const auto& nest : {testutil::simplex_4d(), testutil::trapezoid_tower_4d()}) {
    const CollapsedEval cn = collapse(nest).bind({{"N", 11}});
    CollapsedEval demoted = cn;
    demoted.force_quartic_demotion();
    ASSERT_EQ(demoted.solver_kind(0), LevelSolverKind::Quartic);

    RecoveryStats stats;
    const size_t d = static_cast<size_t>(cn.depth());
    std::vector<i64> idx(d), ref(d);
    for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
      cn.recover_search(pc, ref);
      demoted.recover(pc, idx, &stats);
      ASSERT_EQ(idx, ref) << "demoted recover pc=" << pc;
    }
    EXPECT_EQ(stats.quartic_demoted, cn.trip_count());
    EXPECT_EQ(stats.fallback, 0);  // the root formula's estimate still lands

  }
}

// ---------------------------------------------------------------------------
// Unified guard policy: proven-exact f64 vs the checked-i128 reference.

/// recover()/recover_block() must be byte-identical with the f64 guard
/// policy on and off, across every kernel nest and shape — the
/// bind-time proof guarantees it, this enforces it.
TEST(RecoveryEngine, F64GuardsByteIdenticalToI128OnEveryKernelNest) {
  int proven_levels = 0;
  auto check = [&](const CollapsedEval& cn, const std::string& tag) {
    CollapsedEval ref_cn = cn;
    ref_cn.set_f64_guards(false);
    EXPECT_TRUE(cn.f64_guards());
    EXPECT_FALSE(ref_cn.f64_guards());
    for (int k = 0; k < cn.depth(); ++k)
      if (cn.guards_provably_f64(k)) ++proven_levels;
    const size_t d = static_cast<size_t>(cn.depth());
    std::vector<i64> a(d), b(d);
    for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
      cn.recover(pc, a);
      ref_cn.recover(pc, b);
      ASSERT_EQ(a, b) << tag << " recover pc=" << pc;
    }
    constexpr i64 kBlock = 17;
    std::vector<i64> ba(kBlock * d), bb(kBlock * d);
    for (i64 lo = 1; lo <= cn.trip_count(); lo += kBlock) {
      const i64 ga = cn.recover_block(lo, kBlock, ba);
      const i64 gb = ref_cn.recover_block(lo, kBlock, bb);
      ASSERT_EQ(ga, gb) << tag << " rows lo=" << lo;
      ASSERT_EQ(ba, bb) << tag << " recover_block lo=" << lo;
    }
  };
  for (const auto& name : kernel_names()) {
    auto kernel = make_kernel(name);
    kernel->prepare(0.0);
    check(collapse(kernel->collapsed_spec()).bind(kernel->bound_params()), name);
  }
  for (const auto& sc : testutil::closed_form_shapes()) {
    const ParamMap p = testutil::uniform_params(sc.nest, 7);
    if (!has_no_empty_ranges(sc.nest, p)) continue;
    check(collapse(sc.nest).bind(p), sc.name);
  }
  // The policy must actually engage somewhere, or this test is vacuous.
  EXPECT_GT(proven_levels, 0);
}

TEST(RecoveryEngine, F64GuardProofHoldsOnTypicalBindsFailsOnAstronomical) {
  // Typical magnitudes: every non-innermost level of the quartic simplex
  // proves the exact-double path.
  const CollapsedEval typical = collapse(testutil::simplex_4d()).bind({{"N", 60}});
  EXPECT_TRUE(typical.guards_provably_f64(0));
  // Astronomical offsets: folded coefficients leave the 2^53 window and
  // the proof must refuse (the checked-i128 reference carries the level).
  NestSpec n;
  n.param("A");
  n.loop("i", aff::v("A"), aff::v("A") + 9).loop("j", aff::v("i"), aff::v("A") + 9);
  const CollapsedEval astro = collapse(n).bind({{"A", 100000000}});
  ASSERT_EQ(astro.solver_kind(0), LevelSolverKind::Quadratic);
  EXPECT_FALSE(astro.guards_provably_f64(0));
  std::vector<i64> a(2), ref(2);
  for (i64 pc = 1; pc <= astro.trip_count(); ++pc) {
    astro.recover(pc, a);
    astro.recover_search(pc, ref);
    ASSERT_EQ(a, ref) << pc;
  }
}

TEST(RecoveryEngine, LargeParameterBlocksStayExact) {
  // Same worst case as the scalar large-N test: ranks near row
  // boundaries at N = 2^20, recovered through blocks spanning them.
  const Collapsed col = collapse(testutil::triangular_strict());
  const i64 N = 1 << 20;
  const CollapsedEval cn = col.bind({{"N", N}});
  std::vector<i64> out(16 * 2), via_search(2);
  for (i64 i : {i64{1}, i64{77}, N / 2, N - 3}) {
    const std::vector<i64> first_of_row{i, i + 1};
    const i64 pc = cn.rank(first_of_row);
    const i64 lo = std::max<i64>(1, pc - 8);
    const i64 got = cn.recover_block(lo, 16, out);
    for (i64 r = 0; r < got; ++r) {
      cn.recover_search(lo + r, via_search);
      EXPECT_EQ(out[static_cast<size_t>(r) * 2], via_search[0]) << "pc=" << lo + r;
      EXPECT_EQ(out[static_cast<size_t>(r) * 2 + 1], via_search[1]) << "pc=" << lo + r;
    }
  }
}

}  // namespace
}  // namespace nrc

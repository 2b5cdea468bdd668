// The compiled recovery engine: degree-specialized solvers with
// interval-selected roots and batched block recovery must agree exactly
// with the all-integer binary-search recovery over full domains, and at
// scale without falling back to search.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

#include "../test_util.hpp"
#include "core/real_solvers.hpp"
#include "kernels/registry.hpp"

namespace nrc {
namespace {

void expect_engine_matches_search(const CollapsedEval& cn, const std::string& tag) {
  const size_t d = static_cast<size_t>(cn.depth());
  std::vector<i64> via_engine(d), via_search(d);
  for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
    cn.recover(pc, via_engine);
    cn.recover_search(pc, via_search);
    ASSERT_EQ(via_engine, via_search) << tag << " pc=" << pc;
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
  EXPECT_NE(q.find("root in [0, N)"), std::string::npos) << q;
  EXPECT_NE(q.find("    a4 = -1/24\n"), std::string::npos) << q;
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

TEST(RecoveryEngine, FailedEstimatesFallBackToExactSearch) {
  // An offset S far above a short range: the level equation's
  // coefficients reach S^3 (cubic) or S^4 (quartic) while its root moves
  // within a few steps, so the long double estimate loses the root — it
  // lands outside the range, or further than the guard's correction
  // window — and the level falls to exact search.  The exact-double
  // proof refuses these magnitudes, so the checked-i128 path runs; the
  // proven-f64 path ends in the same fallback call.
  for (const auto& [depth, S] : {std::pair{3, i64{30000000}}, std::pair{4, i64{1000000}}}) {
    const char* vars[] = {"i", "j", "k", "l"};
    NestSpec n;
    n.param("N").param("S");
    n.loop("i", aff::v("S"), aff::v("S") + aff::v("N"));
    for (int d = 1; d < depth; ++d) n.loop(vars[d], aff::v(vars[d - 1]), aff::v("S") + aff::v("N"));
    const CollapsedEval cn = collapse(n).bind({{"N", 5}, {"S", S}});
    const std::string tag = "depth " + std::to_string(depth);
    ASSERT_FALSE(cn.guards_provably_f64(0)) << tag;
    const size_t d = static_cast<size_t>(depth);
    std::vector<i64> eng(d), ref(d);
    RecoveryStats stats;
    for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
      cn.recover(pc, eng, &stats);
      cn.recover_search(pc, ref);
      ASSERT_EQ(eng, ref) << tag << " pc=" << pc;
    }
    EXPECT_GT(stats.fallback, 0) << tag;
    EXPECT_EQ(stats.levels(), cn.trip_count() * (depth - 1)) << tag;
    expect_blocks_match_search(cn, 7, tag);
  }
}

// ---------------------------------------------------------------------------
// Interval-selected real-arithmetic estimates.

/// floor of the largest of `roots` within half a step of [lb, ub], or
/// nullopt when none lies there: what every estimator must return.
std::optional<i64> expected_pick(const std::vector<double>& roots, i64 lb, i64 ub) {
  std::optional<double> best;
  for (const double r : roots)
    if (r >= lb - 0.5 && r <= ub + 0.5 && (!best || r > *best)) best = r;
  if (!best) return std::nullopt;
  return static_cast<i64>(std::floor(*best));
}

/// Coefficients a0..a_deg of lead * prod (x - r) * (x^2 + s) (the
/// quadratic factor only when s > 0: a complex pair).
std::vector<double> poly_from_roots(double lead, const std::vector<double>& roots, double s) {
  std::vector<double> c{lead};
  auto mul = [&](const std::vector<double>& f) {
    std::vector<double> out(c.size() + f.size() - 1, 0.0);
    for (size_t i = 0; i < c.size(); ++i)
      for (size_t j = 0; j < f.size(); ++j) out[i + j] += c[i] * f[j];
    c = out;
  };
  for (const double r : roots) mul({-r, 1.0});
  if (s > 0) mul({s, 0.0, 1.0});
  return c;
}

void expect_estimate(const std::vector<double>& A, const std::vector<double>& roots, i64 lb,
                     i64 ub, const std::string& tag) {
  i64 est = -777;
  const bool ok = A.size() == 5 ? ferrari_estimate<long double>(A.data(), lb, ub, &est)
                                : cubic_estimate<long double>(A.data(), lb, ub, &est);
  const std::optional<i64> want = expected_pick(roots, lb, ub);
  ASSERT_EQ(ok, want.has_value()) << tag << " [" << lb << ", " << ub << "]";
  if (ok) EXPECT_EQ(est, *want) << tag << " [" << lb << ", " << ub << "]";
}

TEST(FerrariEstimate, EdgeFamiliesPickTheLargestRootInRange) {
  // Biquadratic (x^2-1)(x^2-4): odd coefficients zero, the resolvent's
  // largest root is 0 and the solver goes through y^2.
  const std::vector<double> biquadratic = {4, 0, -5, 0, 1};
  for (const auto& [lb, ub] : std::vector<std::pair<i64, i64>>{
           {-3, 3}, {-2, 1}, {-2, 0}, {0, 1}, {2, 5}, {-6, -3}, {3, 9}, {-1, -1}})
    expect_estimate(biquadratic, {-2, -1, 1, 2}, lb, ub, "biquadratic");
  // Roots 7, 8 and -1 with 7 doubled, and the simple roots of a quartic
  // with a complex pair; the double root may come out complex, so only
  // windows away from it are pinned.
  const std::vector<double> clustered = {-392, -231, 139, -21, 1};
  for (const auto& [lb, ub] :
       std::vector<std::pair<i64, i64>>{{8, 8}, {-1, -1}, {-3, 0}, {0, 5}, {9, 20}, {-1, 3}})
    expect_estimate(clustered, {7, 7, 8, -1}, lb, ub, "clustered");
  const std::vector<double> pair = poly_from_roots(3, {-5, 4}, 2.0);
  for (const auto& [lb, ub] :
       std::vector<std::pair<i64, i64>>{{-9, 9}, {-9, 0}, {-4, 3}, {4, 4}, {5, 9}})
    expect_estimate(pair, {-5, 4}, lb, ub, "complex pair");
  // Degenerate leading coefficient: never claims an estimate.
  const double cubic_like[5] = {1, 2, 3, 4, 0};
  i64 est;
  EXPECT_FALSE(ferrari_estimate<long double>(cubic_like, -100, 100, &est));
}

/// Random integer-root cubics and quartics (with and without a complex
/// pair), each with a window around one root that excludes the larger
/// ones: the estimate is that root's floor, in double and long double.
TEST(RealEstimate, RandomPolynomialsPickTheRootInRange) {
  std::mt19937_64 rng(20261018);
  auto pick = [&](i64 lo, i64 hi) {
    return lo + static_cast<i64>(rng() % static_cast<u64>(hi - lo + 1));
  };
  for (int iter = 0; iter < 6000; ++iter) {
    const i64 m = iter % 3 == 0 ? 20 : iter % 3 == 1 ? 1000 : 100000;
    const int nroots = iter % 2 == 0 ? 3 : pick(0, 1) ? 4 : 2;  // 2: plus a complex pair
    std::vector<double> roots;
    while (static_cast<int>(roots.size()) < nroots) {
      const double r = static_cast<double>(pick(-m, m));
      if (std::find(roots.begin(), roots.end(), r) == roots.end()) roots.push_back(r);
    }
    std::sort(roots.begin(), roots.end());
    const double lead = static_cast<double>(pick(1, 6)) * (pick(0, 1) ? 1 : -1);
    const std::vector<double> A = poly_from_roots(lead, roots, nroots == 2 ? pick(1, 50) : 0);
    const size_t t = static_cast<size_t>(pick(0, nroots - 1));
    const i64 r = static_cast<i64>(roots[t]);
    const i64 room = t + 1 < roots.size() ? static_cast<i64>(roots[t + 1]) - r - 1 : 10;
    const i64 lb = r - pick(0, 5);
    const i64 ub = r + std::min<i64>(room, pick(0, 5));
    const std::string tag = "iter=" + std::to_string(iter);
    i64 est_ld = -777, est_d = -777;
    const bool ok_ld = A.size() == 5 ? ferrari_estimate<long double>(A.data(), lb, ub, &est_ld)
                                     : cubic_estimate<long double>(A.data(), lb, ub, &est_ld);
    const bool ok_d = A.size() == 5 ? ferrari_estimate<double>(A.data(), lb, ub, &est_d)
                                    : cubic_estimate<double>(A.data(), lb, ub, &est_d);
    ASSERT_TRUE(ok_ld) << tag;
    ASSERT_TRUE(ok_d) << tag;
    // An exact integer root may come out a hair low: the guard absorbs
    // one step.
    EXPECT_LE(std::llabs(est_ld - r), 1) << tag;
    EXPECT_LE(std::llabs(est_d - r), 1) << tag;
  }
}

/// Every quartic-level shape: the Ferrari engine must agree with search
/// over the full domain without a single search fallback.
TEST(RecoveryEngine, FerrariSolvesQuarticNestsWithoutFallback) {
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
    EXPECT_GT(stats.closed_form, 0);
  }
}

/// The cubic and quartic nests at N = 10^3, 10^4 and 10^5 (the trip
/// count must fit i64; simplex_4d_tower's floor keeps M = 2): sampled
/// pcs recover exactly, and no level falls back to search.
TEST(RecoveryEngine, AtScaleNestsNeverFallBack) {
  const std::pair<const char*, NestSpec> nests[] = {
      {"tetrahedral_ordered", testutil::tetrahedral_ordered()},
      {"simplex_4d", testutil::simplex_4d()},
      {"simplex_4d_tower", testutil::simplex_4d_tower()},
      {"simplex_4d_shifted", testutil::simplex_4d_shifted()},
  };
  for (const auto& [name, nest] : nests) {
    const Collapsed col = collapse(nest);
    for (const i64 n : {i64{1000}, i64{10000}, i64{100000}}) {
      ParamMap p{{"N", n}};
      if (nest.params().size() > 1) p["M"] = 2;
      const CollapsedEval cn = col.bind(p);
      const std::string tag = std::string(name) + " N=" + std::to_string(n);
      const size_t d = static_cast<size_t>(cn.depth());
      std::vector<i64> eng(d), ref(d);
      RecoveryStats stats;
      std::mt19937_64 rng(static_cast<u64>(n));
      for (int s = 0; s < 3000; ++s) {
        const i64 pc = s < 2 ? (s == 0 ? 1 : cn.trip_count())
                             : 1 + static_cast<i64>(rng() % static_cast<u64>(cn.trip_count()));
        cn.recover_search(pc, ref);
        cn.recover(pc, eng, &stats);
        ASSERT_EQ(eng, ref) << tag << " pc=" << pc;
      }
      EXPECT_EQ(stats.fallback, 0) << tag;
      EXPECT_EQ(stats.levels(), 3000 * (cn.depth() - 1)) << tag;
    }
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
  // Depth 5: the constant coefficient A_0 of levels 1-3 has degree 5,
  // and those levels prove and run the double path as well.
  const CollapsedEval simplex5 = collapse(testutil::simplex_5d()).bind({{"N", 12}});
  for (int k = 1; k <= 3; ++k) EXPECT_TRUE(simplex5.guards_provably_f64(k)) << "level " << k;
  check(simplex5, "simplex_5d");
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

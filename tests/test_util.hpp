#pragma once
// Shared helpers for the nrcollapse test suite: the menagerie of nest
// shapes the property tests sweep over, the seeded random nest
// generator behind the randomized differential fuzzer
// (tests/core/differential_fuzz_test.cpp), and the scheme-differential
// harness the executor fuzzer drives every nrc::run Schedule through
// (tests/runtime/executor_fuzz_test.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "nrcollapse.hpp"

namespace nrc::testutil {

struct ShapeCase {
  std::string name;
  NestSpec nest;
};

/// Paper Fig. 1 (outer two loops): strict upper triangle.
inline NestSpec triangular_strict() {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(0), aff::v("N") - 1)
      .loop("j", aff::v("i") + 1, aff::v("N"));
  return n;
}

/// Inclusive triangle (covariance shape).
inline NestSpec triangular_inclusive() {
  NestSpec n;
  n.param("N").loop("i", aff::c(0), aff::v("N")).loop("j", aff::v("i"), aff::v("N"));
  return n;
}

/// Lower triangle, j <= i.
inline NestSpec triangular_lower() {
  NestSpec n;
  n.param("N").loop("i", aff::c(0), aff::v("N")).loop("j", aff::c(0), aff::v("i") + 1);
  return n;
}

/// Paper Fig. 6: tetrahedral 3-deep nest (cubic level equation).
inline NestSpec tetrahedral_fig6() {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(0), aff::v("N") - 1)
      .loop("j", aff::c(0), aff::v("i") + 1)
      .loop("k", aff::v("j"), aff::v("i") + 1);
  return n;
}

/// Rectangular (constant bounds) — the case OpenMP already handles.
inline NestSpec rectangular() {
  NestSpec n;
  n.param("N").param("M")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::c(0), aff::v("M"));
  return n;
}

/// Rhomboidal (parallelogram): shifted constant-width rows.
inline NestSpec rhomboidal() {
  NestSpec n;
  n.param("N").param("M")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("i") + aff::v("M"));
  return n;
}

/// Trapezoidal: rows grow with the outer index.
inline NestSpec trapezoidal() {
  NestSpec n;
  n.param("N").param("M")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::c(0), aff::v("M") + aff::v("i"));
  return n;
}

/// Trapezoidal with skewed lower bound and 2x growth.
inline NestSpec trapezoidal_skewed() {
  NestSpec n;
  n.param("T").param("N")
      .loop("i", aff::c(0), aff::v("T"))
      .loop("j", aff::v("i"), aff::v("N") + 2 * aff::v("i"));
  return n;
}

/// 3-deep: triangle over a rectangle (mixed).
inline NestSpec tri_rect_3d() {
  NestSpec n;
  n.param("N").param("M")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"))
      .loop("k", aff::c(0), aff::v("M"));
  return n;
}

/// 3-deep full tetrahedron 0 <= i <= j <= k < N.
inline NestSpec tetrahedral_ordered() {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"))
      .loop("k", aff::v("j"), aff::v("N"));
  return n;
}

/// 3-deep with a bound depending on two outer iterators (paper §IV-B
/// mentions for(k=0;k<i+j;k++); shifted so ranges are never empty).
inline NestSpec sum_bound_3d() {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::c(0), aff::v("N"))
      .loop("k", aff::c(0), aff::v("i") + aff::v("j") + 1);
  return n;
}

/// 4-deep simplex: the deepest dependency chain whose level equation
/// still has degree 4 (the paper's closed-form limit).
inline NestSpec simplex_4d() {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"))
      .loop("k", aff::v("j"), aff::v("N"))
      .loop("l", aff::v("k"), aff::v("N"));
  return n;
}

/// 5-deep simplex: level-0 equation has degree 5 — beyond the paper's
/// closed-form limit; exercised via search fallback.
inline NestSpec simplex_5d() {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"))
      .loop("k", aff::v("j"), aff::v("N"))
      .loop("l", aff::v("k"), aff::v("N"))
      .loop("m", aff::v("l"), aff::v("N"));
  return n;
}

/// Non-zero constant lower bounds plus parameter offsets.
inline NestSpec shifted_bounds() {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(3), aff::v("N") + 3)
      .loop("j", aff::v("i") - 2, aff::v("N") + aff::v("i"));
  return n;
}

/// 4-deep simplex with shifted/offset bounds: quartic level equation
/// whose coefficients carry non-trivial constants.
inline NestSpec simplex_4d_shifted() {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(3), aff::v("N") + 3)
      .loop("j", aff::v("i") - 2, aff::v("N") + 3)
      .loop("k", aff::v("j"), aff::v("N") + 4)
      .loop("l", aff::v("k"), aff::v("N") + 5);
  return n;
}

/// Growing-extent 4-deep nest (trapezoid tower): the level-0 equation is
/// quartic with every extent widening in the outer indices.
inline NestSpec trapezoid_tower_4d() {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::c(0), aff::v("i") + 1)
      .loop("k", aff::v("j"), aff::v("i") + 2)
      .loop("l", aff::c(0), aff::v("k") + 2);
  return n;
}

/// 5-deep: 4-chain simplex over a rectangular floor — quartic level-0
/// equation inside a deeper nest (the paper's closed-form limit holds
/// per level, not per nest).
inline NestSpec simplex_4d_tower() {
  NestSpec n;
  n.param("N").param("M")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"))
      .loop("k", aff::v("j"), aff::v("N"))
      .loop("l", aff::v("k"), aff::v("N"))
      .loop("m", aff::c(0), aff::v("M"));
  return n;
}

/// All shapes that satisfy the model for the given uniform parameter
/// value, with every level degree <= 4 (closed-form eligible).
inline std::vector<ShapeCase> closed_form_shapes() {
  return {
      {"triangular_strict", triangular_strict()},
      {"triangular_inclusive", triangular_inclusive()},
      {"triangular_lower", triangular_lower()},
      {"tetrahedral_fig6", tetrahedral_fig6()},
      {"rectangular", rectangular()},
      {"rhomboidal", rhomboidal()},
      {"trapezoidal", trapezoidal()},
      {"trapezoidal_skewed", trapezoidal_skewed()},
      {"tri_rect_3d", tri_rect_3d()},
      {"tetrahedral_ordered", tetrahedral_ordered()},
      {"sum_bound_3d", sum_bound_3d()},
      {"simplex_4d", simplex_4d()},
      {"shifted_bounds", shifted_bounds()},
      {"simplex_4d_shifted", simplex_4d_shifted()},
      {"trapezoid_tower_4d", trapezoid_tower_4d()},
      {"simplex_4d_tower", simplex_4d_tower()},
  };
}

/// Uniform parameter map for a nest.
inline ParamMap uniform_params(const NestSpec& nest, i64 v) {
  ParamMap p;
  for (const auto& name : nest.params()) p[name] = v;
  return p;
}

// ---------------------------------------------------------------------------
// Randomized differential nest fuzzer (tests/core/differential_fuzz_test.cpp).
//
// make_fuzz_nest(cls, seed) deterministically generates a valid random
// nest of the given class.  Bounds are built as lower + width with the
// width's minimum over the whole iteration box (interval arithmetic over
// the outer-variable ranges, the parameter N ranging over
// [1, kFuzzMaxN]) fixed up to stay >= 1, so every generated nest
// satisfies the Fig. 5 no-empty-ranges model for EVERY N in
// [1, kFuzzMaxN] — one symbolic collapse() serves several bound domains.
// Degenerate cases may instead force a pointwise-zero width
// (expect_empty: collapse() or bind() must reject the domain).
//
// Reproducing a failure: every assertion message carries
// "class=<name> seed=<decimal>"; rerun just that case with
//   NRC_FUZZ_CLASS=<name> NRC_FUZZ_SEED=<decimal> ctest -R differential
// (see the Repro test in differential_fuzz_test.cpp and README.md).

enum class FuzzClass { Triangular, Tiled, Skewed, Degenerate };

inline constexpr FuzzClass kFuzzClasses[] = {
    FuzzClass::Triangular, FuzzClass::Tiled, FuzzClass::Skewed,
    FuzzClass::Degenerate};

inline constexpr i64 kFuzzMaxN = 7;  ///< generated nests are valid for N in [1, this]

inline const char* fuzz_class_name(FuzzClass c) {
  switch (c) {
    case FuzzClass::Triangular:
      return "triangular";
    case FuzzClass::Tiled:
      return "tiled";
    case FuzzClass::Skewed:
      return "skewed";
    case FuzzClass::Degenerate:
      return "degenerate";
  }
  return "?";
}

struct FuzzNest {
  NestSpec nest;
  FuzzClass cls = FuzzClass::Triangular;
  u64 seed = 0;
  bool expect_empty = false;  ///< collapse()/bind() must reject the domain
  ParamMap model_params;      ///< collapse()'s model check point (small, valid)
  ParamMap fixed_params;      ///< non-N parameters (the "S" offset), bound as-is

  /// Repro line prefixed to every assertion message.
  std::string repro() const {
    std::string s = std::string("class=") + fuzz_class_name(cls) +
                    " seed=" + std::to_string(seed);
    for (const auto& [k, v] : fixed_params) s += " " + k + "=" + std::to_string(v);
    return s + "\n" + nest.str();
  }
};

inline FuzzNest make_fuzz_nest(FuzzClass cls, u64 seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed5eedULL);
  auto pick = [&](i64 lo, i64 hi) {
    return lo + static_cast<i64>(rng() % static_cast<u64>(hi - lo + 1));
  };

  FuzzNest fc;
  fc.cls = cls;
  fc.seed = seed;
  fc.model_params["N"] = pick(2, 3);

  NestSpec n;
  n.param("N");

  int depth;
  if (cls == FuzzClass::Tiled) {
    depth = 2 * static_cast<int>(pick(1, 2));
  } else {
    // Skewed toward shallow nests; depth 5 (quartic level equations
    // inside deeper nests) kept rare because its symbolic collapse
    // dominates the fuzzing budget.
    const i64 roll = pick(0, 9);
    depth = roll < 3 ? 2 : roll < 6 ? 3 : roll < 9 ? 4 : 5;
  }

  // Magnitude regime: small coefficients, medium offsets, or
  // offsets near the exact-double limit.  The offset rides on a dedicated parameter S
  // (a literal 3e6 constant would overflow the *symbolic* ranking
  // machinery at depth 4 — shift^4 > int64 — whereas parameter folding
  // at bind() time demotes gracefully, exercising the i128 guards and
  // the Search/Interpreted fallbacks the way astronomical parameters
  // do in production).
  const i64 magroll = cls == FuzzClass::Degenerate ? pick(0, 2) : pick(0, 9);
  const i64 shift = magroll >= 2 ? 0
                    : magroll == 1 ? pick(50, 4000)
                                   : pick(50000, 3000000);
  if (shift > 0) {
    n.param("S");
    fc.fixed_params["S"] = shift;
    fc.model_params["S"] = shift;
  }

  // Degenerate sub-modes.
  const bool empty_domain = cls == FuzzClass::Degenerate && pick(0, 3) == 0;
  const bool single_point = !empty_domain && cls == FuzzClass::Degenerate && pick(0, 2) == 0;
  const int empty_level = empty_domain ? static_cast<int>(pick(0, depth - 1)) : -1;
  fc.expect_empty = empty_domain;

  std::vector<std::string> vars;
  std::vector<i64> vmin, vmax;  // interval over the box, N in [1, kFuzzMaxN]
  double prod = 1.0;            // running bound on the domain size

  // Random affine over the outer vars and N; returns the expression and
  // its [lo, hi] interval over the box.
  struct Iv {
    AffineExpr e;
    i64 lo = 0, hi = 0;
  };
  auto rand_aff = [&](i64 cmax, int max_terms, i64 c_lo, i64 c_hi, int n_coef_max) {
    Iv a;
    const int nt = static_cast<int>(pick(0, max_terms));
    for (int t = 0; t < nt && !vars.empty(); ++t) {
      const size_t j = static_cast<size_t>(pick(0, static_cast<i64>(vars.size()) - 1));
      const i64 coef = pick(-cmax, cmax);
      if (coef == 0) continue;
      a.e += coef * aff::v(vars[j]);
      a.lo += coef * (coef > 0 ? vmin[j] : vmax[j]);
      a.hi += coef * (coef > 0 ? vmax[j] : vmin[j]);
    }
    const i64 ncoef = pick(0, n_coef_max);
    if (ncoef > 0) {
      a.e += ncoef * aff::v("N");
      a.lo += ncoef * 1;
      a.hi += ncoef * kFuzzMaxN;
    }
    const i64 c = pick(c_lo, c_hi);
    a.e += aff::c(c);
    a.lo += c;
    a.hi += c;
    return a;
  };

  for (int k = 0; k < depth; ++k) {
    const std::string var = "t" + std::to_string(k);
    Iv lo, wd;
    const bool tiled_elem = cls == FuzzClass::Tiled && (k % 2) == 1;
    if (tiled_elem) {
      // Element loop of a tile pair: [B*ii, B*ii + B).
      const i64 B = pick(2, 4);
      lo.e = B * aff::v(vars.back());
      lo.lo = B * vmin.back();
      lo.hi = B * vmax.back();
      wd.e = aff::c(B);
      wd.lo = wd.hi = B;
    } else {
      switch (cls) {
        case FuzzClass::Triangular:
          // Chain on the previous iterator with unit coefficients, the
          // paper's triangular/tetrahedral shape family.
          if (k > 0 && pick(0, 9) < 8) {
            const size_t j = vars.size() - 1;
            const i64 c = pick(-1, 1);
            lo.e = aff::v(vars[j]) + aff::c(c);
            lo.lo = vmin[j] + c;
            lo.hi = vmax[j] + c;
            if (pick(0, 1)) {
              // Shared upper bound N + c' (the simplex family, whose
              // level-equation degree grows with every chained level —
              // quartic at depth 4): width = N + c' - lower, with the
              // fix-up below keeping it pointwise positive.
              const i64 cu = pick(0, 2);
              wd.e = aff::v("N") + aff::c(cu) - lo.e;
              wd.lo = 1 + cu - lo.hi;
              wd.hi = kFuzzMaxN + cu - lo.lo;
            } else {
              wd = rand_aff(1, 1, 0, 4, 1);
            }
          } else {
            lo = rand_aff(0, 0, 0, 2, 0);
            wd = rand_aff(1, 1, 0, 4, 1);
          }
          break;
        case FuzzClass::Tiled:  // block loop of a pair
          lo = rand_aff(0, 0, 0, 1, 0);
          wd = rand_aff(0, 0, 2, 4, pick(0, 1) ? 1 : 0);
          break;
        case FuzzClass::Skewed:
          lo = rand_aff(3, 2, -2, 2, 1);
          wd = rand_aff(2, 1, 0, 4, 1);
          break;
        case FuzzClass::Degenerate:
          lo = rand_aff(2, 1, 0, 2, 1);
          wd = single_point ? rand_aff(0, 0, 1, 1, 0) : rand_aff(1, 1, 0, 2, 1);
          break;
      }
    }
    if (k == 0 && shift > 0) {
      lo.e += aff::v("S");
      lo.lo += shift;
      lo.hi += shift;
    }
    if (k == empty_level) {
      wd = Iv{};  // pointwise-empty range: the whole domain is empty
    } else if (!tiled_elem) {
      // Pointwise validity: raise the width's constant so its interval
      // minimum is >= 1 over the whole box (single_point pins it to 1).
      // A fix-up that would materialize a large literal constant (the
      // width referenced a shift-scale outer variable negatively) is
      // replaced by a small constant width instead: literal constants
      // c make the *symbolic* ranking carry c^depth-scale coefficients,
      // which must stay inside exact int64 — offsets that big belong on
      // the S parameter, where bind-time folding demotes gracefully.
      if (single_point) wd = Iv{aff::c(1), 1, 1};
      if (wd.lo < 1) {
        const i64 fix = 1 - wd.lo;
        if (fix > 100) {
          const i64 cap = pick(1, 3);
          wd = Iv{aff::c(cap), cap, cap};
        } else {
          wd.e += aff::c(fix);
          wd.lo += fix;
          wd.hi += fix;
        }
      }
      // Keep full-domain sweeps affordable.
      if (prod * static_cast<double>(wd.hi) > 3000.0) {
        const i64 cap = pick(1, 2);
        wd = Iv{aff::c(cap), cap, cap};
      }
    }
    prod *= static_cast<double>(std::max<i64>(wd.hi, 1));
    n.loop(var, lo.e, lo.e + wd.e);
    vars.push_back(var);
    vmin.push_back(lo.lo);
    vmax.push_back(lo.hi + wd.hi - 1);
  }

  fc.nest = n;
  return fc;
}

/// The parameter values a generated nest is bound at: a small sweep of
/// N values the generator guaranteed valid, occasionally degenerate
/// (N = 1) first so empty/single-point rows surface.
inline std::vector<i64> fuzz_bind_values(const FuzzNest& fc) {
  if (fc.expect_empty) return {2};  // one rejected bind is enough
  std::mt19937_64 rng(fc.seed ^ 0xb1bdb1bdULL);
  std::vector<i64> out{1, 2 + static_cast<i64>(rng() % (kFuzzMaxN - 1))};
  if (out[1] != kFuzzMaxN) out.push_back(kFuzzMaxN);
  return out;
}

// ---------------------------------------------------------------------------
// Scheme-differential harness (tests/runtime/executor_fuzz_test.cpp).
//
// Every execution scheme must visit exactly the original nest's
// iteration multiset — the fundamental safety property of the
// transformation, checked here as (a) the visit count, (b) an
// order-insensitive checksum (a commutative sum of per-tuple mixes, so
// any thread interleaving accumulates the same value), and, on domains
// small enough to afford it, (c) the exact tuple multiset.  The
// reference is the sequential odometer walk — recover(1) plus
// increment(), the executable ground truth every recovery engine is
// already differentially fuzzed against.

/// Order-sensitive mix of one index tuple (splitmix64 per slot, chained
/// so (1, 2) and (2, 1) mix differently).  The codegen round trip
/// re-implements this exact function in emitted C — keep them in sync.
inline u64 tuple_mix(std::span<const i64> idx) {
  u64 h = 0x243f6a8885a308d3ULL ^ (0x9e3779b97f4a7c15ULL * idx.size());
  for (const i64 v : idx) {
    u64 x = static_cast<u64>(v) + 0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    h = (h ^ x) * 0x100000001b3ULL;
  }
  return h;
}

/// What one executor run visited, in order-insensitive form.
struct DomainObservation {
  i64 visits = 0;
  u64 checksum = 0;  ///< sum of tuple_mix over all visits (mod 2^64)
  bool track_tuples = false;
  std::map<std::vector<i64>, i64> tuples;  ///< multiset, when tracked
};

/// Sequential odometer reference for a bound domain.  Domains up to
/// `multiset_cap` iterations also record the exact tuple multiset so a
/// divergence names the first missing/duplicated tuple instead of just
/// a checksum mismatch.
inline DomainObservation odometer_reference(const CollapsedEval& cn,
                                            i64 multiset_cap = 4000) {
  DomainObservation ref;
  const i64 total = cn.trip_count();
  ref.track_tuples = total <= multiset_cap;
  const size_t d = static_cast<size_t>(cn.depth());
  i64 idx[kMaxDepth];
  cn.recover(1, {idx, d});
  for (i64 pc = 1; pc <= total; ++pc) {
    const std::span<const i64> t(idx, d);
    ++ref.visits;
    ref.checksum += tuple_mix(t);
    if (ref.track_tuples) ++ref.tuples[std::vector<i64>(t.begin(), t.end())];
    if (pc < total) cn.increment({idx, d});
  }
  return ref;
}

/// Thread-safe visit collector handed to the scheme under test.
class SchemeCollector {
 public:
  explicit SchemeCollector(bool track_tuples) { obs_.track_tuples = track_tuples; }

  void visit(std::span<const i64> idx) {
    const u64 h = tuple_mix(idx);
    std::lock_guard<std::mutex> lock(mu_);
    ++obs_.visits;
    obs_.checksum += h;
    if (obs_.track_tuples) ++obs_.tuples[std::vector<i64>(idx.begin(), idx.end())];
  }

  /// Compare against the reference; the failure message names the first
  /// divergent tuple when the multiset was tracked.
  ::testing::AssertionResult compare(const DomainObservation& ref) const {
    if (obs_.visits == ref.visits && obs_.checksum == ref.checksum &&
        (!ref.track_tuples || obs_.tuples == ref.tuples))
      return ::testing::AssertionSuccess();
    auto out = ::testing::AssertionFailure();
    out << "visited " << obs_.visits << " of " << ref.visits
        << " iterations, checksum " << obs_.checksum << " vs " << ref.checksum;
    if (ref.track_tuples) {
      for (const auto& [t, n] : ref.tuples) {
        auto it = obs_.tuples.find(t);
        const i64 got = it == obs_.tuples.end() ? 0 : it->second;
        if (got != n) {
          out << "; first divergent tuple (";
          for (size_t q = 0; q < t.size(); ++q) out << (q ? "," : "") << t[q];
          out << ") visited " << got << "x instead of " << n << "x";
          break;
        }
      }
      for (const auto& [t, n] : obs_.tuples) {
        if (!ref.tuples.count(t)) {
          out << "; visited tuple outside the domain (";
          for (size_t q = 0; q < t.size(); ++q) out << (q ? "," : "") << t[q];
          out << ") " << n << "x";
          break;
        }
      }
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  DomainObservation obs_;
};

/// Run one scheme through the differential check: `run` receives a
/// thread-safe `void(std::span<const i64>)` visitor, executes the
/// scheme with it as the body (adapting segment/block/lane body shapes
/// as needed), and the visited multiset/checksum is compared against
/// the odometer reference.  Usage:
///   EXPECT_TRUE(run_scheme_differential(cn, ref, [&](auto&& visit) {
///     nrc::run(cn, Schedule::chunked(chunk, {threads}), visit);
///   })) << repro << " scheme=chunked";
template <class RunScheme>
::testing::AssertionResult run_scheme_differential(const CollapsedEval& cn,
                                                   const DomainObservation& ref,
                                                   RunScheme&& run) {
  SchemeCollector col(ref.track_tuples);
  run([&col](std::span<const i64> idx) { col.visit(idx); });
  (void)cn;
  return col.compare(ref);
}

/// Adapt the row-segment body contract (outer prefix + innermost range
/// [j_begin, j_end)) to a whole-tuple visitor.  `visit` is captured by
/// reference and must outlive the returned closure.
template <class Visit>
auto segment_adapter(const CollapsedEval& cn, Visit& visit) {
  return [&cn, &visit](std::span<const i64> prefix, i64 j_begin, i64 j_end) {
    i64 t[kMaxDepth];
    std::copy(prefix.begin(), prefix.end(), t);
    const size_t d = static_cast<size_t>(cn.depth());
    for (i64 j = j_begin; j < j_end; ++j) {
      t[d - 1] = j;
      visit(std::span<const i64>(t, d));
    }
  };
}

/// Adapt the SoA lane-block body contract (lanes, cols[k][lane]) to a
/// whole-tuple visitor.  Same lifetime contract as segment_adapter.
template <class Visit>
auto block_adapter(const CollapsedEval& cn, Visit& visit) {
  return [&cn, &visit](int lanes, const i64* const* cols) {
    const size_t d = static_cast<size_t>(cn.depth());
    i64 t[kMaxDepth];
    for (int l = 0; l < lanes; ++l) {
      for (size_t k = 0; k < d; ++k) t[k] = cols[k][static_cast<size_t>(l)];
      visit(std::span<const i64>(t, d));
    }
  };
}

/// True when `s` has a body shape of its own: row segments for the
/// RowSegments schemes, SoA lane blocks for the SimdBlocks schemes.
inline bool has_native_shape(Scheme s) {
  return s == Scheme::RowSegments || s == Scheme::RowSegmentsChunked ||
         s == Scheme::SimdBlocks || s == Scheme::SimdBlocksChunked;
}

/// nrc::run(cn, s, ...) with the body shape native to the scheme,
/// adapted back to the tuple visitor `visit`; schemes without a native
/// shape get `visit` itself.
template <class Visit>
void run_native(const CollapsedEval& cn, const Schedule& s, Visit& visit) {
  switch (s.scheme) {
    case Scheme::RowSegments:
    case Scheme::RowSegmentsChunked:
      nrc::run(cn, s, segment_adapter(cn, visit));
      return;
    case Scheme::SimdBlocks:
    case Scheme::SimdBlocksChunked:
      nrc::run(cn, s, block_adapter(cn, visit));
      return;
    default:
      nrc::run(cn, s, visit);
  }
}

/// Run `s` over `nest` bound at `params` through run_native and compare
/// the visits with the brute-force walk of the original nest: every
/// point exactly once, nothing outside it.
inline ::testing::AssertionResult run_covers(const NestSpec& nest, const ParamMap& params,
                                             const Schedule& s) {
  DomainObservation ref;
  ref.track_tuples = true;
  walk_domain(nest, params, [&](std::span<const i64> t) {
    ++ref.visits;
    ref.checksum += tuple_mix(t);
    ++ref.tuples[std::vector<i64>(t.begin(), t.end())];
  });
  const CollapsedEval cn = collapse(nest).bind(params);
  return run_scheme_differential(cn, ref, [&](auto&& visit) { run_native(cn, s, visit); })
         << " (" << s.describe() << ")";
}

}  // namespace nrc::testutil

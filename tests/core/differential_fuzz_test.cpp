// Randomized differential nest fuzzer: seeded random nests (triangular,
// tiled, skewed, degenerate — see testutil::make_fuzz_nest) are collapsed
// and bound over a sweep of parameter values, and every recovery path the
// engine exposes is cross-checked against the all-integer binary-search
// oracle on each domain:
//
//   recover            — degree-specialized guarded solvers (Ferrari
//                        included) with the proven-f64 guard policy,
//   recover   [i128]   — the same engine with set_f64_guards(false),
//                        byte-identical by the exactness proof,
//   recover_block      — one solve per block, then row arithmetic,
//
// plus rank() round trips.  Domains expected empty must be rejected by
// collapse()/bind().  Every domain also cross-checks the analyzer's
// certificate: an exact_f64 verdict promises zero search fallbacks.
//
// Slices: the fast deterministic slice (a few hundred domains per class)
// runs under the plain tier1 ctest label; the long randomized slice
// (NRC_FUZZ_DOMAINS per class, default 10000 — the CI push-to-main
// sanitize leg runs it under ASan/UBSan) is the separate
// nrc_differential_fuzz_long ctest entry (labels tier1;long).  The long
// slice also binds the generated shapes at N = 10^3 .. 10^6, where the
// closed forms meet index magnitudes the small sweeps never reach, and
// samples pcs there to cross-check every exact_f64 certificate.
//
// Reproducing a failure: every assertion prefixes its message with
// "class=<name> seed=<decimal>".  Rerun exactly that case with
//   NRC_FUZZ_CLASS=<name> NRC_FUZZ_SEED=<decimal> \
//     ./nrc_differential_fuzz_test --gtest_filter=DifferentialFuzz.Repro
// and shrink by editing the seed's generated nest printed in the message.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "analysis/nest_analyzer.hpp"

namespace nrc {
namespace {

using testutil::FuzzClass;
using testutil::FuzzNest;

i64 env_i64(const char* name, i64 fallback) {
  const char* e = std::getenv(name);
  return e && *e ? std::atoll(e) : fallback;
}

/// Aggregate visibility into what a fuzz run actually exercised.
struct FuzzTally {
  i64 domains = 0;
  i64 rejected_empty = 0;
  i64 quartic_domains = 0;
  i64 search_levels = 0;  // level solves that fell back to search
  i64 certified_exact = 0;  // domains the analyzer certified f64-exact
  RecoveryStats stats;
};

/// Cross-check every recovery path over one bound domain.
void check_domain(const CollapsedEval& cn, const std::string& repro, FuzzTally* tally) {
  const i64 total = cn.trip_count();
  const size_t d = static_cast<size_t>(cn.depth());
  ASSERT_GE(total, 1) << repro;

  CollapsedEval ref_guards = cn;
  ref_guards.set_f64_guards(false);

  bool quartic = false;
  for (int k = 0; k < cn.depth(); ++k)
    if (cn.solver_kind(k) == LevelSolverKind::Quartic) quartic = true;
  if (quartic) ++tally->quartic_domains;

  // The full domain when small; otherwise a stride that still lands on
  // both ends (the generator keeps most domains small enough for full
  // sweeps, so sampling only kicks in for the widest cases).
  const i64 step = total <= 400 ? 1 : total / 256;

  std::vector<i64> eng(d), other(d), ref(d);
  for (i64 pc = 1; pc <= total; pc += step) {
    cn.recover_search(pc, ref);
    cn.recover(pc, eng, &tally->stats);
    ASSERT_EQ(eng, ref) << repro << "recover disagrees with search at pc=" << pc;
    ref_guards.recover(pc, other);
    ASSERT_EQ(other, ref) << repro << "recover with i128 guards disagrees at pc=" << pc;
    ASSERT_EQ(cn.rank(ref), pc) << repro << "rank round trip failed at pc=" << pc;
  }
  {
    // Last tuple exactly (the strided loop may miss it).
    cn.recover_search(total, ref);
    cn.recover(total, eng, &tally->stats);
    ASSERT_EQ(eng, ref) << repro << "recover disagrees at pc=trip_count";
  }

  // recover_block: one solve per block, the rest by row arithmetic.
  constexpr i64 kB = 5;
  std::vector<i64> blk(kB * d);
  for (i64 lo = 1; lo <= total; lo += kB * step) {
    const i64 got = cn.recover_block(lo, kB, blk, &tally->stats);
    ASSERT_EQ(got, std::min<i64>(kB, total - lo + 1)) << repro << "recover_block rows";
    for (i64 r = 0; r < got; ++r) {
      cn.recover_search(lo + r, ref);
      for (size_t q = 0; q < d; ++q)
        ASSERT_EQ(blk[static_cast<size_t>(r) * d + q], ref[q])
            << repro << "recover_block disagrees at pc=" << lo + r;
    }
  }
}

/// Run one seeded case end to end (shared by the sweeps and the
/// env-driven Repro test).
void run_case(const FuzzNest& fc, FuzzTally* tally) {
  CollapseOptions opts;
  opts.model_params = fc.model_params;
  if (fc.expect_empty) {
    ParamMap p = fc.fixed_params;
    p["N"] = 2;
    bool rejected = false;
    try {
      collapse(fc.nest, opts).bind(p);
    } catch (const SpecError&) {
      rejected = true;
    } catch (const SolveError&) {
      rejected = true;
    }
    ASSERT_TRUE(rejected) << fc.repro() << "empty domain was not rejected";
    // Certificate leg: the analyzer must refuse what bind() refuses —
    // without throwing, and at error severity.
    const NestCertificate cert = analyze_nest(fc.nest, p, opts);
    EXPECT_FALSE(cert.bind_ok) << fc.repro() << "analyzer certified a rejected domain";
    EXPECT_EQ(cert.max_severity(), LintSeverity::Error)
        << fc.repro() << "rejected domain lints below error severity:\n" << cert.str();
    ++tally->domains;
    ++tally->rejected_empty;
    return;
  }
  try {
    const Collapsed col = collapse(fc.nest, opts);
    for (const i64 nv : testutil::fuzz_bind_values(fc)) {
      ParamMap p = fc.fixed_params;
      p["N"] = nv;
      const CollapsedEval cn = col.bind(p);
      const std::string repro = fc.repro() + "\nN=" + std::to_string(nv) + "\n";

      // Certificate leg: analyze the same (nest, params, options)
      // triple and cross-validate every claim against what this domain
      // actually does.  A certificate is a promise — any disagreement
      // here is an analyzer soundness bug, not noise.
      const NestCertificate cert = analyze_nest(fc.nest, p, opts);
      ASSERT_TRUE(cert.bind_ok) << repro << "bind succeeded but the analyzer says not:\n"
                                << cert.str();
      ASSERT_EQ(cert.total_trip, cn.trip_count())
          << repro << "certificate trip count disagrees with bind";
      if (cert.trip_i64_safe && cn.trip_count() <= 400) {
        // Odometer cross-check of the i64-safe claim: walk the domain
        // point by point and count (full sweep domains only; the wide
        // ones are covered by the strided recover-vs-search loop).
        std::vector<i64> idx(static_cast<size_t>(cn.depth()));
        cn.first(idx);
        i64 count = 1;
        while (cn.increment(idx)) ++count;
        ASSERT_EQ(count, cert.total_trip)
            << repro << "certified i64-safe trip count disagrees with the odometer";
      }

      const RecoveryStats before = tally->stats;
      check_domain(cn, repro, tally);
      if (::testing::Test::HasFatalFailure()) return;
      if (cert.exact_f64) {
        // Certified f64-exact: every recovery the sweep performed must
        // have stayed on the closed-form path — zero search fallbacks
        // (the acceptance bar: no false "exact" certificates, ever).
        ASSERT_EQ(tally->stats.fallback, before.fallback)
            << repro << "certified f64-exact but a recovery fell back to search:\n"
            << cert.str();
        ++tally->certified_exact;
      }
      ++tally->domains;
    }
  } catch (const std::exception& ex) {
    FAIL() << fc.repro() << "unexpected exception: " << ex.what();
  }
}

void run_fuzz(FuzzClass cls, i64 domains_target, u64 seed_base) {
  FuzzTally tally;
  u64 seed = seed_base;
  while (tally.domains < domains_target) {
    run_case(testutil::make_fuzz_nest(cls, seed++), &tally);
    if (::testing::Test::HasFatalFailure()) return;
  }
  tally.search_levels = tally.stats.fallback;
  std::printf(
      "[fuzz %-10s] domains=%lld (empty=%lld, quartic=%lld, certified_exact=%lld) "
      "levels: closed=%lld corrected=%lld search=%lld\n",
      testutil::fuzz_class_name(cls), static_cast<long long>(tally.domains),
      static_cast<long long>(tally.rejected_empty),
      static_cast<long long>(tally.quartic_domains),
      static_cast<long long>(tally.certified_exact),
      static_cast<long long>(tally.stats.closed_form),
      static_cast<long long>(tally.stats.corrected),
      static_cast<long long>(tally.stats.fallback));
  // The sweep must actually exercise the engine, not degenerate into
  // vacuous domains: every class recovers through closed forms somewhere.
  EXPECT_GT(tally.stats.closed_form, 0);
  // ... and the certificate leg must not be vacuous either: the
  // analyzer certifies a healthy share of every class's domains (were
  // exact_f64 to regress to constant-false, the cross-validation above
  // would pass trivially).
  EXPECT_GT(tally.certified_exact, 0) << "analyzer certified nothing in this class";
}

// ------------------------------------------------- fast deterministic slice

TEST(DifferentialFuzz, Triangular) {
  run_fuzz(FuzzClass::Triangular, env_i64("NRC_FUZZ_FAST_DOMAINS", 120), 0x7100);
}
TEST(DifferentialFuzz, Tiled) {
  run_fuzz(FuzzClass::Tiled, env_i64("NRC_FUZZ_FAST_DOMAINS", 120), 0x7200);
}
TEST(DifferentialFuzz, Skewed) {
  run_fuzz(FuzzClass::Skewed, env_i64("NRC_FUZZ_FAST_DOMAINS", 120), 0x7300);
}
TEST(DifferentialFuzz, Degenerate) {
  run_fuzz(FuzzClass::Degenerate, env_i64("NRC_FUZZ_FAST_DOMAINS", 120), 0x7400);
}

/// Rerun a single seed from a failure message:
///   NRC_FUZZ_CLASS=<name> NRC_FUZZ_SEED=<decimal> \
///     ./nrc_differential_fuzz_test --gtest_filter=DifferentialFuzz.Repro
TEST(DifferentialFuzz, Repro) {
  const char* cls_s = std::getenv("NRC_FUZZ_CLASS");
  const char* seed_s = std::getenv("NRC_FUZZ_SEED");
  if (!cls_s || !seed_s)
    GTEST_SKIP() << "set NRC_FUZZ_CLASS and NRC_FUZZ_SEED to rerun one case";
  FuzzClass cls = FuzzClass::Triangular;
  bool found = false;
  for (const FuzzClass c : testutil::kFuzzClasses) {
    if (std::string(cls_s) == testutil::fuzz_class_name(c)) {
      cls = c;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "unknown NRC_FUZZ_CLASS '" << cls_s << "'";
  FuzzTally tally;
  const FuzzNest fc = testutil::make_fuzz_nest(cls, std::strtoull(seed_s, nullptr, 0));
  std::printf("%s\n", fc.repro().c_str());
  run_case(fc, &tally);
}

// ----------------------------------------- long randomized slice (label: long)
//
// NRC_FUZZ_DOMAINS domains per class (default 10000); wired into the
// push-to-main CI sanitize leg, where the whole slice runs under
// ASan/UBSan.

i64 long_domains() { return env_i64("NRC_FUZZ_DOMAINS", 10000); }

TEST(DifferentialFuzzLong, Triangular) {
  run_fuzz(FuzzClass::Triangular, long_domains(), 0xA100);
}
TEST(DifferentialFuzzLong, Tiled) {
  run_fuzz(FuzzClass::Tiled, long_domains(), 0xA200);
}
TEST(DifferentialFuzzLong, Skewed) {
  run_fuzz(FuzzClass::Skewed, long_domains(), 0xA300);
}
TEST(DifferentialFuzzLong, Degenerate) {
  run_fuzz(FuzzClass::Degenerate, long_domains(), 0xA400);
}

/// One class's shapes bound at large N: wherever the analyzer certifies
/// exact_f64 and proves every row non-empty (extent_min >= 1: the
/// generator only guarantees the model for small N), sampled pcs must
/// recover exactly with zero search fallbacks.  Uncertified domains
/// still have to recover exactly.
void run_large_magnitudes(FuzzClass cls, i64 seeds, u64 seed_base) {
  i64 domains = 0, certified = 0, false_certificates = 0;
  RecoveryStats all;
  for (u64 seed = seed_base; seed < seed_base + static_cast<u64>(seeds); ++seed) {
    const FuzzNest fc = testutil::make_fuzz_nest(cls, seed);
    if (fc.expect_empty) continue;
    CollapseOptions opts;
    opts.model_params = fc.model_params;
    const Collapsed col = collapse(fc.nest, opts);
    for (const i64 nv : {i64{1000}, i64{10000}, i64{100000}, i64{1000000}}) {
      ParamMap p = fc.fixed_params;
      p["N"] = nv;
      const NestCertificate cert = analyze_nest(fc.nest, p, {});
      if (!cert.bind_ok) continue;  // trip count past i64: the bind limit
      bool in_model = true;
      for (const LevelReport& r : cert.levels) in_model = in_model && r.extent_min >= 1;
      if (!in_model) continue;
      const CollapsedEval cn = col.bind(p);
      const std::string repro = fc.repro() + "\nN=" + std::to_string(nv) + "\n";
      const size_t d = static_cast<size_t>(cn.depth());
      std::vector<i64> eng(d), ref(d);
      RecoveryStats stats;
      std::mt19937_64 rng(seed * 31 + static_cast<u64>(nv));
      for (int i = 0; i < 200; ++i) {
        const i64 pc = i == 0 ? cn.trip_count()
                              : 1 + static_cast<i64>(rng() % static_cast<u64>(cn.trip_count()));
        cn.recover_search(pc, ref);
        cn.recover(pc, eng, &stats);
        ASSERT_EQ(eng, ref) << repro << "recover disagrees with search at pc=" << pc;
      }
      ++domains;
      all += stats;
      if (cert.exact_f64) {
        ++certified;
        if (stats.fallback > 0) ++false_certificates;
        EXPECT_EQ(stats.fallback, 0)
            << repro << "certified f64-exact but a recovery fell back to search:\n"
            << cert.str();
      }
    }
  }
  std::printf(
      "[large %-10s] domains=%lld certified_exact=%lld false_certificates=%lld "
      "levels: closed=%lld corrected=%lld search=%lld\n",
      testutil::fuzz_class_name(cls), static_cast<long long>(domains),
      static_cast<long long>(certified), static_cast<long long>(false_certificates),
      static_cast<long long>(all.closed_form), static_cast<long long>(all.corrected),
      static_cast<long long>(all.fallback));
  EXPECT_EQ(false_certificates, 0);
  EXPECT_GT(certified, 0) << "analyzer certified nothing at large magnitudes";
}

i64 large_seeds() { return env_i64("NRC_FUZZ_LARGE_SEEDS", 400); }

TEST(DifferentialFuzzLong, TriangularAtLargeMagnitudes) {
  run_large_magnitudes(FuzzClass::Triangular, large_seeds(), 0xC100);
}
TEST(DifferentialFuzzLong, TiledAtLargeMagnitudes) {
  run_large_magnitudes(FuzzClass::Tiled, large_seeds(), 0xC200);
}
TEST(DifferentialFuzzLong, SkewedAtLargeMagnitudes) {
  run_large_magnitudes(FuzzClass::Skewed, large_seeds(), 0xC300);
}
TEST(DifferentialFuzzLong, DegenerateAtLargeMagnitudes) {
  run_large_magnitudes(FuzzClass::Degenerate, large_seeds(), 0xC400);
}

}  // namespace
}  // namespace nrc

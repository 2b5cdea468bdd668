// Randomized whole-pipeline property test.
//
// Generates random affine nests that satisfy the Fig. 5 model by
// construction (every range non-empty: upper := lower + positive width)
// and validates the complete collapse pipeline on each: ranking
// bijection, closed-form recovery with guards, exact search recovery,
// and odometer order.  Seeded deterministically, so failures reproduce.

#include <gtest/gtest.h>

#include <random>

#include "../test_util.hpp"

namespace nrc {
namespace {

struct FuzzCase {
  unsigned seed;
  int depth;
};

/// Build a random model-conforming nest:
///   lower_k = small random combo of outer iterators + params + const
///   upper_k = lower_k + (non-negative combo) + positive const
/// Coefficients stay small so degrees stay within the closed-form range
/// for depth <= 4 chains.
NestSpec random_nest(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> coef(-1, 1);
  std::uniform_int_distribution<int> pos_coef(0, 1);
  std::uniform_int_distribution<int> cst(-2, 2);
  std::uniform_int_distribution<int> width(1, 4);

  NestSpec nest;
  nest.param("N");
  const char* vars[] = {"i", "j", "k", "l"};

  for (int d = 0; d < depth; ++d) {
    AffineExpr lo = AffineExpr(cst(rng));
    // Occasionally anchor the lower bound to N or an outer iterator.
    if (pos_coef(rng)) lo += AffineExpr::variable("N", pos_coef(rng));
    for (int q = 0; q < d; ++q) lo += AffineExpr::variable(vars[q], coef(rng));

    AffineExpr wid = AffineExpr(width(rng));
    wid += AffineExpr::variable("N", 1);  // keep domains O(N) wide
    for (int q = 0; q < d; ++q) wid += AffineExpr::variable(vars[q], pos_coef(rng));

    // Non-negativity of `wid` holds because iterators can only be
    // negative by a bounded constant here while N dominates; verified
    // below by has_no_empty_ranges before the case is used.
    nest.loop(vars[d], lo, lo + wid);
  }
  return nest;
}

class FuzzShapes : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzShapes, WholeDomainRoundTrip) {
  const FuzzCase fc = GetParam();
  std::mt19937 rng(fc.seed);
  const NestSpec nest = random_nest(rng, fc.depth);
  const ParamMap params{{"N", 7}};

  if (!has_no_empty_ranges(nest, params) || count_domain_brute(nest, params) < 2)
    GTEST_SKIP() << "generated nest left the model for this size";

  Collapsed col;  // default-constructed; assigned below
  try {
    col = collapse(nest);
  } catch (const SolveError& e) {
    // A nest with an empty range at every sampled size, or a level
    // equation constant in its own variable, violates the model; that
    // is a correct rejection.
    GTEST_SKIP() << "rejected at collapse time: " << e.what();
  }
  // Depth-4 random nests can reach ~10^6 points; cap the sweep so the
  // suite stays fast while every case still checks thousands of points.
  ValidateOptions vopts;
  vopts.max_points = 5000;
  const auto rep = validate_collapsed(col, params, vopts);
  EXPECT_TRUE(rep.ok) << nest.str() << rep.first_error;

  // A second, larger size: the interval root generalizes (§IV-D).
  // Gate on the symbolic count first — walking a multi-million-point
  // domain just to validate a capped prefix is wasted time.
  const ParamMap big{{"N", 19}};
  std::map<std::string, i64> bp(big.begin(), big.end());
  if (col.ranking().total.eval_i128(bp) <= 200000 && has_no_empty_ranges(nest, big)) {
    const auto rep2 = validate_collapsed(col, big, vopts);
    EXPECT_TRUE(rep2.ok) << nest.str() << rep2.first_error;
  }
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (int depth = 2; depth <= 4; ++depth) {
    for (unsigned seed = 1; seed <= 40; ++seed) {
      cases.push_back({seed * 7919u + static_cast<unsigned>(depth), depth});
    }
  }
  return cases;
}

std::string fuzz_name(const ::testing::TestParamInfo<FuzzCase>& info) {
  return "d" + std::to_string(info.param.depth) + "_s" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Random, FuzzShapes, ::testing::ValuesIn(fuzz_cases()),
                         fuzz_name);

}  // namespace
}  // namespace nrc

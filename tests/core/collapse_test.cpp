#include "core/collapse.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../test_util.hpp"
#include "core/validate.hpp"

namespace nrc {
namespace {

TEST(Collapse, ApiBasics) {
  const Collapsed col = collapse(testutil::triangular_strict());
  EXPECT_EQ(col.nest().depth(), 2);
  EXPECT_TRUE(col.fully_closed_form());
  EXPECT_EQ(col.slot_order(),
            (std::vector<std::string>{"i", "j", "N", "pc"}));
  const std::string d = col.describe();
  EXPECT_NE(d.find("ranking polynomial"), std::string::npos);
  EXPECT_NE(d.find("trip count"), std::string::npos);
}

std::string render_nest(const Collapsed& col) { return col.nest().str(); }
std::string render_total(const Collapsed& col) { return col.ranking().total.str(); }

TEST(Collapse, EmittedRecoveryTextIsRenderedOnceByOneRenderer) {
  const Collapsed col = collapse(testutil::triangular_strict());
  const Collapsed copy = col;  // shares the artifact
  const std::string& text = col.emitted_recovery_text(render_nest);
  EXPECT_EQ(text, col.nest().str());
  EXPECT_EQ(&copy.emitted_recovery_text(render_nest), &text);
  EXPECT_THROW(copy.emitted_recovery_text(render_total), std::logic_error);
}

TEST(Collapse, BindComputesTripCount) {
  const Collapsed col = collapse(testutil::triangular_strict());
  EXPECT_EQ(col.bind({{"N", 100}}).trip_count(), 99 * 100 / 2);
  EXPECT_EQ(col.bind({{"N", 5000}}).trip_count(), 4999LL * 5000 / 2);
}

TEST(Collapse, BindRejectsMissingParamAndEmptyDomain) {
  const Collapsed col = collapse(testutil::triangular_strict());
  EXPECT_THROW(col.bind({}), SpecError);
  EXPECT_THROW(col.bind({{"N", 1}}), SpecError);  // empty domain
}

TEST(Collapse, RankAndRecoverAgree) {
  const Collapsed col = collapse(testutil::tetrahedral_fig6());
  const CollapsedEval cn = col.bind({{"N", 15}});
  std::vector<i64> idx(3);
  for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
    cn.recover(pc, idx);
    EXPECT_EQ(cn.rank(idx), pc);
  }
}

TEST(Collapse, FirstLastIncrement) {
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 6}});
  std::vector<i64> idx(2);
  cn.first(idx);
  EXPECT_EQ(idx, (std::vector<i64>{0, 1}));
  std::vector<i64> lst(2);
  cn.last(lst);
  EXPECT_EQ(lst, (std::vector<i64>{4, 5}));
  // Walk the whole domain by increment.
  i64 steps = 1;
  while (cn.increment(idx)) ++steps;
  EXPECT_EQ(steps, cn.trip_count());
}

TEST(Collapse, BoundsEvaluation) {
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 10}});
  const std::vector<i64> idx{3, 4};
  EXPECT_EQ(cn.lower_bound(0, idx), 0);
  EXPECT_EQ(cn.upper_bound(0, idx), 9);
  EXPECT_EQ(cn.lower_bound(1, idx), 4);  // i + 1
  EXPECT_EQ(cn.upper_bound(1, idx), 10);
}

TEST(Collapse, ClosedFormDisabledStillRecovers) {
  CollapseOptions opts;
  opts.build_closed_form = false;
  const Collapsed col = collapse(testutil::triangular_strict(), opts);
  EXPECT_FALSE(col.fully_closed_form());
  const auto rep = validate_collapsed(col, {{"N", 20}});
  EXPECT_TRUE(rep.ok) << rep.first_error;
}

TEST(Collapse, DegreeBeyondFourFallsBackToSearch) {
  const Collapsed col = collapse(testutil::simplex_5d());
  EXPECT_FALSE(col.fully_closed_form());  // level 0 has degree 5
  EXPECT_TRUE(col.levels()[0].coeffs.empty());
  EXPECT_FALSE(col.levels()[1].coeffs.empty());  // degree 4 still closed-form
  const auto rep = validate_collapsed(col, {{"N", 5}});
  EXPECT_TRUE(rep.ok) << rep.first_error;
}

TEST(Collapse, SingleLoopCollapse) {
  // Depth-1 "collapse" degenerates to the identity mapping pc -> i.
  NestSpec n;
  n.param("N").loop("i", aff::c(2), aff::v("N"));
  const Collapsed col = collapse(n);
  const CollapsedEval cn = col.bind({{"N", 9}});
  EXPECT_EQ(cn.trip_count(), 7);
  std::vector<i64> idx(1);
  cn.recover(3, idx);
  EXPECT_EQ(idx[0], 4);  // lb 2 + (pc 3 - 1)
}

TEST(Collapse, DepthLimitEnforced) {
  NestSpec deep;
  deep.param("N");
  std::string prev;
  for (int k = 0; k < kMaxDepth + 1; ++k) {
    const std::string v = "v" + std::to_string(k);
    deep.loop(v, aff::c(0), aff::v("N"));
    prev = v;
  }
  EXPECT_THROW(collapse(deep), SpecError);
}

TEST(Collapse, RecoverClosedRawMatchesGuardedOnWellConditionedSizes) {
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 64}});
  std::vector<i64> raw(2), guarded(2);
  for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
    cn.recover(pc, guarded);
    ASSERT_TRUE(cn.recover_closed_raw(pc, raw));
    EXPECT_EQ(raw, guarded) << "pc=" << pc;
  }
}

TEST(Collapse, LargeParameterRecoveryIsExact) {
  // Floating-point guard test: at N = 2^20 the discriminant is ~4e12 and
  // naive floor(double) can be off by one; the integer correction must
  // make recovery exact.  Probe ranks around row boundaries, where the
  // root is an exact integer (the worst case).
  const Collapsed col = collapse(testutil::triangular_strict());
  const i64 N = 1 << 20;
  const CollapsedEval cn = col.bind({{"N", N}});
  std::vector<i64> idx(2);
  for (i64 i : {i64{0}, i64{1}, i64{77}, N / 3, N / 2, N - 3}) {
    // pc of the first iteration of row i: r(i, i+1).
    const std::vector<i64> first_of_row{i, i + 1};
    const i64 pc = cn.rank(first_of_row);
    for (i64 delta = -2; delta <= 2; ++delta) {
      const i64 probe = pc + delta;
      if (probe < 1 || probe > cn.trip_count()) continue;
      cn.recover(probe, idx);
      EXPECT_EQ(cn.rank(idx), probe) << "i=" << i << " delta=" << delta;
      std::vector<i64> via_search(2);
      cn.recover_search(probe, via_search);
      EXPECT_EQ(idx, via_search) << "i=" << i << " delta=" << delta;
    }
  }
}

// The 4-deep simplex shifted by S has C(N+3, 4) points whatever S is,
// but its rank polynomial is evaluated in expanded monomials up to i^4.
// bind() refuses a shift whose terms may leave the i128 range — every
// recovery there would throw — and keeps binding S = 10^9 exactly.
TEST(Collapse, BindRefusesRankEvaluationsPastI128) {
  NestSpec nest;
  nest.param("N").param("S")
      .loop("i", aff::v("S"), aff::v("S") + aff::v("N"))
      .loop("j", aff::v("i"), aff::v("S") + aff::v("N"))
      .loop("k", aff::v("j"), aff::v("S") + aff::v("N"))
      .loop("l", aff::v("k"), aff::v("S") + aff::v("N"));
  const Collapsed col = collapse(nest);
  try {
    (void)col.bind({{"N", 5}, {"S", 30'000'000'000}});
    ADD_FAILURE() << "bind accepted a domain every recovery of which overflows";
  } catch (const OverflowError& e) {
    EXPECT_NE(std::string(e.what()).find("rank evaluation"), std::string::npos) << e.what();
  }

  const CollapsedEval cn = col.bind({{"N", 5}, {"S", 1'000'000'000}});
  ASSERT_EQ(cn.trip_count(), 70);
  std::vector<i64> idx(4), ref(4);
  for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
    cn.recover(pc, idx);
    cn.recover_search(pc, ref);
    EXPECT_EQ(idx, ref) << "pc=" << pc;
  }

  // Signed per-slot ranges let terms of opposite sign offset each other
  // in the bound: S = 2.1*10^9 binds (a magnitude bound refused it from
  // S ~ 1.87*10^9), and its recoveries are exact.
  for (const i64 n : {5, 50}) {
    const CollapsedEval far = col.bind({{"N", n}, {"S", 2'100'000'000}});
    const i64 total = far.trip_count();
    for (i64 pc = 1; pc <= total; pc += std::max<i64>(1, total / 97)) {
      far.recover(pc, idx);
      far.recover_search(pc, ref);
      EXPECT_EQ(idx, ref) << "N=" << n << " pc=" << pc;
    }
    far.recover(total, idx);
    far.recover_search(total, ref);
    EXPECT_EQ(idx, ref) << "N=" << n << " pc=" << total;
  }
}

}  // namespace
}  // namespace nrc

// Breadth tests for public-API behaviours not covered by the focused
// module suites: describe() content, emitter option combinations,
// evaluator edge semantics, reserved names, and cross-module plumbing.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "codegen/c_emitter.hpp"

namespace nrc {
namespace {

TEST(Describe, ContainsPaperFormulasForCorrelation) {
  const Collapsed col = collapse(testutil::triangular_strict());
  const std::string d = col.describe();
  // The §III ranking polynomial, rendered from the exact rationals.
  EXPECT_NE(d.find("-1/2*i^2"), std::string::npos) << d;
  EXPECT_NE(d.find("N*i"), std::string::npos);
  EXPECT_NE(d.find("1/2*N^2 - 1/2*N"), std::string::npos);
  EXPECT_NE(d.find("degree 2"), std::string::npos);
  // Level 0's equation: -1/2*i^2 + (N - 1/2)*i + 1 - pc = 0, solved in [0, N - 1).
  EXPECT_NE(d.find("root in [0, N - 1)"), std::string::npos) << d;
  EXPECT_NE(d.find("    a2 = -1/2\n"), std::string::npos) << d;
}

TEST(Describe, SearchFallbackIsReported) {
  const Collapsed col = collapse(testutil::simplex_5d());
  EXPECT_NE(col.describe().find("exact binary search"), std::string::npos);
}

TEST(Emitter, DynamicScheduleOption) {
  const NestProgram prog = parse_nest_program(R"(
name dyn
params N
array double x[N]
loop i = 0 .. N
loop j = i .. N
body { x[i] += (double)j; }
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::per_iteration(OmpSchedule::Dynamic);
  const std::string src = emit_collapsed_function(prog, col, opt);
  EXPECT_NE(src.find("schedule(dynamic)"), std::string::npos);
}

TEST(Emitter, SerialEmissionOmitsPragma) {
  const NestProgram prog = parse_nest_program(R"(
name ser
params N
array double x[N]
loop i = 0 .. N
loop j = i .. N
body { x[i] += 1.0; }
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.parallel = false;
  EXPECT_EQ(emit_collapsed_function(prog, col, opt).find("#pragma omp parallel"),
            std::string::npos);
}

TEST(Emitter, OneDimensionalArrayParams) {
  const NestProgram prog = parse_nest_program(R"(
name vec
params N
array double v[N]
loop i = 0 .. N
loop j = i .. N
body { v[i] += 1.0; }
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  const std::string src = emit_verification_program(prog, col, {});
  EXPECT_NE(src.find("double *v"), std::string::npos);
}

TEST(CollapsedEval, ParamsAccessorAndClosedFormFlags) {
  const Collapsed col = collapse(testutil::tetrahedral_fig6());
  const CollapsedEval cn = col.bind({{"N", 9}});
  EXPECT_EQ(cn.params().at("N"), 9);
  EXPECT_TRUE(cn.has_closed_form(0));
  EXPECT_TRUE(cn.has_closed_form(1));
  EXPECT_EQ(cn.depth(), 3);
}

TEST(CollapsedEval, RecoverAtBothEndsOfTheRange) {
  const Collapsed col = collapse(testutil::trapezoidal_skewed());
  const ParamMap p{{"T", 9}, {"N", 5}};
  const CollapsedEval cn = col.bind(p);
  std::vector<i64> idx(2);
  cn.recover(1, idx);
  EXPECT_EQ(idx, lexmin_point(col.nest(), p));
  cn.recover(cn.trip_count(), idx);
  EXPECT_EQ(idx, lexmax_point(col.nest(), p));
}

TEST(CollapsedEval, MultiParamBinding) {
  const Collapsed col = collapse(testutil::rectangular());
  const CollapsedEval cn = col.bind({{"N", 6}, {"M", 4}});
  EXPECT_EQ(cn.trip_count(), 24);
  std::vector<i64> idx(2);
  cn.recover(5, idx);  // row-major rank 5 -> (1, 0)
  EXPECT_EQ(idx, (std::vector<i64>{1, 0}));
}

TEST(Collapse, CollapseDepthOneOfDeepNest) {
  // Collapsing just the outer loop of a 3-deep nest: trip count is the
  // outer extent, recovery is the identity shift.
  const NestSpec sub = testutil::tetrahedral_fig6().outer(1);
  const Collapsed col = collapse(sub);
  const CollapsedEval cn = col.bind({{"N", 10}});
  EXPECT_EQ(cn.trip_count(), 9);  // i in [0, N-1)
  std::vector<i64> idx(1);
  cn.recover(7, idx);
  EXPECT_EQ(idx[0], 6);
}

TEST(Collapse, RebindDifferentParamsReusesSymbolicWork) {
  const Collapsed col = collapse(testutil::triangular_strict());
  for (i64 N : {3, 10, 100, 1000}) {
    const CollapsedEval cn = col.bind({{"N", N}});
    EXPECT_EQ(cn.trip_count(), (N - 1) * N / 2) << N;
  }
}

TEST(SlotOrder, LoopVarsThenParamsThenPc) {
  const Collapsed col = collapse(testutil::trapezoidal_skewed());
  EXPECT_EQ(col.slot_order(), (std::vector<std::string>{"i", "j", "T", "N", "pc"}));
}

TEST(ValidateAcrossSchemes, SegmentAndBlockAgreeOnChecksum) {
  // Cross-scheme determinism: identical outputs from segment and block
  // execution of the same nest body.
  const Collapsed col = collapse(testutil::triangular_inclusive());
  const CollapsedEval cn = col.bind({{"N", 64}});
  std::vector<double> a(64 * 64, 0.0), b(64 * 64, 0.0);
  nrc::run(cn, Schedule::per_thread(), [&](std::span<const i64> ij) {
    a[static_cast<size_t>(ij[0] * 64 + ij[1])] = static_cast<double>(ij[0] - ij[1]);
  });
  nrc::run(cn, Schedule::row_segments(), [&](std::span<const i64> prefix, i64 j0, i64 j1) {
    for (i64 j = j0; j < j1; ++j)
      b[static_cast<size_t>(prefix[0] * 64 + j)] = static_cast<double>(prefix[0] - j);
  });
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace nrc

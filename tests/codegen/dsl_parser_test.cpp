#include "codegen/dsl_parser.hpp"

#include <gtest/gtest.h>

#include "codegen/c_for_parser.hpp"

namespace nrc {
namespace {

const char* kCorrelationDsl = R"(
# correlation kernel, paper Fig. 1
name correlation
params N
array double a[N][N]
array double b[N][N]
array double c[N][N]
loop i = 0 .. N-1
loop j = i+1 .. N
collapse 2
body {
  for (long k = 0; k < N; k++)
    a[i][j] += b[k][i] * c[k][j];
  a[j][i] = a[i][j];
}
)";

TEST(ParseAffine, Basics) {
  EXPECT_EQ(parse_affine("0"), aff::c(0));
  EXPECT_EQ(parse_affine("42"), aff::c(42));
  EXPECT_EQ(parse_affine("i"), aff::v("i"));
  EXPECT_EQ(parse_affine("i + 1"), aff::v("i") + 1);
  EXPECT_EQ(parse_affine("N-1"), aff::v("N") - 1);
  EXPECT_EQ(parse_affine("2*i - N + 7"), 2 * aff::v("i") - aff::v("N") + 7);
  EXPECT_EQ(parse_affine("i*3"), 3 * aff::v("i"));
  EXPECT_EQ(parse_affine("-i"), -aff::v("i"));
  EXPECT_EQ(parse_affine("-(i - N)"), aff::v("N") - aff::v("i"));
  EXPECT_EQ(parse_affine("(i + 1) * 2"), 2 * aff::v("i") + 2);
  EXPECT_EQ(parse_affine("N + 2*i"), aff::v("N") + 2 * aff::v("i"));
}

TEST(ParseAffine, Whitespace) {
  EXPECT_EQ(parse_affine("  i+1 "), aff::v("i") + 1);
  EXPECT_EQ(parse_affine("i\t+\t1"), aff::v("i") + 1);
}

TEST(ParseAffine, Errors) {
  EXPECT_THROW(parse_affine(""), ParseError);
  EXPECT_THROW(parse_affine("i *"), ParseError);
  EXPECT_THROW(parse_affine("i * j"), ParseError);  // non-affine
  EXPECT_THROW(parse_affine("(i"), ParseError);
  EXPECT_THROW(parse_affine("i + + j"), ParseError);
  EXPECT_THROW(parse_affine("i 1"), ParseError);  // trailing garbage
}

TEST(ParseAffine, LiteralsPastInt64MaxAreParseErrors) {
  EXPECT_EQ(parse_affine("9223372036854775807"), aff::c(INT64_MAX));
  EXPECT_EQ(parse_affine("-9223372036854775807 - 1"), aff::c(INT64_MIN));
  EXPECT_THROW(parse_affine("9223372036854775808"), ParseError);
  EXPECT_THROW(parse_affine("N + 99999999999999999999"), ParseError);
  // Both nest syntaxes read their bounds through parse_affine.
  EXPECT_THROW(parse_c_for_nest("for (i = 0; i < 18446744073709551616; i++) {\n}\n"),
               ParseError);
}

TEST(ParseAffine, NegatingInt64MinIsAnError) {
  EXPECT_THROW(parse_affine("-(-9223372036854775807 - 1)"), OverflowError);
  EXPECT_THROW(parse_affine("0 - (-9223372036854775807 - 1)"), OverflowError);
}

TEST(ParseProgram, Correlation) {
  const NestProgram prog = parse_nest_program(kCorrelationDsl);
  EXPECT_EQ(prog.name, "correlation");
  EXPECT_EQ(prog.nest.depth(), 2);
  EXPECT_EQ(prog.collapse_depth, 2);
  EXPECT_EQ(prog.effective_collapse_depth(), 2);
  ASSERT_EQ(prog.arrays.size(), 3u);
  EXPECT_EQ(prog.arrays[0].name, "a");
  EXPECT_EQ(prog.arrays[0].elem, "double");
  EXPECT_EQ(prog.arrays[0].dims, (std::vector<std::string>{"N", "N"}));
  EXPECT_EQ(prog.nest.at(1).lower, aff::v("i") + 1);
  EXPECT_NE(prog.body.find("a[j][i] = a[i][j];"), std::string::npos);
}

TEST(ParseProgram, CollapseDefaultsToAllLoops) {
  const NestProgram prog = parse_nest_program(R"(
loop i = 0 .. 10
loop j = i .. 10
body { x += 1; }
)");
  EXPECT_EQ(prog.collapse_depth, 0);
  EXPECT_EQ(prog.effective_collapse_depth(), 2);
  EXPECT_EQ(prog.collapsed_nest().depth(), 2);
}

TEST(ParseProgram, PartialCollapseSubNest) {
  const NestProgram prog = parse_nest_program(R"(
params N
loop i = 0 .. N
loop j = i .. N
loop k = 0 .. N
collapse 2
body { s += 1; }
)");
  EXPECT_EQ(prog.collapsed_nest().depth(), 2);
  EXPECT_EQ(prog.collapsed_nest().at(1).var, "j");
}

TEST(ParseProgram, MultilineBodyBraceBalance) {
  const NestProgram prog = parse_nest_program(R"(
loop i = 0 .. 4
body {
  if (i > 0) {
    x[i] = x[i-1];
  }
}
)");
  EXPECT_NE(prog.body.find("if (i > 0) {"), std::string::npos);
  EXPECT_EQ(std::count(prog.body.begin(), prog.body.end(), '{'), 1);
  EXPECT_EQ(std::count(prog.body.begin(), prog.body.end(), '}'), 1);
}

TEST(ParseProgram, CommentsAndBlankLinesIgnored) {
  EXPECT_NO_THROW(parse_nest_program(R"(
# full line comment

loop i = 0 .. 4   # trailing comment
body { x += i; }
)"));
}

TEST(ParseProgram, Errors) {
  EXPECT_THROW(parse_nest_program("body { }"), ParseError);          // no loops
  EXPECT_THROW(parse_nest_program("loop i = 0 .. 4\n"), ParseError);  // no body
  EXPECT_THROW(parse_nest_program("loop i = 0 , 4\nbody { }\n"), ParseError);
  EXPECT_THROW(parse_nest_program("loop i 0 .. 4\nbody { }\n"), ParseError);
  EXPECT_THROW(parse_nest_program("frobnicate\n"), ParseError);
  EXPECT_THROW(parse_nest_program("loop i = 0 .. 4\ncollapse 3\nbody { x; }\n"),
               ParseError);  // collapse > depth
  EXPECT_THROW(parse_nest_program("loop i = 0 .. 4\ncollapse 0\nbody { x; }\n"),
               ParseError);
  EXPECT_THROW(parse_nest_program("loop i = 0 .. 4\nbody x += i;\n"), ParseError);
  EXPECT_THROW(parse_nest_program("loop i = 0 .. 4\nbody {\n x;\n"), ParseError);
  EXPECT_THROW(parse_nest_program("array double\nloop i = 0 .. 4\nbody { x; }\n"),
               ParseError);
  EXPECT_THROW(parse_nest_program("array double a\nloop i = 0 .. 4\nbody { x; }\n"),
               ParseError);
}

TEST(RenderProgram, RoundTripsThroughParser) {
  const NestProgram a = parse_nest_program(kCorrelationDsl);
  const std::string rendered = render_nest_program(a);
  const NestProgram b = parse_nest_program(rendered);
  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.collapse_depth, a.collapse_depth);
  EXPECT_EQ(b.nest.depth(), a.nest.depth());
  for (int k = 0; k < a.nest.depth(); ++k) {
    EXPECT_EQ(b.nest.at(k).var, a.nest.at(k).var);
    EXPECT_EQ(b.nest.at(k).lower, a.nest.at(k).lower);
    EXPECT_EQ(b.nest.at(k).upper, a.nest.at(k).upper);
  }
  EXPECT_EQ(b.body, a.body);
  ASSERT_EQ(b.arrays.size(), a.arrays.size());
  for (size_t q = 0; q < a.arrays.size(); ++q) {
    EXPECT_EQ(b.arrays[q].name, a.arrays[q].name);
    EXPECT_EQ(b.arrays[q].dims, a.arrays[q].dims);
  }
}

TEST(RenderProgram, CForInputSurvivesDslRoundTrip) {
  // C front end -> DSL text -> DSL parser: the tool's save path.
  const NestProgram a = parse_c_for_nest(R"(
#pragma omp parallel for collapse(2)
for (i = 0; i < N; i++)
  for (j = i; j < N + 2*i; j++)
    out[i][j - i] += 1.0;
)");
  const NestProgram b = parse_nest_program(render_nest_program(a));
  EXPECT_EQ(b.nest.depth(), 2);
  EXPECT_EQ(b.nest.at(1).upper, aff::v("N") + 2 * aff::v("i"));
  EXPECT_EQ(b.body, a.body);
}

TEST(ParseProgram, ValidatesNestModel) {
  // Bound referencing an inner iterator must be rejected via validate().
  EXPECT_THROW(parse_nest_program(R"(
params N
loop i = 0 .. j
loop j = 0 .. N
body { x; }
)"),
               SpecError);
}

}  // namespace
}  // namespace nrc

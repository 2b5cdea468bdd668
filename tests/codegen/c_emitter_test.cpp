// Golden-structure tests for the generated C code (paper Figs 3, 4, 7).
#include "codegen/c_emitter.hpp"

#include <gtest/gtest.h>

namespace nrc {
namespace {

NestProgram correlation_prog() {
  return parse_nest_program(R"(
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
)");
}

NestProgram fig6_prog() {
  return parse_nest_program(R"(
name fig6
params N
array double s[N]
loop i = 0 .. N-1
loop j = 0 .. i+1
loop k = j .. i+1
body {
  s[i] += (double)(j + k);
}
)");
}

TEST(Emitter, OriginalFunctionStructure) {
  const std::string src = emit_original_function(correlation_prog());
  EXPECT_NE(src.find("static void correlation_original(long long N, double (*a)[N], "
                     "double (*b)[N], double (*c)[N])"),
            std::string::npos)
      << src;
  EXPECT_NE(src.find("for (long long i = 0; i < N - 1; i++)"), std::string::npos);
  EXPECT_NE(src.find("for (long long j = i + 1; j < N; j++)"), std::string::npos);
  EXPECT_NE(src.find("a[j][i] = a[i][j];"), std::string::npos);
}

TEST(Emitter, CollapsedPerThreadMirrorsFig4) {
  const NestProgram prog = correlation_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::per_thread();
  const std::string src = emit_collapsed_function(prog, col, opt);
  // Trip count (N^2 - N)/2, pure integer arithmetic.
  EXPECT_NE(src.find("const long long __nrc_total = "
                     "(long long)(((nrc_wide)N*(nrc_wide)N - (nrc_wide)N) / 2);"),
            std::string::npos)
      << src;
  // Fig. 4 structure: firstprivate flag, recovery guarded by it,
  // incrementation at the end of the body.
  EXPECT_NE(src.find("#pragma omp parallel for firstprivate(__nrc_first) "
                     "private(i, j) schedule(static)"),
            std::string::npos)
      << src;
  EXPECT_NE(src.find("if (__nrc_first)"), std::string::npos);
  // Degree 2: the library's cancellation-free quadratic estimate on the
  // integer-scaled coefficients and the level's range.
  EXPECT_NE(src.find("i = nrc_quad_est(__nrc_A0, __nrc_A1, __nrc_A2, (0), (N - 1), "
                     "&__nrc_est) ? __nrc_est : (0);"),
            std::string::npos)
      << src;
  EXPECT_EQ(src.find("csqrt("), std::string::npos);
  EXPECT_NE(src.find("j++;"), std::string::npos);
  EXPECT_NE(src.find("if (j >= N)"), std::string::npos);
  EXPECT_NE(src.find("j = i + 1;"), std::string::npos);
}

TEST(Emitter, CollapsedPerIterationMirrorsFig3) {
  const NestProgram prog = correlation_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::per_iteration();
  const std::string src = emit_collapsed_function(prog, col, opt);
  EXPECT_NE(src.find("#pragma omp parallel for private(i, j) schedule(static)"),
            std::string::npos)
      << src;
  // No incrementation/firstprivate machinery in the naive style.
  EXPECT_EQ(src.find("__nrc_first"), std::string::npos);
  EXPECT_EQ(src.find("j++;"), std::string::npos);
}

TEST(Emitter, CollapsedChunkedMirrorsSectionV) {
  // Every dynamic claim starts on a chunk boundary too, so both deals
  // share the per-chunk recovery test; only the clause differs.
  const NestProgram prog = correlation_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  for (const OmpSchedule o : {OmpSchedule::Static, OmpSchedule::Dynamic}) {
    opt.schedule = Schedule::chunked(256, {}, o);
    const std::string src = emit_collapsed_function(prog, col, opt);
    const char* clause = o == OmpSchedule::Static ? "static, 256" : "dynamic, 256";
    EXPECT_NE(src.find(std::string("schedule(") + clause + ")"), std::string::npos) << src;
    EXPECT_NE(src.find("if ((pc - 1) % 256 == 0)"), std::string::npos);
    EXPECT_NE(src.find("j++;"), std::string::npos);
  }
}

TEST(Emitter, CubicNestUsesGuardedRealSolvers) {
  const NestProgram prog = fig6_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  const std::string src = emit_collapsed_function(prog, col, {});
  // Level 0 recovery (degree 3) goes through the emitted real-arithmetic
  // Cardano helper on the integer-scaled level-equation coefficients and
  // the level's range — the same formulas and root selection the library
  // engine runs (core/real_solvers.hpp), NOT the paper's Fig. 7 C99
  // complex creal(cpow(...)) form, which diverges from the engine at
  // degenerate/near-discriminant points and floors non-finite values
  // (undefined behaviour).  These assertions fail if the complex
  // emission comes back.
  EXPECT_NE(src.find("static int nrc_cubic_est("), std::string::npos) << src;
  EXPECT_NE(src.find("nrc_cubic_roots("), std::string::npos);
  EXPECT_NE(src.find("__nrc_A3, (0), (N - 1), &__nrc_est)"), std::string::npos) << src;
  EXPECT_NE(src.find("const double __nrc_A0 = (double)("), std::string::npos) << src;
  EXPECT_EQ(src.find("creal("), std::string::npos) << src;
  EXPECT_EQ(src.find("csqrt("), std::string::npos);
  EXPECT_EQ(src.find("cpow("), std::string::npos);
  // No root in range: the exact integer guard walk starts from the
  // level's lower bound.
  EXPECT_NE(src.find("? __nrc_est : (0);"), std::string::npos) << src;
  // Innermost recovery stays integer.
  EXPECT_NE(src.find("k = (long long)((j) + (pc - "), std::string::npos) << src;
}

TEST(Emitter, QuarticNestUsesGuardedFerrari) {
  const NestProgram prog = parse_nest_program(R"(
name s4
params N
array double s[N]
loop i = 0 .. N
loop j = i .. N
loop k = j .. N
loop l = k .. N
body { s[i] += 1.0; }
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  const std::string src = emit_collapsed_function(prog, col, {});
  EXPECT_NE(src.find("static int nrc_ferrari_est("), std::string::npos) << src;
  EXPECT_NE(src.find("nrc_ferrari_est(__nrc_A0, __nrc_A1, __nrc_A2, __nrc_A3, "
                     "__nrc_A4, "),
            std::string::npos)
      << src;
  EXPECT_EQ(src.find("creal("), std::string::npos) << src;
  // One copy of the helpers even with several degree >= 3 levels (the
  // preprocessor guard carries the deduplication).
  EXPECT_NE(src.find("#ifndef NRC_REAL_SOLVERS_C"), std::string::npos);
}

TEST(Emitter, QuadraticNestCarriesOnlyTheQuadraticHelper) {
  // Degree-2 recoveries need nrc_quad_est alone; the Cardano/Ferrari
  // block would be dead weight in the generated source.
  const NestProgram prog = correlation_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  const std::string src = emit_collapsed_function(prog, col, {});
  EXPECT_NE(src.find("static int nrc_quad_est("), std::string::npos) << src;
  EXPECT_EQ(src.find("nrc_cubic_est"), std::string::npos) << src;
  EXPECT_EQ(src.find("NRC_REAL_SOLVERS_C"), std::string::npos);
}

TEST(Emitter, PartialCollapseKeepsInnerLoops) {
  const NestProgram prog = parse_nest_program(R"(
name partial
params N
array double x[N]
loop i = 0 .. N
loop j = i .. N
loop k = 0 .. N
collapse 2
body { x[k] += 1.0; }
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  const std::string src = emit_collapsed_function(prog, col, {});
  EXPECT_NE(src.find("for (long long k = 0; k < N; k++)"), std::string::npos) << src;
  // k is not in the private clause (declared inside the loop).
  EXPECT_NE(src.find("private(i, j)"), std::string::npos);
}

TEST(Emitter, VerificationProgramIsSelfContained) {
  const NestProgram prog = correlation_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  const std::string src = emit_verification_program(prog, col, {});
  EXPECT_NE(src.find("#include <stdio.h>"), std::string::npos);
  EXPECT_NE(src.find("int main(int argc, char **argv)"), std::string::npos);
  EXPECT_NE(src.find("correlation_original("), std::string::npos);
  EXPECT_NE(src.find("correlation_collapsed("), std::string::npos);
  EXPECT_NE(src.find("printf(\"OK\\n\");"), std::string::npos);
  // Two copies of every array.
  EXPECT_NE(src.find("a_ref"), std::string::npos);
  EXPECT_NE(src.find("a_col"), std::string::npos);
  // No C99 complex anywhere since the real-solver emission — degree >= 3
  // recoveries ship the guarded Cardano/Ferrari helpers instead.
  EXPECT_EQ(src.find("#include <complex.h>"), std::string::npos);
  const NestProgram cubic = fig6_prog();
  const Collapsed col3 = collapse(cubic.collapsed_nest());
  const std::string src3 = emit_verification_program(cubic, col3, {});
  EXPECT_EQ(src3.find("#include <complex.h>"), std::string::npos);
  EXPECT_NE(src3.find("static int nrc_cubic_est("), std::string::npos);
}

TEST(Emitter, ThrowsWhenClosedFormMissing) {
  NestProgram prog;
  prog.name = "deep";
  prog.nest.param("N");
  prog.nest.loop("a", aff::c(0), aff::v("N"))
      .loop("b", aff::v("a"), aff::v("N"))
      .loop("c", aff::v("b"), aff::v("N"))
      .loop("d", aff::v("c"), aff::v("N"))
      .loop("e", aff::v("d"), aff::v("N"));
  prog.body = "x += 1;";
  const Collapsed col = collapse(prog.collapsed_nest());
  EXPECT_THROW(emit_collapsed_function(prog, col, {}), SolveError);
}

}  // namespace
}  // namespace nrc

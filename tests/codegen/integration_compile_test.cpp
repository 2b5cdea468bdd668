// End-to-end integration: emit the verification program for several nest
// programs, compile each with the system C compiler, run it, and expect
// "OK".  This is the closest possible reproduction of the paper's
// source-to-source tool pipeline.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "codegen/c_emitter.hpp"
#include "core/real_solvers.hpp"
#include "jit/toolchain.hpp"
#include "symbolic/print_c.hpp"

namespace nrc {
namespace {

bool have_cc() { return jit::toolchain_available(); }

/// Write, compile and run a generated program through the shared
/// toolchain driver (jit/toolchain.hpp — mkstemp temps, deterministic
/// cleanup, NRC_JIT_CC / CC override); returns the exit status.
int compile_and_run(const std::string& src, const std::string& tag,
                    const std::string& args) {
  std::vector<std::string> flags = {"-std=c99", "-O2"};
  const std::string omp = jit::openmp_flag(jit::resolve_compiler());
  if (!omp.empty()) flags.push_back(omp);
  const jit::CompileResult res = jit::compile_c(src, flags, ".bin");
  if (!res.ok) {
    ADD_FAILURE() << "compilation failed (" << tag << ", " << res.compiler << "):\n"
                  << res.log << "\nsource:\n" << src;
    return -1;
  }
  return std::system((res.artifact.path() + " " + args + " > /dev/null").c_str());
}

class IntegrationCompile : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!have_cc()) GTEST_SKIP() << "no system C compiler available";
  }
};

const char* kCorrelation = R"(
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

TEST_F(IntegrationCompile, CorrelationPerThread) {
  const NestProgram prog = parse_nest_program(kCorrelation);
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::per_thread();
  for (const char* n : {"2", "17", "64"}) {
    EXPECT_EQ(compile_and_run(emit_verification_program(prog, col, opt),
                              std::string("corr_thread_") + n, n),
              0)
        << "N=" << n;
  }
}

TEST_F(IntegrationCompile, CorrelationPerIteration) {
  const NestProgram prog = parse_nest_program(kCorrelation);
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::per_iteration();
  EXPECT_EQ(compile_and_run(emit_verification_program(prog, col, opt), "corr_iter", "33"),
            0);
}

TEST_F(IntegrationCompile, CorrelationChunked) {
  const NestProgram prog = parse_nest_program(kCorrelation);
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::chunked(64);
  EXPECT_EQ(
      compile_and_run(emit_verification_program(prog, col, opt), "corr_chunk", "41"), 0);
}

TEST_F(IntegrationCompile, TetrahedralCubicComplexRecovery) {
  // The Fig. 6/7 case: degree-3 recovery through C99 complex arithmetic.
  // All three loops are collapsed, so the body must touch a distinct
  // cell per (i, j, k) — accumulating into s[i][j] would race across
  // thread boundaries (the collapsed loops are executed in parallel).
  const NestProgram prog = parse_nest_program(R"(
name tetra
params N
array double s[N][N][N]
loop i = 0 .. N-1
loop j = 0 .. i+1
loop k = j .. i+1
body {
  s[i][j][k] = s[i][j][k] + (double)(k + 1);
}
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  for (const char* n : {"3", "12", "30"}) {
    EXPECT_EQ(compile_and_run(emit_verification_program(prog, col, {}),
                              std::string("tetra_") + n, n),
              0)
        << "N=" << n;
  }
}

TEST_F(IntegrationCompile, TrapezoidalPartialCollapse) {
  const NestProgram prog = parse_nest_program(R"(
name trap
params N
array double out[N][3*N]
loop i = 0 .. N
loop j = i .. 3*i + N
collapse 2
body {
  out[i][j - i] = (double)(i * 31 + j);
}
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  EXPECT_EQ(compile_and_run(emit_verification_program(prog, col, {}), "trap", "25"), 0);
}

TEST_F(IntegrationCompile, QuarticSimplexRecovery) {
  // 4-deep simplex: the outermost recovery is a quartic root (Ferrari),
  // the deepest closed form the paper supports (§IV-B limit).
  // (Four collapsed loops: the body writes a distinct 4-D cell per
  // iteration so parallel execution stays race-free.)
  const NestProgram prog = parse_nest_program(R"(
name simplex4
params N
array double s[N][N][N][N]
loop i = 0 .. N
loop j = i .. N
loop k = j .. N
loop l = k .. N
body {
  s[i][j][k][l] = (double)(k - l + 2) + 0.5 * s[i][j][k][l];
}
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  ASSERT_TRUE(col.fully_closed_form()) << col.describe();
  for (const char* n : {"4", "11", "23"}) {
    EXPECT_EQ(compile_and_run(emit_verification_program(prog, col, {}),
                              std::string("simplex4_") + n, n),
              0)
        << "N=" << n;
  }
}

TEST_F(IntegrationCompile, ShiftedBoundsAndChunkStyle) {
  const NestProgram prog = parse_nest_program(R"(
name shifted
params N
array double x[2*N + 8][2*N + 8]
loop i = 3 .. N + 3
loop j = i - 2 .. N + i
body {
  x[i][j - i + 2] = (double)(i * 7 + j);
}
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::chunked(32);
  EXPECT_EQ(compile_and_run(emit_verification_program(prog, col, opt), "shifted", "21"),
            0);
}

/// Hexadecimal double literal — bit-exact through the C parser.
std::string hexd(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// One level-equation instance: the integer-scaled coefficients (as the
/// doubles both sides compute them from) and the level's range.
struct EstimateRow {
  int degree;
  std::array<double, 5> A;
  i64 lb, ub;
};

/// Degree-2/3/4 level instances at sampled pcs of bound nests: the true
/// prefix from exact search, the coefficients evaluated exactly.
void sample_rows(const Collapsed& col, const ParamMap& params, int pcs,
                 std::vector<EstimateRow>* rows) {
  const CollapsedEval cn = col.bind(params);
  const std::vector<std::string>& slots = col.slot_order();
  std::vector<std::vector<CompiledPoly>> scaled(col.levels().size());
  for (size_t k = 0; k < col.levels().size(); ++k) {
    const LevelFormula& lf = col.levels()[k];
    i64 den = 1;
    for (const auto& a : lf.coeffs) den = lcm_i64(den, a.denominator_lcm());
    for (const auto& a : lf.coeffs) scaled[k].emplace_back(a * Rational(den), slots);
  }
  std::vector<i64> pt(slots.size(), 0), ref(static_cast<size_t>(cn.depth()));
  for (size_t s = 0; s < slots.size(); ++s)
    if (auto it = params.find(slots[s]); it != params.end()) pt[s] = it->second;
  std::mt19937_64 rng(static_cast<u64>(cn.trip_count()));
  for (int i = 0; i < pcs; ++i) {
    const i64 pc = i == 0 ? cn.trip_count()
                          : 1 + static_cast<i64>(rng() % static_cast<u64>(cn.trip_count()));
    cn.recover_search(pc, ref);
    pt.back() = pc;
    for (int k = 0; k + 1 < cn.depth(); ++k) {
      const int degree = col.levels()[static_cast<size_t>(k)].degree;
      if (degree >= 2 && !scaled[static_cast<size_t>(k)].empty()) {
        EstimateRow r{degree, {0, 0, 0, 0, 0}, cn.lower_bound(k, ref), cn.upper_bound(k, ref)};
        for (int e = 0; e <= degree; ++e)
          r.A[static_cast<size_t>(e)] =
              static_cast<double>(scaled[static_cast<size_t>(k)][static_cast<size_t>(e)]
                                      .eval_i128(pt));
        rows->push_back(r);
      }
      pt[static_cast<size_t>(k)] = ref[static_cast<size_t>(k)];
    }
  }
}

/// The emitted real solvers must return byte-identical (ok, estimate)
/// pairs to the library's double-precision quadratic_estimate /
/// cubic_estimate / ferrari_estimate on the same coefficients and level
/// range: every quadratic, cubic and quartic level of the test shapes
/// and of the shifted quartic
/// at sampled pcs, plus the Ferrari edge families (biquadratic,
/// repeated, near-discriminant, clustered roots, degenerate leading
/// coefficient) over several windows.  Fails when the emitter's solver
/// transliteration drifts from core/real_solvers.hpp in any operation,
/// ordering, or constant.
TEST_F(IntegrationCompile, EmittedEstimatesEqualLibraryOnSampledPcs) {
  std::vector<EstimateRow> rows;
  std::vector<NestSpec> nests;
  for (const auto& sc : testutil::closed_form_shapes()) nests.push_back(sc.nest);
  for (const int s : {8, 64}) {
    NestSpec q;
    q.param("N")
        .loop("i", aff::c(0), aff::v("N"))
        .loop("j", aff::v("i"), aff::v("N") + s)
        .loop("k", aff::v("j"), aff::v("N") + s)
        .loop("l", aff::v("k"), aff::v("N") + s);
    nests.push_back(q);
  }
  for (const NestSpec& nest : nests) {
    const Collapsed col = collapse(nest);
    for (const i64 n : {9, 1000}) {
      const ParamMap p = testutil::uniform_params(nest, n);
      if (col.ranking().total.eval_i128(std::map<std::string, i64>(p.begin(), p.end())) >
          (i128{1} << 60))
        continue;
      sample_rows(col, p, 40, &rows);
    }
  }
  const std::vector<std::array<double, 5>> families = {
      {4, 0, -5, 0, 1},          // biquadratic (x^2-1)(x^2-4): w = 0 resolvent root
      {36, -12, -11, 2, 1},      // repeated roots (x-2)^2 (x+3)^2: zero discriminant
      {35, -12, -11, 2, 1},      // near-zero resolvent discriminant (low side)
      {37, -12, -11, 2, 1},      // near-zero resolvent discriminant (high side)
      {-392, -231, 139, -21, 1}, // clustered real roots 7, 7, 8, -1
      {1, 2, 3, 4, 0},           // degenerate leading coefficient: never estimates
  };
  for (const auto& A : families)
    for (const auto& [lb, ub] : std::vector<std::pair<i64, i64>>{{-9, 9}, {-3, 0}, {1, 2}, {7, 8}})
      rows.push_back({4, A, lb, ub});
  rows.push_back({3, {0, 0, 0, 1, 0}, -2, 2});   // triple root at 0
  rows.push_back({3, {-6, 11, -6, 1, 0}, 0, 9});  // roots 1, 2, 3
  rows.push_back({2, {-4, 0, 1, 0, 0}, -5, 5});   // roots -2, 2
  rows.push_back({2, {1, 0, 1, 0, 0}, -5, 5});    // no real root
  rows.push_back({2, {1, 2, 0, 0, 0}, -5, 5});    // degenerate leading coefficient
  ASSERT_GT(rows.size(), 1000u);

  // Library side: the double-precision instantiations the proven-f64
  // guard path (and the emitted C) runs.
  std::string expect;
  char line[64];
  for (const EstimateRow& r : rows) {
    i64 est = -777;
    const bool ok = r.degree == 4   ? ferrari_estimate<double>(r.A.data(), r.lb, r.ub, &est)
                    : r.degree == 3 ? cubic_estimate<double>(r.A.data(), r.lb, r.ub, &est)
                                    : quadratic_estimate<double>(r.A.data(), r.lb, r.ub, &est);
    std::snprintf(line, sizeof(line), "%d %lld\n", ok ? 1 : 0,
                  static_cast<long long>(ok ? est : -777));
    expect += line;
  }

  // Emitted side: the helpers verbatim as the emitter ships them, driven
  // over the same rows (embedded as hex-float literals, bit-exact).
  std::string src;
  src += "#include <stdio.h>\n#include <math.h>\n";
  src += real_solver_helpers_c(4);
  src += "static const double A[][5] = {\n";
  for (const EstimateRow& r : rows) {
    src += "  {";
    for (size_t e = 0; e < 5; ++e) src += (e ? ", " : "") + hexd(r.A[e]);
    src += "},\n";
  }
  src += "};\nstatic const long long R[][3] = {\n";
  for (const EstimateRow& r : rows)
    src += "  {" + std::to_string(r.degree) + ", " + std::to_string(r.lb) + "LL, " +
           std::to_string(r.ub) + "LL},\n";
  src += "};\n";
  src += "int main(void) {\n";
  src += "  unsigned i;\n";
  src += "  for (i = 0; i < sizeof(R) / sizeof(R[0]); i++) {\n";
  src += "    long long est = -777;\n";
  src += "    const int ok = R[i][0] == 4\n";
  src += "        ? nrc_ferrari_est(A[i][0], A[i][1], A[i][2], A[i][3], A[i][4], R[i][1], R[i][2], &est)\n";
  src += "        : R[i][0] == 3\n";
  src += "        ? nrc_cubic_est(A[i][0], A[i][1], A[i][2], A[i][3], R[i][1], R[i][2], &est)\n";
  src += "        : nrc_quad_est(A[i][0], A[i][1], A[i][2], R[i][1], R[i][2], &est);\n";
  src += "    printf(\"%d %lld\\n\", ok, ok ? est : (long long)-777);\n";
  src += "  }\n";
  src += "  return 0;\n}\n";

  const jit::CompileResult res = jit::compile_c(src, {"-std=c99", "-O2"}, ".bin");
  ASSERT_TRUE(res.ok) << res.log << "\nsource:\n" << src;
  const jit::OwnedPath out_path = jit::make_temp_file(".out");
  ASSERT_EQ(std::system((res.artifact.path() + " > " + out_path.path()).c_str()), 0);
  std::ifstream f(out_path.path());
  const std::string got{std::istreambuf_iterator<char>(f),
                        std::istreambuf_iterator<char>()};
  EXPECT_EQ(got, expect);
}

TEST_F(IntegrationCompile, RhomboidalShape) {
  const NestProgram prog = parse_nest_program(R"(
name rhombo
params N
array double out[N][2*N]
loop i = 0 .. N
loop j = i .. i + N
body {
  out[i][j - i] += 1.5;
}
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  EXPECT_EQ(compile_and_run(emit_verification_program(prog, col, {}), "rhombo", "19"), 0);
}

TEST_F(IntegrationCompile, ShiftedNestPast2To32UsesWideArithmetic) {
  // S just past 2^33 (not a power of two, so S^2 rounds in double):
  // every recovered index exceeds 2^32 — silently truncated if the
  // emitted code declared them `long` on an LLP64 target — and the
  // guard-walk ranking products reach S^2 ~ 7.4e19, past the i64 range,
  // exact only through the emitted nrc_wide (__int128) arithmetic.
  // Regression for the S-shifted emitter overflow bug.
  const NestProgram prog = parse_nest_program(R"(
name farshift
params S
array double out[4][6]
loop i = S .. S+4
loop j = i .. S+6
body {
  out[i - S][j - i] += 1.0;
}
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  EXPECT_EQ(compile_and_run(emit_verification_program(prog, col, {}), "farshift",
                            "8589934611"),
            0);
}

}  // namespace
}  // namespace nrc

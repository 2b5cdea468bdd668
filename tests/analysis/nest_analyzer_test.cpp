// Unit tests for the static nest analyzer: every stable diagnostic code
// (NRC-W001..W004, NRC-I001/I002, NRC-E001) is pinned on a hand-built
// trigger nest, the certificate verdicts are cross-checked against
// bind(), and the consumer wiring (PlanCache::set_reject_errors,
// EmitOptions::certificate) is exercised end to end.  NRC-W005 is a
// serve-layer attachment and is pinned in tests/pipeline/serve_test.cpp.
#include "analysis/nest_analyzer.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "codegen/c_emitter.hpp"
#include "pipeline/plan.hpp"
#include "pipeline/plan_cache.hpp"

namespace nrc {
namespace {

// N*M just over 2^62: binds fine (fits i64) but fails the partition
// headroom certificate — the only error-severity finding possible on a
// *bindable* plan, which is exactly what set_reject_errors gates on.
constexpr i64 kHeadroomN = 2'200'000'000;

// floor(sqrt(INT64_MAX)): the largest N with N*N still inside i64.
constexpr i64 kSqrtI64Max = 3'037'000'499;

NestSpec rect_nn() {
  NestSpec n;
  n.param("N").loop("i", aff::c(0), aff::v("N")).loop("j", aff::c(0), aff::v("N"));
  return n;
}

const Diagnostic* find_diag(const NestCertificate& cert, const std::string& code) {
  const Diagnostic* d = cert.find(code);
  EXPECT_NE(d, nullptr) << "expected " << code << " in:\n" << cert.str();
  return d;
}

TEST(NestAnalyzer, CleanTriangularCertifiesEverything) {
  const NestSpec nest = testutil::triangular_strict();
  const ParamMap params{{"N", 1000}};
  const NestCertificate cert = analyze_nest(nest, params);
  EXPECT_TRUE(cert.bind_ok);
  EXPECT_TRUE(cert.trip_i64_safe);
  EXPECT_TRUE(cert.exact_f64);
  EXPECT_TRUE(cert.emit_i64_safe);
  EXPECT_FALSE(cert.total_saturated);
  EXPECT_TRUE(cert.diagnostics.empty()) << cert.str();
  EXPECT_EQ(cert.max_severity(), LintSeverity::Info);
  EXPECT_EQ(cert.total_trip, collapse(nest).bind(params).trip_count());
  ASSERT_EQ(cert.levels.size(), 2u);
  EXPECT_TRUE(cert.levels[0].f64_exact);
  EXPECT_TRUE(cert.levels[1].f64_exact);
  EXPECT_NE(cert.str().find("lint: clean"), std::string::npos);
}

// NRC-W001, structural flavour: the extent product saturates i64, so
// the verdict lands even though bind() refuses the domain.
TEST(NestAnalyzer, W001SaturatedTripCount) {
  const NestCertificate cert =
      analyze_nest(rect_nn(), {{"N", 4'000'000'000}});
  EXPECT_FALSE(cert.bind_ok);
  EXPECT_FALSE(cert.trip_i64_safe);
  EXPECT_TRUE(cert.total_saturated);
  const Diagnostic* w = find_diag(cert, "NRC-W001");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->severity, LintSeverity::Error);
  EXPECT_TRUE(cert.has("NRC-E001"));  // the bind refusal, as a diagnostic
  EXPECT_EQ(cert.max_severity(), LintSeverity::Error);
}

// A bindable domain gets one certificate whichever entry point computes
// it.  The cubic triangle's extent product N^3 saturates i64 at
// N = 2.5e6, but bind() counts N^3/6 iterations exactly, which fits
// with partition headroom: no NRC-W001, and analyze_nest() agrees with
// analyze() of the built plan line for line.
TEST(NestAnalyzer, BindableSaturatedExtentProductGetsThePlanCertificate) {
  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"))
      .loop("k", aff::v("j"), aff::v("N"));
  const ParamMap params{{"N", 2'500'000}};
  const NestCertificate cert = analyze_nest(nest, params);
  EXPECT_TRUE(cert.bind_ok);
  EXPECT_TRUE(cert.trip_i64_safe);
  EXPECT_TRUE(cert.total_saturated);
  EXPECT_FALSE(cert.has("NRC-W001")) << cert.str();
  EXPECT_NE(cert.max_severity(), LintSeverity::Error) << cert.str();
  EXPECT_EQ(cert.str(), analyze(*CollapsePlan::build(nest, params)).str());
}

// NRC-W001, headroom flavour: total fits i64 but exceeds 2^62, so
// partition arithmetic (pc + chunk - 1) could overflow — error severity
// on a plan that binds.
TEST(NestAnalyzer, W001PartitionHeadroomIsErrorOnBindablePlan) {
  const NestCertificate cert = analyze_nest(rect_nn(), {{"N", kHeadroomN}});
  EXPECT_TRUE(cert.bind_ok);
  EXPECT_FALSE(cert.trip_i64_safe);
  EXPECT_FALSE(cert.total_saturated);
  EXPECT_EQ(cert.total_trip, kHeadroomN * kHeadroomN);
  const Diagnostic* w = find_diag(cert, "NRC-W001");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->severity, LintSeverity::Error);
  EXPECT_NE(w->message.find("headroom"), std::string::npos);
  EXPECT_FALSE(cert.has("NRC-E001"));
}

// Satellite: bind() itself now refuses an i64-overflowing total with a
// diagnostic-coded message instead of silently wrapping.  The boundary
// is exact: floor(sqrt(INT64_MAX)) binds, one more overflows.
TEST(NestAnalyzer, BindRefusesI64OverflowWithDiagnosticCode) {
  const Collapsed col = collapse(rect_nn());
  EXPECT_EQ(col.bind({{"N", kSqrtI64Max}}).trip_count(), kSqrtI64Max * kSqrtI64Max);
  try {
    col.bind({{"N", kSqrtI64Max + 1}});
    FAIL() << "bind() accepted an i64-overflowing trip count";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("NRC-W001"), std::string::npos) << e.what();
  }
}

// NRC-W002: a quadratic level whose f64-guard proof fails (intermediates
// can reach 2^53) is not certified exact; recovery stays correct via the
// integer reference guard, so this is warn, not error.
TEST(NestAnalyzer, W002GuardProofFailure) {
  const NestCertificate cert =
      analyze_nest(testutil::triangular_strict(), {{"N", 200'000'000}});
  EXPECT_TRUE(cert.bind_ok);
  EXPECT_TRUE(cert.trip_i64_safe);
  EXPECT_FALSE(cert.exact_f64);
  const Diagnostic* w = find_diag(cert, "NRC-W002");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->severity, LintSeverity::Warn);
  EXPECT_EQ(w->level, 0);  // the quadratic outer level
  EXPECT_EQ(cert.max_severity(), LintSeverity::Warn);
}

// NRC-W003: coefficient/Horner magnitudes past 2^62 need the __int128
// guard in emitted C.
TEST(NestAnalyzer, W003WideCoefficients) {
  const NestCertificate cert =
      analyze_nest(testutil::triangular_strict(), {{"N", 2'500'000'000}});
  EXPECT_TRUE(cert.bind_ok);
  const Diagnostic* w = find_diag(cert, "NRC-W003");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->severity, LintSeverity::Warn);
  EXPECT_FALSE(cert.emit_i64_safe);
}

TEST(NestAnalyzer, W004InfoSingletonLevel) {
  NestSpec n;
  n.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("i") + 1);
  const NestCertificate cert = analyze_nest(n, {{"N", 50}});
  EXPECT_TRUE(cert.bind_ok);
  const Diagnostic* d = find_diag(cert, "NRC-W004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::Info);
  EXPECT_EQ(d->level, 1);
  EXPECT_EQ(cert.total_trip, 50);
  EXPECT_EQ(cert.max_severity(), LintSeverity::Info);
}

TEST(NestAnalyzer, W004WarnPossiblyEmptyLevel) {
  NestSpec n;  // j in [0, i): empty at i == 0
  n.param("N").loop("i", aff::c(0), aff::v("N")).loop("j", aff::c(0), aff::v("i"));
  const NestCertificate cert = analyze_nest(n, {{"N", 20}});
  const Diagnostic* d = find_diag(cert, "NRC-W004");
  ASSERT_NE(d, nullptr);
  EXPECT_GE(static_cast<int>(d->severity), static_cast<int>(LintSeverity::Warn));
  EXPECT_EQ(d->level, 1);
}

TEST(NestAnalyzer, W004ErrorAlwaysEmptyLevel) {
  NestSpec n;  // j in [5, 5): empty everywhere
  n.param("N").loop("i", aff::c(0), aff::v("N")).loop("j", aff::c(5), aff::c(5));
  const NestCertificate cert = analyze_nest(n, {{"N", 20}});  // must not throw
  EXPECT_FALSE(cert.bind_ok);
  const Diagnostic* d = find_diag(cert, "NRC-W004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_TRUE(cert.has("NRC-E001"));
  EXPECT_EQ(cert.max_severity(), LintSeverity::Error);
}

// NRC-I001: with closed forms disabled every level pays a costly
// per-recovery solver — reported, never certified f64-exact.
TEST(NestAnalyzer, I001CostlySolverNote) {
  CollapseOptions opts;
  opts.build_closed_form = false;
  const NestCertificate cert =
      analyze_nest(testutil::triangular_strict(), {{"N", 100}}, opts);
  EXPECT_TRUE(cert.bind_ok);
  EXPECT_TRUE(cert.trip_i64_safe);
  EXPECT_FALSE(cert.exact_f64);
  const Diagnostic* d = find_diag(cert, "NRC-I001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::Info);
}

// NRC-I002: quartic levels can demote per point, so no f64-exact
// certificate exists for them by policy.
TEST(NestAnalyzer, I002QuarticDemotionNote) {
  const NestCertificate cert = analyze_nest(testutil::simplex_4d(), {{"N", 12}});
  EXPECT_TRUE(cert.bind_ok);
  EXPECT_FALSE(cert.exact_f64);
  const Diagnostic* d = find_diag(cert, "NRC-I002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::Info);
  EXPECT_EQ(d->level, 0);
  ASSERT_FALSE(cert.levels.empty());
  EXPECT_EQ(cert.levels[0].solver, LevelSolverKind::Quartic);
}

TEST(NestAnalyzer, E001UnboundParameter) {
  const NestCertificate cert = analyze_nest(testutil::triangular_strict(), {});
  EXPECT_FALSE(cert.bind_ok);
  const Diagnostic* d = find_diag(cert, "NRC-E001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_NE(d->message.find("'N'"), std::string::npos);
}

TEST(NestAnalyzer, PlanAnalyzeMatchesAnalyzeNest) {
  const NestSpec nest = testutil::tetrahedral_fig6();
  const ParamMap params{{"N", 40}};
  const auto plan = CollapsePlan::build(nest, params);
  const NestCertificate a = plan->analyze();
  const NestCertificate b = analyze_nest(nest, params);
  EXPECT_TRUE(a.bind_ok);
  EXPECT_EQ(a.total_trip, b.total_trip);
  EXPECT_EQ(a.trip_i64_safe, b.trip_i64_safe);
  EXPECT_EQ(a.exact_f64, b.exact_f64);
  EXPECT_EQ(a.emit_i64_safe, b.emit_i64_safe);
  EXPECT_EQ(a.str(), b.str());
}

TEST(NestAnalyzer, DescribeRendersLintBlock) {
  const auto plan = CollapsePlan::build(testutil::triangular_strict(), {{"N", 64}});
  const std::string d = plan->describe();
  EXPECT_NE(d.find("lint: clean"), std::string::npos) << d;
  EXPECT_NE(d.find("certificates: trip-i64 yes"), std::string::npos) << d;
}

TEST(NestAnalyzer, DiagnosticRendering) {
  const Diagnostic d{"NRC-W002", LintSeverity::Warn, 1, "msg", "how to fix"};
  EXPECT_EQ(d.str(), "warn NRC-W002 [level 1]: msg (hint: how to fix)");
  const Diagnostic whole{"NRC-E001", LintSeverity::Error, -1, "broke", ""};
  EXPECT_EQ(whole.str(), "error NRC-E001: broke");
}

// ------------------------------------------------- consumer wiring

TEST(NestAnalyzer, PlanCacheRejectErrors) {
  PlanCache cache(8, 2);
  EXPECT_FALSE(cache.reject_errors());
  cache.set_reject_errors(true);
  EXPECT_TRUE(cache.reject_errors());

  const NestSpec nest = rect_nn();
  try {
    cache.get(nest, {{"N", kHeadroomN}});
    FAIL() << "reject_errors cache served an error-certificate plan";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("rejected by the static analyzer"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("NRC-W001"), std::string::npos) << e.what();
  }
  // A failed build never stays cached; warn/info plans still flow.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(cache.get(nest, {{"N", 100}}), nullptr);

  // Switching enforcement off serves the same domain again.
  cache.set_reject_errors(false);
  EXPECT_NE(cache.get(nest, {{"N", kHeadroomN}}), nullptr);
}

NestProgram rect_prog() {
  return parse_nest_program(R"(
name rect
params N
array double a[N]
loop i = 0 .. N
loop j = 0 .. N
body {
  a[i] += (double)j;
}
)");
}

TEST(NestAnalyzer, EmitterRefusesErrorCertificate) {
  const NestProgram prog = rect_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  const NestCertificate cert =
      analyze_nest(prog.collapsed_nest(), {{"N", kHeadroomN}});
  ASSERT_EQ(cert.max_severity(), LintSeverity::Error);

  EmitOptions opt;
  opt.certificate = &cert;
  EXPECT_THROW(emit_collapsed_function(prog, col, opt), SpecError);

  opt.refuse_on_error = false;
  const std::string src = emit_collapsed_function(prog, col, opt);
  EXPECT_NE(src.find("/* nrclint:"), std::string::npos) << src;
  EXPECT_NE(src.find("NRC-W001"), std::string::npos) << src;
}

TEST(NestAnalyzer, EmitterAnnotatesWarnCertificate) {
  const NestProgram prog = parse_nest_program(R"(
name tri
params N
array double a[N]
loop i = 0 .. N-1
loop j = i+1 .. N
body {
  a[i] += (double)j;
}
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  const NestCertificate cert =
      analyze_nest(prog.collapsed_nest(), {{"N", 200'000'000}});
  ASSERT_EQ(cert.max_severity(), LintSeverity::Warn) << cert.str();

  EmitOptions opt;
  opt.certificate = &cert;
  const std::string src = emit_collapsed_function(prog, col, opt);
  EXPECT_NE(src.find("/* nrclint:"), std::string::npos) << src;
  EXPECT_NE(src.find("NRC-W002"), std::string::npos) << src;
}

}  // namespace
}  // namespace nrc

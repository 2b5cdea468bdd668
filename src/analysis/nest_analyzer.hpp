#pragma once
// Static nest analyzer: bind-time certificates for the collapse pipeline.
//
// Every fast path in the library sits under an implicit magnitude bound —
// the f64 guard proof assumes intermediates below 2^53, the emitted C
// computes coefficients in long long, the executors partition an i64 trip
// count — and historically those bounds were discovered *dynamically*
// (search fallbacks, UBSan in the fuzzers).  The analyzer proves or
// refutes them *statically*, before a plan runs, is emitted, cached or
// served: it propagates interval bounds over the nest's affine bounds and
// the collapse's level-equation coefficients and renders the result as a
// NestCertificate — per-check verdicts plus structured diagnostics with
// stable codes:
//
//   NRC-W001  trip-count-overflow        error/warn
//   NRC-W002  f64-guard-inexact          warn
//   NRC-W003  wide-coefficient-needs-i128 warn
//   NRC-W004  degenerate-level           info/warn/error
//   NRC-W005  serve-limit                warn  (attached by the serve layer)
//   NRC-I001  costly-solver              info
//   NRC-I002  quartic-search-possible    info
//   NRC-E001  bind-failed                error
//
// The verdicts are *checkable*: the differential fuzzer cross-validates
// them against runtime behaviour (a nest certified f64-exact must report
// zero search fallbacks; a nest certified
// i64-safe must match the odometer reference), so a certificate is a
// promise, not a heuristic.  Soundness over completeness: the analyzer
// may decline to certify a nest that happens to behave (no false
// negatives are *required*), but it must never certify a nest that
// misbehaves.
//
// Entry points: analyze_nest() runs the whole pipeline defensively (it
// never throws — a failed collapse/bind becomes NRC-E001), analyze()
// inspects an already-built plan, and CollapsePlan::analyze() forwards
// here.  Consumers: the describe() lint block, the nrcd "lint" verb,
// PlanCache::set_reject_errors, EmitOptions::certificate and the
// standalone nrclint CLI.

#include <string>
#include <vector>

#include "core/collapse.hpp"

namespace nrc {

class CollapsePlan;

enum class LintSeverity { Info, Warn, Error };

const char* lint_severity_name(LintSeverity s);

/// One structured finding.  `code` is stable across releases (tools and
/// CI gates key on it); `message` and `hint` are human-facing.
struct Diagnostic {
  std::string code;  ///< e.g. "NRC-W001"
  LintSeverity severity = LintSeverity::Info;
  int level = -1;  ///< nest level (outermost 0), -1 for whole-nest findings
  std::string message;
  std::string hint;  ///< how to fix / work around; may be empty

  /// One-line rendering: "warn NRC-W002 [level 1]: ... (hint: ...)".
  std::string str() const;
};

/// Per-level facts the checks derived (reporting; the verdicts below are
/// the conjunctions consumers act on).
struct LevelReport {
  LevelSolverKind solver = LevelSolverKind::Search;
  bool f64_exact = false;   ///< counts toward the exact_f64 verdict
  bool coeff_i64 = false;   ///< emitted-C coefficients fit long long
  i64 extent_min = 0;       ///< interval of upper-lower over the domain box
  i64 extent_max = 0;
};

/// The analyzer's output: verdicts + diagnostics for one (nest, params,
/// options) triple.  A plain value; cheap to copy.
struct NestCertificate {
  /// collapse()+bind() succeeded; when false the only reliable fields
  /// are `diagnostics` (containing NRC-E001 and any interval findings)
  /// and the interval-derived level extents.
  bool bind_ok = false;

  /// (a) The total trip count and every candidate Schedule's partition
  /// arithmetic (chunk ends, tile starts, grain splits) provably fit
  /// i64 — the executors cannot overflow a pc computation.
  bool trip_i64_safe = false;

  /// (b) Every level's recovery is certified to run its proven-exact
  /// double path with zero search fallbacks — RecoveryStats::fallback
  /// must stay 0 at runtime.
  bool exact_f64 = false;

  /// (c) The emitted C's coefficient/Horner arithmetic fits long long on
  /// every level; no nrc_wide (__int128) needed.
  bool emit_i64_safe = false;

  /// Trip count: the exact bind-time count when bind_ok; saturated at
  /// INT64_MAX (with NRC-W001 raised) when bind() refused a domain whose
  /// interval extent product saturates.  total_saturated records that
  /// saturation either way; it withholds the f64/emit certificates.
  i64 total_trip = 0;
  bool total_saturated = false;

  std::vector<LevelReport> levels;
  std::vector<Diagnostic> diagnostics;

  /// Info when `diagnostics` is empty.
  LintSeverity max_severity() const;
  bool has(const std::string& code) const;
  const Diagnostic* find(const std::string& code) const;

  /// The multi-line lint block ("lint: 2 diagnostics (max warn), ...\n"
  /// plus one indented line per diagnostic) that describe() and the
  /// serve lint verb render.
  std::string str() const;
};

/// Analyze the full pipeline for (nest, params, opts).  Never throws:
/// model violations, missing parameters, empty domains and overflow all
/// become diagnostics (NRC-E001 carries the underlying message), and the
/// interval pass runs regardless so degenerate/overflowing nests still
/// get their structural findings.
NestCertificate analyze_nest(const NestSpec& nest, const ParamMap& params,
                             const CollapseOptions& opts = {});

/// Analyze an already-built plan (skips the defensive rebuild; bind_ok
/// is true by construction).
NestCertificate analyze(const CollapsePlan& plan);

}  // namespace nrc

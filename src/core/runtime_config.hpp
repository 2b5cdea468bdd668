#pragma once
// Process-wide runtime configuration.
//
// The engine toggles used to be per-evaluator mutators that callers had
// to remember to apply after every bind() (use_bytecode_quartics,
// force_quartic_demotion, set_f64_guards).
// RuntimeConfig folds them into one struct consulted exactly once per
// bind(): the evaluator a bind() returns starts from these defaults,
// and the per-instance hooks on CollapsedEval remain available to
// diverge a single evaluator afterwards (tests, ablations).
//
// The config is intentionally a plain struct behind a function-local
// static — not thread-safe to mutate.  Flip it only around
// single-threaded sections, or use ScopedRuntimeConfig, whose
// constructor/destructor pair keeps test overrides exception-safe and
// impossible to leak into the next test.

namespace nrc {

struct RuntimeConfig {
  /// Default guard policy bind() installs: proven-exact f64 guard fast
  /// paths where the slot-magnitude proof holds.  false forces the
  /// checked-__int128 reference arithmetic everywhere.
  bool f64_guards = true;
  /// Lower quartic levels onto the generic RecoveryProgram bytecode
  /// (the pre-Ferrari engine) at bind() time — the PR 3 ablation,
  /// applied as a default instead of per instance.
  bool bytecode_quartics = false;
  /// Treat every quartic point as if the Ferrari estimate degenerated,
  /// exercising the per-point bytecode demotion path.
  bool force_quartic_demotion = false;
};

/// The mutable process-global configuration consulted by bind().  Not
/// thread-safe to mutate; see the header comment.
inline RuntimeConfig& runtime_config() {
  static RuntimeConfig cfg;
  return cfg;
}

/// RAII override for tests/ablations: installs `next` on construction
/// and restores the previous configuration on destruction, so an
/// ASSERT/throw inside the scope cannot leak the override.
class ScopedRuntimeConfig {
 public:
  /// Save the current configuration without changing it — mutate
  /// runtime_config() freely inside the scope.
  ScopedRuntimeConfig() : saved_(runtime_config()) {}
  explicit ScopedRuntimeConfig(const RuntimeConfig& next) : saved_(runtime_config()) {
    runtime_config() = next;
  }
  ~ScopedRuntimeConfig() { runtime_config() = saved_; }
  ScopedRuntimeConfig(const ScopedRuntimeConfig&) = delete;
  ScopedRuntimeConfig& operator=(const ScopedRuntimeConfig&) = delete;

 private:
  RuntimeConfig saved_;
};

}  // namespace nrc

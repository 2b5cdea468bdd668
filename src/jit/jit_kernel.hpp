#pragma once
// JitKernel: a bound CollapsePlan compiled to a specialized native
// kernel at runtime.
//
// The C emitter (codegen/c_emitter.hpp) already prints a byte-identical
// transliteration of a plan's recovery solvers.  A JitKernel closes the
// loop: it renders a translation unit in which the emitted collapsed
// function is *fully specialized* — the exported entry points call it
// with every nest parameter as an integer literal, so `cc -O2` inlines
// the static function and constant-folds the ranking coefficients,
// guards and level ranges that the library engine re-derives from
// memory on every recovery — compiles it out of process into a shared
// object, dlopens the result and dispatches through it.
//
// Two entry points are exported per kernel (C ABI, versioned):
//
//   typedef void (*nrc_body_fn)(void *ctx, const long long *idx);
//   void      nrc_kernel_run(void *ctx, nrc_body_fn body);  // callback ABI
//   long long nrc_kernel_fill(long long *buf);  // tuple buffer, no callback
//   long long nrc_kernel_total(void);
//   int       nrc_kernel_abi_version(void);
//
// run() walks the domain under the kernel's Schedule and invokes the
// callback once per collapsed iteration with the recovered index tuple;
// fill() writes all trip_count tuples into a caller buffer in rank
// order (slot (pc-1)*depth + k holds index k of rank pc) and needs no
// callback at all — the entry point for language bindings and DMA-style
// consumers that cannot re-enter C++.
//
// Fallback ladder (every rung lands the kernel in a non-compiled state
// whose run()/fill() route through the library dispatcher, with the
// reason recorded in info().fallback_reason):
//
//   1. the plan's analyzer certificate is error-severity (the emitter
//      must not produce C the analyzer proved can overflow);
//   2. a level lacks a closed-form recovery (the emitter's SolveError);
//   3. no working C toolchain (NRC_JIT_CC / CC / cc — jit/toolchain.hpp);
//   4. the out-of-process compile fails;
//   5. dlopen/dlsym fails or the ABI version does not match.
//
// Compiled objects are cached on disk under NRC_JIT_CACHE_DIR (or
// JitOptions::cache_dir) with content-hash filenames plus a sidecar
// recording the object's own hash, so nrcd restarts and --snapshot warm
// starts reuse prior compiles; a corrupt entry fails its hash check and
// is removed and rebuilt.  In-process, KernelCache (jit/kernel_cache.hpp)
// deduplicates builds with the plan cache's future discipline.

#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "pipeline/dispatch.hpp"
#include "pipeline/plan.hpp"
#include "pipeline/schedule.hpp"

namespace nrc {

struct JitOptions {
  bool parallel = true;  ///< emit + compile with OpenMP when the
                         ///< toolchain's probe accepts the flag
  bool use_disk_cache = true;
  std::string cache_dir;  ///< override; empty: $NRC_JIT_CACHE_DIR, and
                          ///< when that is unset too, no disk cache
};

class JitKernel {
 public:
  /// The C callback ABI: `idx` points at `depth` recovered indices,
  /// outermost first, valid for the duration of the call only.
  using BodyFn = void (*)(void* ctx, const long long* idx);
  static constexpr int kAbiVersion = 1;

  struct BuildInfo {
    bool compiled = false;
    bool from_disk = false;        ///< served by the on-disk object cache
    i64 compile_ns = 0;            ///< out-of-process compile wall clock
    std::string compiler;          ///< resolved toolchain (even on fallback)
    std::string fallback_reason;   ///< empty iff compiled
  };

  /// Render + compile + dlopen.  Never throws for toolchain or plan
  /// reasons — every failure lands a fallback kernel (see the ladder
  /// above); only allocation failure propagates.
  static std::shared_ptr<const JitKernel> build(std::shared_ptr<const CollapsePlan> plan,
                                                const Schedule& s,
                                                const JitOptions& opt = {});

  ~JitKernel();
  JitKernel(const JitKernel&) = delete;
  JitKernel& operator=(const JitKernel&) = delete;

  bool compiled() const { return run_fn_ != nullptr; }
  const BuildInfo& info() const { return info_; }
  /// "jit" when compiled, "fallback: <reason>" otherwise.
  std::string status() const {
    return compiled() ? "jit" : "fallback: " + info_.fallback_reason;
  }

  const CollapsePlan& plan() const { return *plan_; }
  const Schedule& schedule() const { return sched_; }
  i64 trip_count() const { return plan_->eval().trip_count(); }
  int depth() const { return plan_->eval().depth(); }
  /// The rendered translation unit ("" when rendering itself failed).
  const std::string& source() const { return source_; }

  /// Invoke `body(std::span<const i64>)` once per collapsed iteration —
  /// through the compiled kernel when this kernel has one, through
  /// nrc::run(plan, schedule) otherwise.  Parallel kernels call the
  /// body concurrently, exactly like the library schemes.
  template <class Body>
  void run(Body&& body) const {
    if (run_fn_ != nullptr) {
      using B = std::remove_reference_t<Body>;
      struct Ctx {
        B* b;
        size_t d;
      } cx{&body, static_cast<size_t>(depth())};
      run_fn_(&cx, +[](void* c, const long long* idx) {
        // The C ABI speaks `long long`; i64 is the same 64-bit width
        // but may be spelled `long` (LP64), hence the cast.
        static_assert(sizeof(long long) == sizeof(i64));
        Ctx* t = static_cast<Ctx*>(c);
        (*t->b)(std::span<const i64>(reinterpret_cast<const i64*>(idx), t->d));
      });
    } else {
      nrc::run(plan_->eval(), sched_, static_cast<Body&&>(body));
    }
  }

  /// Write every recovered tuple into `buf` in rank order (slot
  /// (pc-1)*depth + k = index k of rank pc); returns trip_count.
  /// Throws SpecError when the buffer is smaller than
  /// trip_count*depth.  Falls back to a recover_block walk when this
  /// kernel has no compiled fill.
  i64 fill(std::span<i64> buf) const;

  /// The translation unit build() compiles (exposed for tests and
  /// inspection; throws SolveError when a level lacks a closed form).
  static std::string render_source(const CollapsePlan& plan, const Schedule& s,
                                   bool parallel);

  /// The fragment of a Schedule that changes the emitted code — the
  /// emission style, OpenMP schedule clause and vlen — used by
  /// KernelCache keys so e.g. thread-count-only differences share one
  /// compiled kernel.
  static std::string schedule_key(const Schedule& s);

 private:
  JitKernel(std::shared_ptr<const CollapsePlan> plan, Schedule s)
      : plan_(std::move(plan)), sched_(s) {}

  std::shared_ptr<const CollapsePlan> plan_;
  Schedule sched_;
  BuildInfo info_;
  std::string source_;
  void* handle_ = nullptr;  // dlopen handle, closed by the destructor
  void (*run_fn_)(void*, BodyFn) = nullptr;
  long long (*fill_fn_)(long long*) = nullptr;
};

}  // namespace nrc

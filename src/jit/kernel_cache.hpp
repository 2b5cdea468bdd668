#pragma once
// KernelCache: a sharded concurrent cache of compiled JitKernels,
// layered beside PlanCache with the same future-based exactly-once
// build discipline (pipeline/plan_cache.hpp, PR 7).
//
// A JIT compile is ~100 ms of out-of-process work — three orders of
// magnitude above a cold bind — so the exactly-once property matters
// even more here: the shard lock is held only to look up or install an
// entry, the render + compile + dlopen run OUTSIDE all locks, same-key
// concurrent requests join the first requester's future, and every
// caller receives the same shared immutable kernel.
//
// Keys: the plan record (CollapsePlan::serialize(), rendered once per
// plan) + the schedule's emission-relevant fragment
// + the kernel ABI version (JitKernel::schedule_key), so two plans that
// rebuild bit-identically share a kernel and an ABI bump invalidates
// cleanly.  Fallback kernels (no toolchain, compile failure, refused
// certificate) are cached too — a missing compiler must not be
// re-probed with a full build attempt on every request — and counted
// in stats().fallbacks.
//
// The second layer is the on-disk object cache (NRC_JIT_CACHE_DIR,
// jit/jit_kernel.hpp): a process restart re-renders and re-dlopens but
// skips the compile; disk_hits counts those.

#include <functional>
#include <memory>
#include <string>

#include "jit/jit_kernel.hpp"

namespace nrc {

struct KernelCacheStats {
  i64 hits = 0;       ///< entry found (or an in-flight build joined)
  i64 misses = 0;     ///< kernel built by this request
  i64 compiles = 0;   ///< builds that ran the out-of-process compiler
  i64 disk_hits = 0;  ///< builds served by the on-disk object cache
  i64 fallbacks = 0;  ///< builds that landed a non-compiled kernel
  i64 evictions = 0;  ///< kernels dropped by the per-shard LRU
  i64 compile_ns = 0; ///< summed out-of-process compile wall clock
  i64 lookups() const { return hits + misses; }
  KernelCacheStats& operator+=(const KernelCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    compiles += o.compiles;
    disk_hits += o.disk_hits;
    fallbacks += o.fallbacks;
    evictions += o.evictions;
    compile_ns += o.compile_ns;
    return *this;
  }
};

struct KernelCacheState;

class KernelCache {
 public:
  explicit KernelCache(size_t capacity_per_shard = 32, size_t shards = 8);
  ~KernelCache();
  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// The front door: the cached kernel for (plan, schedule), built
  /// exactly once per key.  Never throws for toolchain/plan reasons —
  /// a failed specialization is a cached fallback kernel whose
  /// run()/fill() route through the library dispatcher.
  std::shared_ptr<const JitKernel> get(std::shared_ptr<const CollapsePlan> plan,
                                       const Schedule& s, const JitOptions& opt = {});

  /// The completed kernel for (plan, schedule) if one is cached and
  /// ready, else nullptr — a lock-only probe (describe() uses it to
  /// report jit state without triggering a compile).
  std::shared_ptr<const JitKernel> peek(const CollapsePlan& plan, const Schedule& s) const;

  KernelCacheStats stats() const;
  size_t size() const;
  void clear();

  /// One-line rendering of stats(), e.g.
  /// "jit cache: 7 hits / 2 misses (2 compiles, 0 disk hits, 0
  /// fallbacks), 0 evictions, 2 kernels, compile 231.4 ms".
  std::string stats_line() const;

  /// Test instrumentation: runs at the start of every build, outside
  /// all locks; may block or throw.  Pass nullptr to remove.
  void set_build_hook(std::function<void(const std::string& key)> hook);

  /// The canonical key (exposed for the aliasing tests).
  static std::string kernel_key(const CollapsePlan& plan, const Schedule& s);

 private:
  std::shared_ptr<KernelCacheState> state_;
};

/// The process-global kernel cache (the nrcd jitrun verb and
/// CollapsePlan::jit() route through it).
KernelCache& kernel_cache();

}  // namespace nrc

#pragma once
// plan_cache: a sharded concurrent cache of CollapsePlans.
//
// Production traffic re-submits the same nest structures with a small
// set of parameter values over and over; the symbolic collapse() and
// even the per-domain bind() are pure functions of (nest, options,
// params), so the plans they produce are perfectly shareable.  The
// cache maps
//
//   (nest structure, CollapseOptions, bound parameters)  ->  CollapsePlan
//
// so a repeated domain skips symbolic build and bind entirely, and —
// through a cache-global symbolic table keyed without the parameters —
// a *new* parameter set on a known nest still skips the symbolic half
// and pays only bind().
//
// Concurrency: the key hash picks a shard; each shard is an
// independently locked LRU map whose entries hold
// std::shared_future<plan>, not plans.  The shard lock is only ever
// held to look up or install an entry — the symbolic build and bind run
// OUTSIDE all locks — so a ~21 ms cold quartic bind no longer
// serializes the ~1 µs hits that hash to the same shard.  Concurrent
// misses for the same key still perform exactly ONE build: the first
// requester installs the future and builds, later requesters find the
// entry and block on the future (not the shard), and every caller
// receives the same shared immutable plan (the property the concurrent
// hammer test pins down).  A failed build propagates its exception
// through the future to every waiter and then uncaches the entry, so
// the next request retries cleanly.  Counters are per shard, counted on
// success only, and merged by stats().
//
// Eviction: per-shard LRU with a fixed capacity; an evicted key is
// simply rebuilt on next use — plans are pure values, so a rebuilt plan
// is byte-identical to the evicted one (tested).  While the structure's
// symbolic artifact is still in the symbolic table, the rebuild is a
// bind alone.  The symbolic table is LRU-bounded the same way
// (symbolic_evictions).
//
// Keys: an entry is found by a key its caller supplies.  Library
// callers (get(), get_with_outcome(), tests) use plan_cache_key(): the
// rendered nest structure, the options and the sorted parameters, so
// two spellings of one nest share one entry.  The nrcd front end
// (serve/protocol.cpp) calls get_keyed() with the request's own text
// instead, so a repeated request is a hit without being parsed (on a
// warm hit, parsing cost several times the rest of the request); the
// nest is produced by the caller's `nest_of` only when the entry has to
// be built.  The symbolic table stays keyed on structure either way:
// collapse() depends on the structure alone, so a second spelling of a
// known nest (C-for vs DSL, whitespace, comments) misses the plan
// shards but still skips collapse() and pays only a bind (a
// SymbolicHit), instead of a cold build per spelling.
//
// Persistence: snapshot() writes every completed plan with its key to a
// stream, and warm_start() replays such a stream through get_keyed()
// under the recorded keys, so a restarted server begins life with a hot
// cache under the same keys it served (see serve/serialization.cpp and
// the nrcd example).

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/plan.hpp"

namespace nrc {

/// Merged (or per-shard) cache counters.  Plain integers in the style
/// of RecoveryStats: merge shards/threads with operator+=.
struct PlanCacheStats {
  i64 hits = 0;           ///< full hits: symbolic build AND bind skipped
  i64 misses = 0;         ///< plan built (see symbolic_hits for the split)
  i64 symbolic_hits = 0;  ///< misses that reused a cached symbolic Collapsed
                          ///< (only bind() ran)
  i64 evictions = 0;      ///< plans dropped by the per-shard LRU
  i64 symbolic_evictions = 0;  ///< symbolic artifacts dropped by the
                               ///< cache-global table's LRU (reported in
                               ///< merged stats() only — the table is not
                               ///< per-shard)
  i64 lookups() const { return hits + misses; }
  PlanCacheStats& operator+=(const PlanCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    symbolic_hits += o.symbolic_hits;
    evictions += o.evictions;
    symbolic_evictions += o.symbolic_evictions;
    return *this;
  }
};

/// How a get() was served — the per-request cost attribution the
/// serving layer reports instead of diffing global counters.
enum class GetOutcome {
  Hit,          ///< completed entry found (or an in-flight build joined)
  SymbolicHit,  ///< this request built the plan, reusing the cached
                ///< symbolic Collapsed: only bind() ran
  ColdBuild,    ///< this request built the plan from scratch
};

const char* get_outcome_name(GetOutcome o);

/// Result of PlanCache::get_with_outcome().
struct GetResult {
  std::shared_ptr<const CollapsePlan> plan;
  GetOutcome outcome = GetOutcome::Hit;
  /// ColdBuild/SymbolicHit: the build's duration.  Hit: how long this
  /// request waited on the entry's future — ~0 for a completed entry,
  /// the residual build time when it joined an in-flight build.
  i64 build_ns = 0;
};

class PlanCache {
 public:
  /// `capacity_per_shard` bounds each shard's LRU (so the cache holds at
  /// most shards * capacity_per_shard plans); `shards` is rounded up to
  /// at least 1.
  explicit PlanCache(size_t capacity_per_shard = 64, size_t shards = 16);
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The front door: return the cached plan for (nest, opts, params),
  /// building and inserting it on a miss, with the outcome and the
  /// nanoseconds this request spent building (or waiting on a build).
  /// Throws as CollapsePlan::build throws; a failed build is propagated
  /// to every concurrent waiter and nothing stays cached.
  GetResult get_with_outcome(const NestSpec& nest, const ParamMap& params,
                             const CollapseOptions& opts = {});

  /// get_with_outcome() under a caller-supplied entry key.  `nest_of`
  /// runs only when this request builds the entry (a miss), so a hit
  /// never constructs the nest; whatever it throws fails the build like
  /// a bind failure (propagated to every waiter, nothing cached).  The
  /// caller owns the key's meaning: equal keys must always denote the
  /// same (nest structure, params, opts).
  GetResult get_keyed(const std::string& key, const std::function<NestSpec()>& nest_of,
                      const ParamMap& params, const CollapseOptions& opts = {});

  /// get_with_outcome() without the attribution.
  std::shared_ptr<const CollapsePlan> get(const NestSpec& nest, const ParamMap& params,
                                          const CollapseOptions& opts = {}) {
    return get_with_outcome(nest, params, opts).plan;
  }

  /// Serialize every completed plan, each after its entry key, to `os`
  /// (in-flight builds and poisoned entries are skipped).  Returns the
  /// number written.  The format is the snapshot stream warm_start()
  /// reads (serve/serialization.hpp).
  size_t snapshot(std::ostream& os) const;

  /// Rebuild plans from a snapshot() stream through get_keyed() under
  /// their recorded keys (so counters, the symbolic table and the LRU
  /// behave as if the requests had arrived over the wire, and the same
  /// requests are full hits afterwards).  Returns the number of plans
  /// loaded.  Throws ParseError on a malformed stream; throws as bind()
  /// throws if a recorded domain no longer binds.
  size_t warm_start(std::istream& is);

  /// Every completed entry currently cached, as (key, plan) pairs
  /// (snapshot()'s enumeration; in-flight builds are skipped, order is
  /// unspecified).
  std::vector<std::pair<std::string, std::shared_ptr<const CollapsePlan>>> completed_entries()
      const;

  /// Counters merged over all shards (plus the cache-global
  /// symbolic_evictions).
  PlanCacheStats stats() const;

  /// Per-shard counters (the thread_stats-style breakdown; index ==
  /// shard id).
  std::vector<PlanCacheStats> shard_stats() const;

  /// Cached plan count over all shards (in-flight builds included).
  size_t size() const;

  /// Drop every cached plan and symbolic artifact (counters persist).
  void clear();

  /// One-line rendering of stats(), e.g.
  /// "plan cache: 98 hits / 2 misses (1 symbolic hit), 0 evictions, 2 plans".
  std::string stats_line() const;

  /// Certify-before-cache: when on, every built plan is run through the
  /// static analyzer (analysis/nest_analyzer.hpp) and an error-severity
  /// certificate fails the build — the SpecError lists the error
  /// diagnostics, propagates to every concurrent waiter exactly like a
  /// bind failure, and nothing stays cached.  Off by default (existing
  /// serving behaviour); warn/info certificates never block.
  void set_reject_errors(bool on);
  bool reject_errors() const;

  /// Test instrumentation: `hook(key)` runs at the start of every build
  /// this cache performs, outside all locks — it may block (to hold a
  /// build in flight while the test probes the shard) or throw (to
  /// fault-inject a failed build).  Pass nullptr to remove.  Not for
  /// production use.
  void set_build_hook(std::function<void(const std::string& key)> hook);

 private:
  /// The whole mutable state (shards, LRU maps, the symbolic table)
  /// sits behind one shared_ptr so plans built here can track their
  /// origin weakly for describe() — see CollapsePlan::origin_.
  std::shared_ptr<PlanCacheState> state_;
};

/// The process-global default cache (used by the examples, the nrcd
/// server and anything that wants caching without owning a PlanCache).
PlanCache& plan_cache();

/// The canonical (structure) cache key: the nest structure (bounds
/// rendered exactly), then plan_cache_key_suffix(params, opts).
/// Exposed for the key-aliasing tests.
std::string plan_cache_key(const NestSpec& nest, const ParamMap& params,
                           const CollapseOptions& opts);

/// The options and sorted parameter bindings every key ends with:
/// "|opts:<closed>,<degree>|params:M=7;N=5;".
std::string plan_cache_key_suffix(const ParamMap& params, const CollapseOptions& opts);

}  // namespace nrc

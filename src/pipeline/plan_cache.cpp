#include "pipeline/plan_cache.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "analysis/nest_analyzer.hpp"
#include "jit/kernel_cache.hpp"
#include "support/error.hpp"

namespace nrc {

// ------------------------------------------------------------- CollapsePlan

std::shared_ptr<const CollapsePlan> CollapsePlan::build(const NestSpec& nest,
                                                        const ParamMap& params,
                                                        const CollapseOptions& opts) {
  Collapsed col = collapse(nest, opts);
  CollapsedEval ev = col.bind(params);
  return std::shared_ptr<const CollapsePlan>(
      new CollapsePlan(std::move(col), std::move(ev), opts));
}

std::vector<LevelSolverKind> CollapsePlan::solver_kinds() const {
  std::vector<LevelSolverKind> kinds;
  kinds.reserve(static_cast<size_t>(eval_.depth()));
  for (int k = 0; k < eval_.depth(); ++k) kinds.push_back(eval_.solver_kind(k));
  return kinds;
}

std::string CollapsePlan::describe() const {
  std::string s = col_.describe();
  s += "bound parameters:";
  for (const auto& [name, v] : eval_.params()) s += " " + name + "=" + std::to_string(v);
  s += " (trip count " + std::to_string(eval_.trip_count()) + ")\n";
  const Schedule sched = auto_schedule();
  s += "schedule (auto): " + sched.describe() + "\n";
  // JIT state: a lock-only peek at the process-global kernel cache —
  // describe() must never trigger a compile.  Deterministic between
  // consecutive describes with no intervening jit activity, so it sits
  // with the other reproducible lines above "plan cache:".
  s += "jit: ";
  if (auto kernel = kernel_cache().peek(*this, sched)) {
    s += kernel->compiled()
             ? (kernel->info().from_disk ? "kernel compiled (disk cache)" : "kernel compiled")
             : kernel->status();
  } else {
    s += "not compiled (plan->jit() / the jitrun verb compile on demand)";
  }
  s += "\n";
  // The static certificate (computed once per plan): verdict summary
  // plus one line per diagnostic.  Deterministic for a given plan, so
  // it sits above the live cache-stats line (serve clients compare
  // everything above "plan cache:" across hits).
  s += certificate_text();
  // Plans share ownership and routinely outlive the cache that built
  // them (eviction hands the last reference to the holder), so the
  // origin is tracked weakly: the stats line appears only while the
  // building cache is still alive.
  if (auto state = origin_.lock()) s += plan_cache_state_stats_line(*state) + "\n";
  return s;
}

// ----------------------------------------------------------------- PlanCache

const char* get_outcome_name(GetOutcome o) {
  switch (o) {
    case GetOutcome::Hit:
      return "hit";
    case GetOutcome::SymbolicHit:
      return "symbolic";
    case GetOutcome::ColdBuild:
      return "cold";
  }
  return "?";
}

std::string plan_cache_key_suffix(const ParamMap& params, const CollapseOptions& opts) {
  std::string key = "|opts:";
  key += opts.build_closed_form ? '1' : '0';
  key += ',';
  key += std::to_string(kMaxClosedDegree);
  key += "|params:";
  for (const auto& [name, v] : params) {
    key += name;
    key += '=';
    key += std::to_string(v);
    key += ';';
  }
  return key;
}

std::string plan_cache_key(const NestSpec& nest, const ParamMap& params,
                           const CollapseOptions& opts) {
  // nest.str() renders every loop's bounds exactly, so two nests share a
  // key iff they are the same Fig. 5 structure; options and the sorted
  // parameter bindings (ParamMap is an ordered map) complete the key.
  return nest.str() + plan_cache_key_suffix(params, opts);
}

/// The cache's whole mutable state, owned by shared_ptr so plans can
/// hold a weak reference for describe() without extending the cache's
/// lifetime (and without dangling after it).
struct PlanCacheState {
  using PlanPtr = std::shared_ptr<const CollapsePlan>;
  using PlanFuture = std::shared_future<PlanPtr>;

  /// A shard entry is a build future, not a plan: installed under the
  /// shard lock before the build starts, resolved by the builder
  /// outside all locks.  The id distinguishes this installation from a
  /// later reinstall of the same key (the failing builder must only
  /// uncache its OWN entry — the key may have been evicted and rebuilt
  /// by someone else while it was building).
  struct Entry {
    std::uint64_t id = 0;
    PlanFuture fut;
  };

  struct Shard {
    mutable std::mutex mu;
    PlanCacheStats stats;
    /// LRU order, most recent at the front; each entry owns its key and
    /// its future.  The map's keys view the list nodes' key strings, so a
    /// key is stored once (nrcd's keys carry up to 4 KiB of request
    /// text); a node is erased from the map before it leaves the list.
    std::list<std::pair<std::string, Entry>> lru;
    std::unordered_map<std::string_view, decltype(lru)::iterator> map;
    std::uint64_t next_id = 0;
  };

  size_t capacity;
  std::vector<std::unique_ptr<Shard>> shards;

  /// Symbolic artifacts keyed without the parameters (cache-global: a
  /// fresh parameter set can land on any shard), so a new parameter set
  /// on a known nest skips collapse() and pays only bind().  LRU like
  /// the plan shards, bounded at capacity * shards; evictions count in
  /// the merged stats as symbolic_evictions.  sym_mu is never held
  /// together with a shard lock (builds run outside shard locks), so
  /// there is no lock-order concern.
  mutable std::mutex sym_mu;
  std::list<std::pair<std::string, Collapsed>> sym_lru;
  std::unordered_map<std::string, decltype(sym_lru)::iterator> sym_map;
  i64 symbolic_evictions = 0;  // guarded by sym_mu

  /// Certify-before-cache toggle (PlanCache::set_reject_errors); read
  /// by concurrent builders, hence atomic.
  std::atomic<bool> reject_errors{false};

  /// Test instrumentation (set_build_hook); called outside all locks.
  mutable std::mutex hook_mu;
  std::function<void(const std::string&)> build_hook;

  /// Counters merged over all shards plus the cache-global
  /// symbolic_evictions, and (when `plans` is given) the cached plan
  /// count, taken under one lock of each shard.
  PlanCacheStats merged_stats(size_t* plans = nullptr) const {
    PlanCacheStats total;
    size_t n = 0;
    for (const auto& sh : shards) {
      std::lock_guard<std::mutex> lock(sh->mu);
      total += sh->stats;
      n += sh->lru.size();
    }
    if (plans) *plans = n;
    std::lock_guard<std::mutex> sym_lock(sym_mu);
    total.symbolic_evictions += symbolic_evictions;
    return total;
  }
};

std::string plan_cache_state_stats_line(const PlanCacheState& st) {
  size_t plans = 0;
  const PlanCacheStats s = st.merged_stats(&plans);
  return "plan cache: " + std::to_string(s.hits) + " hits / " +
         std::to_string(s.misses) + " misses (" + std::to_string(s.symbolic_hits) +
         " symbolic hits), " + std::to_string(s.evictions) + " evictions (" +
         std::to_string(s.symbolic_evictions) + " symbolic), " + std::to_string(plans) +
         " plans";
}

PlanCache::PlanCache(size_t capacity_per_shard, size_t shards)
    : state_(std::make_shared<PlanCacheState>()) {
  state_->capacity = capacity_per_shard > 0 ? capacity_per_shard : 1;
  if (shards < 1) shards = 1;
  state_->shards.reserve(shards);
  for (size_t i = 0; i < shards; ++i)
    state_->shards.push_back(std::make_unique<PlanCacheState::Shard>());
}

PlanCache::~PlanCache() = default;

GetResult PlanCache::get_with_outcome(const NestSpec& nest, const ParamMap& params,
                                      const CollapseOptions& opts) {
  return get_keyed(plan_cache_key(nest, params, opts), [&nest] { return nest; }, params, opts);
}

GetResult PlanCache::get_keyed(const std::string& key, const std::function<NestSpec()>& nest_of,
                               const ParamMap& params, const CollapseOptions& opts) {
  PlanCacheState& st = *state_;
  PlanCacheState::Shard& sh =
      *st.shards[std::hash<std::string>{}(key) % st.shards.size()];

  // Phase 1, under the shard lock: look up or install the entry.  The
  // lock is held for map/list surgery only — never across a build or a
  // future wait — so hits on this shard stay O(µs) while a cold quartic
  // bind is in flight.
  std::promise<PlanCacheState::PlanPtr> prom;
  PlanCacheState::PlanFuture fut;
  std::uint64_t my_id = 0;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (auto it = sh.map.find(key); it != sh.map.end()) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // refresh LRU position
      fut = it->second->second.fut;
    } else {
      builder = true;
      my_id = ++sh.next_id;
      fut = prom.get_future().share();
      sh.lru.emplace_front(key, PlanCacheState::Entry{my_id, fut});
      sh.map.emplace(sh.lru.front().first, sh.lru.begin());
      if (sh.lru.size() > st.capacity) {
        // Evicting an in-flight entry is safe: waiters hold their own
        // future copies and the builder resolves its promise regardless
        // (it only loses the right to stay cached).
        sh.map.erase(sh.lru.back().first);
        sh.lru.pop_back();
        ++sh.stats.evictions;
      }
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed_ns = [&t0] {
    return static_cast<i64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
  };

  if (!builder) {
    // Waiter path: block on the entry's future, not the shard.  A
    // completed entry returns immediately; an in-flight build makes
    // this request pay the residual build time (reported in build_ns).
    // A failed build rethrows the builder's exception here, and the
    // builder has already uncached the entry.  Counters move only on
    // success, matching the pre-future semantics.
    PlanCacheState::PlanPtr plan = fut.get();
    const i64 waited = elapsed_ns();
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      ++sh.stats.hits;
    }
    return {std::move(plan), GetOutcome::Hit, waited};
  }

  // Phase 2, builder path, OUTSIDE all locks: the nest, symbolic
  // lookup/build, bind, then resolve the future.
  try {
    {
      std::function<void(const std::string&)> hook;
      {
        std::lock_guard<std::mutex> hlock(st.hook_mu);
        hook = st.build_hook;
      }
      if (hook) hook(key);
    }

    // The symbolic table is keyed on structure whatever the entry key:
    // every spelling of one nest shares one collapse().
    const NestSpec nest = nest_of();
    const std::string sym_key = plan_cache_key(nest, {}, opts);
    Collapsed col;
    bool have_symbolic = false;
    {
      std::lock_guard<std::mutex> sym_lock(st.sym_mu);
      if (auto sit = st.sym_map.find(sym_key); sit != st.sym_map.end()) {
        st.sym_lru.splice(st.sym_lru.begin(), st.sym_lru, sit->second);
        col = sit->second->second;
        have_symbolic = true;
      }
    }
    if (!have_symbolic) {
      col = collapse(nest, opts);
      std::lock_guard<std::mutex> sym_lock(st.sym_mu);
      // A concurrent builder of a sibling key may have inserted the
      // same symbolic artifact while we collapsed; keep the first.
      if (st.sym_map.find(sym_key) == st.sym_map.end()) {
        st.sym_lru.emplace_front(sym_key, col);
        st.sym_map.emplace(sym_key, st.sym_lru.begin());
        if (st.sym_lru.size() > st.capacity * st.shards.size()) {
          st.sym_map.erase(st.sym_lru.back().first);
          st.sym_lru.pop_back();
          ++st.symbolic_evictions;
        }
      }
    }

    // bind() may throw (empty domain, missing parameter): the entry is
    // then uncached below, but the symbolic artifact stays worth keeping.
    CollapsedEval ev = col.bind(params);
    auto plan = std::shared_ptr<CollapsePlan>(
        new CollapsePlan(std::move(col), std::move(ev), opts));
    plan->origin_ = state_;

    // Certify-before-cache (set_reject_errors): an error-severity
    // certificate fails the build like any other bind failure — the
    // refusal propagates to every waiter and nothing stays cached.
    if (st.reject_errors.load(std::memory_order_relaxed)) {
      const NestCertificate& cert = plan->analyze();
      if (cert.max_severity() == LintSeverity::Error) {
        std::string msg = "plan rejected by the static analyzer:";
        for (const Diagnostic& d : cert.diagnostics)
          if (d.severity == LintSeverity::Error) msg += "\n  " + d.str();
        throw SpecError(msg);
      }
    }

    prom.set_value(plan);

    const i64 built = elapsed_ns();
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      ++sh.stats.misses;
      if (have_symbolic) ++sh.stats.symbolic_hits;
    }
    return {std::move(plan), have_symbolic ? GetOutcome::SymbolicHit : GetOutcome::ColdBuild,
            built};
  } catch (...) {
    // Propagate the failure to every waiter blocked on the future, then
    // uncache — but only OUR installation: the entry may already have
    // been evicted (and possibly reinstalled by a later request) while
    // we were building.
    prom.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (auto it = sh.map.find(key);
          it != sh.map.end() && it->second->second.id == my_id) {
        const auto node = it->second;
        sh.map.erase(it);
        sh.lru.erase(node);
      }
    }
    throw;
  }
}

std::vector<std::pair<std::string, std::shared_ptr<const CollapsePlan>>>
PlanCache::completed_entries() const {
  // Two passes so no shard lock is held while touching futures: copy
  // the keys and futures out under the locks, then harvest the
  // completed ones.
  std::vector<std::pair<std::string, PlanCacheState::PlanFuture>> futs;
  for (const auto& sh : state_->shards) {
    std::lock_guard<std::mutex> lock(sh->mu);
    for (const auto& [key, entry] : sh->lru) futs.emplace_back(key, entry.fut);
  }
  std::vector<std::pair<std::string, std::shared_ptr<const CollapsePlan>>> entries;
  entries.reserve(futs.size());
  for (auto& [key, f] : futs) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
    try {
      entries.emplace_back(std::move(key), f.get());
    } catch (...) {
      // A failed build racing with uncache; skip it.
    }
  }
  return entries;
}

PlanCacheStats PlanCache::stats() const { return state_->merged_stats(); }

std::vector<PlanCacheStats> PlanCache::shard_stats() const {
  std::vector<PlanCacheStats> out;
  out.reserve(state_->shards.size());
  for (const auto& sh : state_->shards) {
    std::lock_guard<std::mutex> lock(sh->mu);
    out.push_back(sh->stats);
  }
  return out;
}

size_t PlanCache::size() const {
  size_t plans = 0;
  (void)state_->merged_stats(&plans);
  return plans;
}

void PlanCache::clear() {
  PlanCacheState& st = *state_;
  for (const auto& sh : st.shards) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->map.clear();
    sh->lru.clear();
  }
  std::lock_guard<std::mutex> sym_lock(st.sym_mu);
  st.sym_lru.clear();
  st.sym_map.clear();
}

std::string PlanCache::stats_line() const {
  return plan_cache_state_stats_line(*state_);
}

void PlanCache::set_build_hook(std::function<void(const std::string& key)> hook) {
  std::lock_guard<std::mutex> lock(state_->hook_mu);
  state_->build_hook = std::move(hook);
}

void PlanCache::set_reject_errors(bool on) {
  state_->reject_errors.store(on, std::memory_order_relaxed);
}

bool PlanCache::reject_errors() const {
  return state_->reject_errors.load(std::memory_order_relaxed);
}

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace nrc

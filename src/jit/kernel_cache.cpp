#include "jit/kernel_cache.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/error.hpp"

namespace nrc {

/// The cache's whole mutable state: the PlanCacheState shape (PR 7)
/// specialized to kernels.  Entries hold build futures, not kernels;
/// the shard lock covers map/list surgery only, never a render,
/// compile or future wait.
struct KernelCacheState {
  using KernelPtr = std::shared_ptr<const JitKernel>;
  using KernelFuture = std::shared_future<KernelPtr>;

  /// The id distinguishes this installation from a later reinstall of
  /// the same key: a failing builder must only uncache its OWN entry.
  struct Entry {
    std::uint64_t id = 0;
    KernelFuture fut;
  };

  struct Shard {
    mutable std::mutex mu;
    KernelCacheStats stats;
    std::list<std::pair<std::string, Entry>> lru;  // most recent first
    std::unordered_map<std::string, decltype(lru)::iterator> map;
    std::uint64_t next_id = 0;
  };

  size_t capacity = 32;
  std::vector<std::unique_ptr<Shard>> shards;
  /// Entries over all shards, kept under each shard's lock; peek() reads
  /// it without one to skip building a key when the cache is empty.
  std::atomic<size_t> entries{0};

  mutable std::mutex hook_mu;
  std::function<void(const std::string&)> build_hook;

  Shard& shard_for(const std::string& key) {
    return *shards[std::hash<std::string>{}(key) % shards.size()];
  }
  const Shard& shard_for(const std::string& key) const {
    return *shards[std::hash<std::string>{}(key) % shards.size()];
  }

  KernelCacheStats merged_stats() const {
    KernelCacheStats total;
    for (const auto& sh : shards) {
      std::lock_guard<std::mutex> lock(sh->mu);
      total += sh->stats;
    }
    return total;
  }
};

std::string KernelCache::kernel_key(const CollapsePlan& plan, const Schedule& s) {
  return plan.serialize() + "|sched:" + JitKernel::schedule_key(s) +
         "|abi:" + std::to_string(JitKernel::kAbiVersion);
}

KernelCache::KernelCache(size_t capacity_per_shard, size_t shards)
    : state_(std::make_shared<KernelCacheState>()) {
  state_->capacity = capacity_per_shard > 0 ? capacity_per_shard : 1;
  if (shards < 1) shards = 1;
  state_->shards.reserve(shards);
  for (size_t i = 0; i < shards; ++i)
    state_->shards.push_back(std::make_unique<KernelCacheState::Shard>());
}

KernelCache::~KernelCache() = default;

std::shared_ptr<const JitKernel> KernelCache::get(
    std::shared_ptr<const CollapsePlan> plan, const Schedule& s, const JitOptions& opt) {
  KernelCacheState& st = *state_;
  const std::string key = kernel_key(*plan, s);
  KernelCacheState::Shard& sh = st.shard_for(key);

  // Phase 1, under the shard lock: look up or install the entry.
  std::promise<KernelCacheState::KernelPtr> prom;
  KernelCacheState::KernelFuture fut;
  std::uint64_t my_id = 0;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (auto it = sh.map.find(key); it != sh.map.end()) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      fut = it->second->second.fut;
    } else {
      builder = true;
      my_id = ++sh.next_id;
      fut = prom.get_future().share();
      sh.lru.emplace_front(key, KernelCacheState::Entry{my_id, fut});
      sh.map.emplace(key, sh.lru.begin());
      ++st.entries;
      if (sh.lru.size() > st.capacity) {
        // Evicting an in-flight entry is safe: waiters hold their own
        // future copies; the builder only loses the right to stay
        // cached (and its dlopen handle stays alive through the
        // shared_ptr every consumer already holds).
        sh.map.erase(sh.lru.back().first);
        sh.lru.pop_back();
        --st.entries;
        ++sh.stats.evictions;
      }
    }
  }

  if (!builder) {
    KernelCacheState::KernelPtr kernel = fut.get();
    std::lock_guard<std::mutex> lock(sh.mu);
    ++sh.stats.hits;
    return kernel;
  }

  // Phase 2, builder path, OUTSIDE all locks: render + compile +
  // dlopen.  JitKernel::build never throws for toolchain/plan reasons
  // (it lands a fallback kernel), so the exception arm only covers
  // genuinely exceptional failures (allocation, serialization).
  try {
    {
      std::function<void(const std::string&)> hook;
      {
        std::lock_guard<std::mutex> hlock(st.hook_mu);
        hook = st.build_hook;
      }
      if (hook) hook(key);
    }

    KernelCacheState::KernelPtr kernel = JitKernel::build(std::move(plan), s, opt);
    prom.set_value(kernel);
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      ++sh.stats.misses;
      if (kernel->info().compiled && !kernel->info().from_disk) ++sh.stats.compiles;
      if (kernel->info().from_disk) ++sh.stats.disk_hits;
      if (!kernel->info().compiled) ++sh.stats.fallbacks;
      sh.stats.compile_ns += kernel->info().compile_ns;
    }
    return kernel;
  } catch (...) {
    prom.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (auto it = sh.map.find(key);
          it != sh.map.end() && it->second->second.id == my_id) {
        sh.lru.erase(it->second);
        sh.map.erase(it);
        --st.entries;
      }
    }
    throw;
  }
}

std::shared_ptr<const JitKernel> KernelCache::peek(const CollapsePlan& plan,
                                                   const Schedule& s) const {
  // An empty cache holds no kernel for any key: skip building one.
  if (state_->entries.load(std::memory_order_relaxed) == 0) return nullptr;
  const std::string key = kernel_key(plan, s);
  const KernelCacheState::Shard& sh = state_->shard_for(key);
  KernelCacheState::KernelFuture fut;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(key);
    if (it == sh.map.end()) return nullptr;
    fut = it->second->second.fut;
  }
  if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) return nullptr;
  try {
    return fut.get();
  } catch (...) {
    return nullptr;  // a failed build racing with its uncache
  }
}

KernelCacheStats KernelCache::stats() const { return state_->merged_stats(); }

size_t KernelCache::size() const {
  size_t n = 0;
  for (const auto& sh : state_->shards) {
    std::lock_guard<std::mutex> lock(sh->mu);
    n += sh->lru.size();
  }
  return n;
}

void KernelCache::clear() {
  for (const auto& sh : state_->shards) {
    std::lock_guard<std::mutex> lock(sh->mu);
    state_->entries -= sh->map.size();
    sh->lru.clear();
    sh->map.clear();
  }
}

std::string KernelCache::stats_line() const {
  const KernelCacheStats s = stats();
  char tail[64];
  std::snprintf(tail, sizeof(tail), ", compile %.1f ms",
                static_cast<double>(s.compile_ns) / 1e6);
  return "jit cache: " + std::to_string(s.hits) + " hits / " +
         std::to_string(s.misses) + " misses (" + std::to_string(s.compiles) +
         " compiles, " + std::to_string(s.disk_hits) + " disk hits, " +
         std::to_string(s.fallbacks) + " fallbacks), " +
         std::to_string(s.evictions) + " evictions, " + std::to_string(size()) +
         " kernels" + tail;
}

void KernelCache::set_build_hook(std::function<void(const std::string& key)> hook) {
  std::lock_guard<std::mutex> lock(state_->hook_mu);
  state_->build_hook = std::move(hook);
}

KernelCache& kernel_cache() {
  static KernelCache cache;
  return cache;
}

// CollapsePlan::jit routes through the process-global cache; declared
// in pipeline/plan.hpp, defined here so the pipeline layer stays free
// of JIT includes.
std::shared_ptr<const JitKernel> CollapsePlan::jit(const Schedule& s) const {
  return kernel_cache().get(shared_from_this(), s);
}

std::shared_ptr<const JitKernel> CollapsePlan::jit() const {
  return jit(auto_schedule());
}

}  // namespace nrc

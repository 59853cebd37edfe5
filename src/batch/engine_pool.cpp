#include "batch/engine_pool.hpp"

#include <sstream>
#include <utility>

#include "tune/autotuner.hpp"

namespace emwd::batch {

std::string pool_key(const exec::EngineSpec& spec, const exec::BuildContext& ctx) {
  std::ostringstream os;
  os << exec::to_string(spec) << '|' << ctx.grid.nx << 'x' << ctx.grid.ny << 'x'
     << ctx.grid.nz << "|t" << ctx.resolved_threads();
  if (ctx.machine) os << '|' << ctx.machine->name;
  return os.str();
}

exec::EngineSpec PlanCache::resolve(const exec::EngineSpec& spec,
                                    const exec::BuildContext& ctx, bool* hit) {
  if (!tune::spec_needs_tuning(spec)) {
    if (hit) *hit = false;
    return spec;
  }
  const std::string key = pool_key(spec, ctx);
  std::promise<exec::EngineSpec> promise;
  std::shared_future<exec::EngineSpec> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      future = it->second;
      ++stats_.hits;
      if (hit) *hit = true;
    } else {
      future = promise.get_future().share();
      plans_.emplace(key, future);
      owner = true;
      ++stats_.misses;
      if (hit) *hit = false;
    }
  }
  if (owner) {
    // Tune outside the lock: other keys proceed, same-key callers block on
    // the future instead of running the tuner twice.
    try {
      promise.set_value(tune::resolve_auto_spec(spec, ctx));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        plans_.erase(key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
}

template <typename M, typename T>
void EnginePool::evict_lru(M& idle, int max_idle, int& idle_count,
                           std::int64_t& evictions,
                           std::vector<std::unique_ptr<T>>& graveyard) {
  if (max_idle <= 0) return;
  while (idle_count > max_idle) {
    // Within a key the vector is release-ordered, so each key's oldest sits
    // at the front; the global LRU victim is the minimum tick over fronts.
    auto victim = idle.end();
    for (auto it = idle.begin(); it != idle.end(); ++it) {
      if (it->second.empty()) continue;
      if (victim == idle.end() ||
          it->second.front().tick < victim->second.front().tick) {
        victim = it;
      }
    }
    if (victim == idle.end()) return;  // inventory inconsistent; bail out
    graveyard.push_back(std::move(victim->second.front().item));
    victim->second.erase(victim->second.begin());
    if (victim->second.empty()) idle.erase(victim);
    --idle_count;
    ++evictions;
  }
}

void EnginePool::set_max_idle(int max_idle_engines, int max_idle_fields) {
  std::vector<std::unique_ptr<exec::Engine>> dead_engines;
  std::vector<std::unique_ptr<grid::FieldSet>> dead_fields;
  {
    std::lock_guard<std::mutex> lock(mu_);
    max_idle_engines_ = max_idle_engines;
    max_idle_fields_ = max_idle_fields;
    evict_lru(idle_engines_, max_idle_engines_, stats_.idle_engines,
              stats_.engine_evictions, dead_engines);
    evict_lru(idle_fields_, max_idle_fields_, stats_.idle_fields,
              stats_.fields_evictions, dead_fields);
  }
  // Destruction outside the lock: engine teardown joins worker threads.
}

EnginePool::EngineLease EnginePool::acquire_engine(const exec::EngineSpec& spec,
                                                   const exec::BuildContext& ctx) {
  EngineLease lease;
  lease.key = pool_key(spec, ctx);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = idle_engines_.find(lease.key);
    if (it != idle_engines_.end() && !it->second.empty()) {
      lease.engine = std::move(it->second.back().item);
      it->second.pop_back();
      lease.reused = true;
      ++stats_.engine_hits;
      --stats_.idle_engines;
      return lease;
    }
    ++stats_.engine_builds;
  }
  lease.engine = exec::EngineRegistry::global().build(spec, ctx);
  return lease;
}

void EnginePool::release_engine(EngineLease&& lease) {
  if (!lease.engine) return;
  std::vector<std::unique_ptr<exec::Engine>> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle_engines_[lease.key].push_back({std::move(lease.engine), ++tick_});
    ++stats_.idle_engines;
    evict_lru(idle_engines_, max_idle_engines_, stats_.idle_engines,
              stats_.engine_evictions, dead);
  }
}

EnginePool::FieldsLease EnginePool::acquire_fields(const grid::Extents& e) {
  FieldsLease lease;
  std::ostringstream os;
  os << e.nx << 'x' << e.ny << 'x' << e.nz;
  lease.key = os.str();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = idle_fields_.find(lease.key);
    if (it != idle_fields_.end() && !it->second.empty()) {
      lease.fields = std::move(it->second.back().item);
      it->second.pop_back();
      lease.reused = true;
      ++stats_.fields_hits;
      --stats_.idle_fields;
      return lease;
    }
    ++stats_.fields_builds;
  }
  // Unwritten: the borrowing Simulation zeroes every set it takes, so a
  // fresh set is zeroed once, by the job's threads.
  lease.fields = std::make_unique<grid::FieldSet>(grid::Layout(e), grid::kUninitialized);
  return lease;
}

void EnginePool::release_fields(FieldsLease&& lease) {
  if (!lease.fields) return;
  std::vector<std::unique_ptr<grid::FieldSet>> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle_fields_[lease.key].push_back({std::move(lease.fields), ++tick_});
    ++stats_.idle_fields;
    evict_lru(idle_fields_, max_idle_fields_, stats_.idle_fields,
              stats_.fields_evictions, dead);
  }
}

EnginePool::Stats EnginePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void EnginePool::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  idle_engines_.clear();
  idle_fields_.clear();
  stats_.idle_engines = 0;
  stats_.idle_fields = 0;
}

}  // namespace emwd::batch

// ShardedEngine: domain-decomposed execution over K z-shards.
//
// The global grid is split by a Partitioner into K shards (plus overlap
// ghost planes), each allocated as its own FieldSet with first-touch on its
// assigned NUMA node and advanced by its own inner Engine — any of the
// existing variants (naive / spatial / MWD) works unmodified because the
// overlap-zone scheme (see partition.hpp) only requires the inner engine to
// be exact on its extended sub-domain.  Every `exchange_interval` steps all
// shards synchronize and pull fresh ghost planes from their neighbors.
//
// Results are bit-identical to the same inner engine on the undecomposed
// grid; the gain is multi-socket memory locality and, for thin or very
// deep domains, independent per-shard tiling.
//
// One shard (pinned, or K clamped to 1) is the inner engine run in place:
// no shard FieldSet, no scatter/gather copies, no exchange rounds, and
// numa_bind has nothing to bind (the caller allocated the fields).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "grid/layout.hpp"

namespace emwd::dist {

/// Which engine advances each shard's sub-domain.  (String mapping lives in
/// the engine-spec parser — see exec::parse_engine_spec and the "sharded"
/// builder in src/tune/engine_builders.cpp.)
enum class InnerKind { Naive, Spatial, Mwd };

std::string to_string(InnerKind kind);

struct ShardedParams {
  int num_shards = 2;        // requested K; clamped so every shard owns >= overlap planes
  int exchange_interval = 1; // steps between halo exchanges == overlap depth
  InnerKind inner = InnerKind::Naive;
  int threads_per_shard = 1;
  bool numa_bind = true;     // pin shard teams to NUMA nodes (no-op on 1 node or K = 1)
  /// Overlapped exchange: replace the two full-stop barriers of each
  /// exchange round with the pairwise post/wait protocol (see halo.hpp and
  /// src/dist/README.md) — a shard publishes its boundary planes the moment
  /// its round finishes and synchronizes only with its <= 2 neighbors, so
  /// exchange stalls no longer propagate across the whole shard set and
  /// one side's copy hides behind the other neighbor's compute.  Results
  /// stay bit-identical: only the ordering of independent work changes.
  /// No effect with a single (clamped) shard.
  bool overlap = false;
  std::optional<exec::MwdParams> mwd;  // explicit inner-MWD parameters
  /// Per-shard inner-MWD parameters (InnerKind::Mwd only): shard s uses
  /// per_shard_mwd[s], letting uneven shards (PML-heavy boundary blocks,
  /// remainder planes) each run their own tuned tiling.  When the engine
  /// clamps the shard count below per_shard_mwd.size(), shard s falls back
  /// to entry min(s, size-1); an empty vector defers to `mwd`.
  std::vector<exec::MwdParams> per_shard_mwd;
  /// Test/instrumentation hook: when set, shard `s` is advanced by
  /// inner_factory(s, threads_per_shard) instead of the built-in kinds and
  /// no inner parameter pre-validation happens on the caller thread.
  std::function<std::unique_ptr<exec::Engine>(int shard, int threads)> inner_factory;
  /// Halo transport by registry name (see dist/transport.hpp); "local" is
  /// the shared-memory plane memcpy.  Selected through the engine-spec
  /// grammar as `sharded(...,transport=local)`.
  std::string transport = "local";

  int threads() const { return num_shards * threads_per_shard; }
  std::string describe() const;
};

/// Engine with a separable preparation phase.  prepare() builds everything
/// that depends only on the grid layout — the partition, one NUMA-first-touch
/// FieldSet per shard, the halo exchanger and the inner engines — and keeps
/// it cached; run() reuses the cached state whenever the incoming FieldSet
/// has the same interior extents, paying only the scatter/step/gather cost.
/// That makes back-to-back timed runs (auto-tuner refinement, benches) cheap:
/// the 40-array shard allocations happen once, not once per repetition.
/// For a single (clamped) shard the cached state is the inner engine alone:
/// run() advances the caller's FieldSet in place, with nothing to copy.
/// run() prepares on demand, so calling prepare() explicitly is optional.
class PreparableEngine : public exec::Engine {
 public:
  /// Build (or rebuild, when extents changed) the cached shard state for
  /// grids of interior extents `e`.  Idempotent for unchanged extents.
  virtual void prepare(const grid::Extents& e) = 0;
  /// Drop the cached shard state (frees the shard FieldSets).
  virtual void reset_prepared() = 0;
};

/// Engine-interface wrapper; usable anywhere the other engines are.
/// stats() after run(): `lups` counts updates actually performed (including
/// redundant ghost-plane updates), while `mlups` is useful throughput —
/// global interior cells * steps / wall seconds.  `shards`,
/// `halo_exchange_seconds` and `halo_bytes_moved` describe the exchange.
/// With one shard, stats() is the inner engine's (shards = 1, no halo
/// traffic) and an inner exception propagates directly.
/// If an inner engine throws in any shard, the remaining shards drain their
/// barrier schedule and finish the run as a no-op; the first exception is
/// rethrown on the caller after every shard thread has joined (the global
/// FieldSet's field values are unspecified in that case).
std::unique_ptr<PreparableEngine> make_sharded_engine(const ShardedParams& params);

}  // namespace emwd::dist

#pragma once
// Streaming partial results for long campaigns.
//
// Every campaign (campaign_runner.h) runs through this layer, so a
// long sweep is incrementally observable and resumable instead of
// all-or-nothing:
//
//   - StreamingAggregator merges per-shard accumulator partials as
//     shards complete and invokes a progress callback with *consistent*
//     snapshots — under the aggregator lock, the merged state contains
//     exactly the shards counted in the progress struct — at least
//     every `progress_every_trials` trials;
//   - after each committed shard it can persist a CampaignCheckpoint
//     (completed-shard bitmap + merged state), so a killed campaign
//     resumes mid-grid instead of restarting;
//   - `stop_after_shards` turns a graceful stop into a testable event:
//     the campaign checkpoints and then throws CampaignInterrupted,
//     which CI's kill-and-resume job and the unit tests use to
//     interrupt at exact shard boundaries.
//
// Determinism contract: shards complete in scheduling order, so
// partials merge in *completion* order (and a resumed run merges into
// a checkpoint holding an arbitrary subset of shards). Accumulators
// must therefore be order-invariant merges — integer tallies,
// disjoint HeatmapGrid cells, Histogram bins, min/max. All campaign
// accumulators in src/experiments satisfy it.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dist/dist_config.h"
#include "util/binary_io.h"

namespace ftnav {

/// Counts handed to progress callbacks. `trials_done` includes trials
/// restored from a checkpoint.
struct StreamProgress {
  std::size_t trials_done = 0;
  std::size_t trials_total = 0;
  std::size_t shards_done = 0;
  std::size_t shards_total = 0;

  double fraction() const noexcept {
    return trials_total == 0
               ? 1.0
               : static_cast<double>(trials_done) /
                     static_cast<double>(trials_total);
  }
};

/// Thrown by a streamed campaign that reached `stop_after_shards`
/// after saving its checkpoint; the campaign's partial state is on
/// disk and a resume run will finish it.
class CampaignInterrupted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Multi-process shard arbitration (see src/dist/). A worker process
/// in a distributed campaign installs an arbiter into its stream
/// config; the streamed runner then executes only the shards the
/// arbiter grants, and keeps asking for more waves (reclaimed work
/// from dead workers) until the arbiter reports the campaign globally
/// complete. The arbiter's callbacks run on campaign worker threads;
/// implementations must be thread-safe where noted.
class ShardArbiter {
 public:
  virtual ~ShardArbiter() = default;

  /// Called once, before any claim, with the campaign's fixed shard
  /// partition size and the shards this process already completed in a
  /// previous life (restored from its own partial checkpoint).
  virtual void begin(std::size_t shard_count,
                     const std::vector<std::uint8_t>& restored) = 0;

  /// Grants or refuses a shard. Called concurrently from campaign
  /// worker threads; exactly one process may be granted each shard.
  virtual bool claim(std::size_t shard) = 0;

  /// Notifies that `shard` is merged into this process's accumulator
  /// AND persisted in its partial checkpoint (the distributed layer
  /// forces checkpoint_every_shards = 1, so the save happened inside
  /// the commit). Called concurrently from campaign worker threads.
  virtual void committed(std::size_t shard) = 0;

  /// Called after the local wave drained: returns further shards that
  /// became claimable (work reclaimed from a dead worker), blocking
  /// until either new work appears or the campaign is globally
  /// complete — then returns empty. `done_by_self` is this process's
  /// completed-shard bitmap. Called from the campaign's calling thread
  /// only.
  virtual std::vector<std::size_t> next_wave(
      const std::vector<std::uint8_t>& done_by_self) = 0;
};

/// Streaming, checkpoint and distribution knobs of one campaign call,
/// carried from the front end to the runner in ScenarioContext::stream
/// (scenario/scenario.h). Default-constructed, it reports no progress,
/// checkpoints nothing, never stops early and runs every shard in this
/// process; the campaign runs the same partition and merge either way.
struct CampaignStreamConfig {
  /// Invoked with consistent snapshots at shard boundaries, at least
  /// every `progress_every_trials` completed trials (and once at
  /// completion). Called under the aggregator lock from worker
  /// threads: keep it cheap, and do not re-enter the campaign.
  std::function<void(const StreamProgress&)> on_progress;
  std::size_t progress_every_trials = 0;  ///< 0 disables callbacks

  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Save cadence, in completed shards. Each save serializes the full
  /// merged state under the aggregator lock, so very frequent saves of
  /// very large accumulators stall workers; the default trades at most
  /// a few shards of lost work for ~16 saves per campaign.
  std::size_t checkpoint_every_shards = 4;
  /// Load `checkpoint_path` (if it exists) and skip completed shards.
  bool resume = false;

  /// Graceful-stop kill switch: after this many shards complete *in
  /// this run* (restored shards do not count), checkpoint and throw
  /// CampaignInterrupted. 0 runs to completion.
  std::size_t stop_after_shards = 0;

  /// Multi-process role (see src/dist/). The campaign core applies it
  /// to each call on a local copy of this config: a worker re-targets
  /// the checkpoint, resume and stop knobs above at its partial file
  /// and installs `arbiter`; finalize fills in `merge_partials`. Off
  /// (the default) leaves the call as configured.
  DistConfig dist;

  /// Distributed-worker shard arbitration (non-owning; see src/dist/
  /// and ShardArbiter above). Null runs every pending shard locally.
  ShardArbiter* arbiter = nullptr;

  /// Coordinator finalize: per-process partial checkpoints to merge
  /// (disjoint-bitmap union) into `checkpoint_path` before the resume
  /// load. With every shard covered by the partials the run does zero
  /// trials and the merged checkpoint is byte-identical to a
  /// single-process run's; uncovered shards are simply executed
  /// locally. Paths that do not exist (workers that claimed nothing)
  /// are skipped.
  std::vector<std::string> merge_partials;
};

/// Copy of `stream` whose checkpoint file is "<path>.<suffix>" — used
/// by drivers that run several trial grids in one campaign so each
/// grid checkpoints to its own file. The copy keeps the `dist` role;
/// each grid's queue derives from its own campaign tag.
inline CampaignStreamConfig with_checkpoint_suffix(
    const CampaignStreamConfig& stream, const std::string& suffix) {
  CampaignStreamConfig derived = stream;
  if (!derived.checkpoint_path.empty())
    derived.checkpoint_path += "." + suffix;
  return derived;
}

/// Serialization hooks for streamed accumulator state. The primary
/// template forwards to `save_state(std::ostream&)` /
/// `restore_state(std::istream&)` members (Histogram, HeatmapGrid,
/// driver accumulators); single arithmetic tallies and vectors of
/// trivially copyable tallies get raw-bytes specializations below.
template <typename Acc>
struct CampaignStateCodec {
  static void save(std::ostream& out, const Acc& acc) {
    acc.save_state(out);
  }
  /// Restores into a freshly make_acc()-built instance, which lets the
  /// member validate structure (binning, axis labels) against the
  /// current campaign configuration.
  static void load(std::istream& in, Acc& acc) { acc.restore_state(in); }
};

template <typename T>
  requires std::is_arithmetic_v<T>
struct CampaignStateCodec<T> {
  static void save(std::ostream& out, const T& acc) {
    io::write_bytes(out, &acc, sizeof acc);
  }
  static void load(std::istream& in, T& acc) {
    io::read_bytes(in, &acc, sizeof acc);
  }
};

template <typename T>
struct CampaignStateCodec<std::vector<T>> {
  static_assert(std::is_trivially_copyable_v<T>,
                "streamed vector accumulators must hold trivially "
                "copyable tallies");
  static void save(std::ostream& out, const std::vector<T>& acc) {
    io::write_vector(out, acc);
  }
  static void load(std::istream& in, std::vector<T>& acc) {
    auto loaded = io::read_vector<T>(in);
    if (loaded.size() != acc.size())
      throw std::runtime_error(
          "CampaignStateCodec: checkpoint vector size mismatch");
    acc = std::move(loaded);
  }
};

/// Merges per-shard partials into one accumulator as shards complete,
/// tracking a completed-shard bitmap and emitting consistent progress
/// snapshots. Thread-safe; one instance per streamed campaign run.
template <typename Acc>
class StreamingAggregator {
 public:
  using MergeFn = std::function<void(Acc&, Acc&&)>;
  /// Called (under the lock) after a shard commit when the progress
  /// cadence fires; receives the merged state alongside the counts.
  using SnapshotFn = std::function<void(const StreamProgress&, const Acc&)>;
  /// Called (under the lock) after each committed shard; used by the
  /// campaign runner to persist checkpoints.
  using CommitHookFn = std::function<void(const StreamingAggregator&)>;

  StreamingAggregator(Acc initial, MergeFn merge, std::size_t trials_total,
                      std::size_t shards_total)
      : merged_(std::move(initial)),
        merge_(std::move(merge)),
        shard_done_(shards_total, 0) {
    progress_.trials_total = trials_total;
    progress_.shards_total = shards_total;
  }

  void set_snapshot_callback(std::size_t every_trials, SnapshotFn callback) {
    progress_every_ = every_trials;
    snapshot_ = std::move(callback);
  }

  void set_commit_hook(CommitHookFn hook) { commit_hook_ = std::move(hook); }

  /// Marks a shard completed-before-this-run (restored from a
  /// checkpoint whose payload is already in the initial accumulator).
  /// Not thread-safe; call before the campaign starts.
  void restore_shard(std::size_t shard, std::size_t shard_trials) {
    shard_done_.at(shard) = 1;
    ++progress_.shards_done;
    progress_.trials_done += shard_trials;
  }

  bool is_done(std::size_t shard) const { return shard_done_.at(shard) != 0; }

  /// Folds a completed shard's partial into the merged state and fires
  /// the progress/commit hooks. Thread-safe.
  void commit_shard(std::size_t shard, std::size_t shard_trials,
                    Acc&& partial) {
    std::lock_guard<std::mutex> lock(mutex_);
    merge_(merged_, std::move(partial));
    shard_done_.at(shard) = 1;
    ++progress_.shards_done;
    ++committed_this_run_;
    progress_.trials_done += shard_trials;
    maybe_snapshot(false);
    if (commit_hook_) commit_hook_(*this);
  }

  /// Fires a final snapshot if trials completed since the last one.
  void finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    maybe_snapshot(true);
  }

  // Accessors for commit hooks (already under the lock) and for the
  // caller after the campaign joined. Not independently synchronized.
  const Acc& merged() const { return merged_; }
  Acc&& take() { return std::move(merged_); }
  const std::vector<std::uint8_t>& shard_done() const { return shard_done_; }
  const StreamProgress& progress() const { return progress_; }
  std::size_t committed_this_run() const { return committed_this_run_; }

 private:
  void maybe_snapshot(bool final_flush) {
    if (!snapshot_ || progress_every_ == 0) return;
    if (progress_.trials_done == last_snapshot_trials_) return;
    if (!final_flush &&
        progress_.trials_done < last_snapshot_trials_ + progress_every_ &&
        progress_.trials_done < progress_.trials_total)
      return;
    last_snapshot_trials_ = progress_.trials_done;
    snapshot_(progress_, merged_);
  }

  mutable std::mutex mutex_;
  Acc merged_;
  MergeFn merge_;
  std::vector<std::uint8_t> shard_done_;
  StreamProgress progress_;
  std::size_t committed_this_run_ = 0;
  std::size_t progress_every_ = 0;
  std::size_t last_snapshot_trials_ = 0;
  SnapshotFn snapshot_;
  CommitHookFn commit_hook_;
};

}  // namespace ftnav

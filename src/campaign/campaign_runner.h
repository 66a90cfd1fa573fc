#pragma once
// Parallel sharded fault-injection campaign engine.
//
// The paper's figures are produced by campaigns: grids of
// BER x injection location x repeat trials, each an independent
// simulation. Trials are embarrassingly parallel *provided* every
// trial draws from its own deterministic noise stream, so this runner
// is built around one invariant:
//
//   trial i consumes Rng::stream(seed, i), a pure function of
//   (campaign seed, trial index) -- never of thread count, scheduling
//   order, or shard boundaries.
//
// There is one path. Every call cuts [0, trial_count) into
// stream_shard_count(trial_count) shards -- min(trials, 64), whatever
// the thread count -- runs each shard through one shard body on the
// process-wide WorkerPool (work-stealing deques, reused across
// campaign phases; see worker_pool.h), and merges the per-shard
// partials in completion order (streaming.h). The same path carries
// progress callbacks, checkpoint/resume, graceful stop and the
// distributed roles (src/dist/) when the CampaignStreamConfig asks for
// them; a default-constructed config asks for none. The role named by
// `stream.dist` applies to each call on its own: every call of a
// multi-grid driver is its own worker or finalize run, on the queue
// its tag derives. Because the
// partition is a pure function of the trial count, a checkpoint
// written by a 1-thread run resumes bit-identically under 8 threads
// and vice versa; threads beyond the shard count sit idle.
//
// `map_streamed` returns the results indexed by trial; order-sensitive
// floating-point folds should map to a per-trial vector and fold it
// serially in trial order. `map_reduce_streamed` keeps one accumulator
// per shard; accumulators must merge order-invariantly (integer
// tallies, disjoint HeatmapGrid cells, Histogram bins, min/max), and
// every campaign accumulator in src/experiments does. Both offer a
// per-shard scratch object (resident engines, buffers): `make_scratch()`
// runs once in each shard body and the object is handed to every trial
// of that shard. It is never merged or checkpointed, so results must
// not depend on it.
//
// The first exception thrown by a trial aborts the remaining shards
// and is rethrown on the calling thread after the region joins (among
// concurrently failing shards, the lowest recorded index wins).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/streaming.h"
#include "dist/dist_campaign.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace ftnav {

/// Contiguous trial range [begin, end) handed to one worker at a time.
struct CampaignShard {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
};

/// Splits [0, trial_count) into at most `max_shards` contiguous,
/// near-equal shards (the first `trial_count % shards` are one trial
/// longer). Returns fewer shards than requested when the grid is
/// smaller than the pool; never returns an empty shard.
std::vector<CampaignShard> shard_trials(std::size_t trial_count,
                                        std::size_t max_shards);

/// Shard count of every campaign: a pure function of the trial count
/// (fixed 64-way split, fewer for tiny grids) so checkpoints are valid
/// across thread counts and machines.
std::size_t stream_shard_count(std::size_t trial_count) noexcept;

/// Resolves a config `threads` knob: values > 0 pass through, anything
/// else becomes std::thread::hardware_concurrency() (minimum 1).
int resolve_threads(int threads) noexcept;

namespace detail {

/// Accumulator adapter that lets `map_streamed` ride the reduce path:
/// the merged side owns the full trial-indexed results vector; each
/// per-shard partial carries only its slice, which the merge copies
/// into place (disjoint ranges, hence order-invariant).
template <typename T>
struct MapAccum {
  std::vector<T> results;     // merged side (full trial count)
  std::size_t slice_begin = 0;
  std::vector<T> slice;       // partial side

  void save_state(std::ostream& out) const {
    CampaignStateCodec<std::vector<T>>::save(out, results);
  }
  void restore_state(std::istream& in) {
    CampaignStateCodec<std::vector<T>>::load(in, results);
  }
};

/// The empty scratch of calls that need none, and the empty
/// accumulator of `for_each`; it writes no checkpoint bytes.
struct NoState {
  void save_state(std::ostream&) const {}
  void restore_state(std::istream&) {}
};

}  // namespace detail

class CampaignRunner {
 public:
  /// `threads <= 0` selects hardware_concurrency.
  explicit CampaignRunner(int threads = 0);

  int threads() const noexcept { return threads_; }

  /// Deterministic parallel map: returns {fn(0, rng_0, scratch), ...,
  /// fn(trial_count - 1, rng_{n-1}, scratch)} where rng_i =
  /// Rng::stream(seed, i) and `scratch` is its shard's
  /// `make_scratch()`. Results are bit-identical for every thread
  /// count and interruption point. `tag` names the campaign in the
  /// checkpoint fingerprint; the result type must be trivially
  /// copyable (raw-bytes payload).
  template <typename MakeScratch, typename Fn>
  auto map_streamed(std::string_view tag, std::size_t trial_count,
                    std::uint64_t seed, MakeScratch&& make_scratch, Fn&& fn,
                    const CampaignStreamConfig& stream) const
      -> std::vector<std::invoke_result_t<
          Fn&, std::size_t, Rng&, std::invoke_result_t<MakeScratch&>&>> {
    using Scratch = std::invoke_result_t<MakeScratch&>;
    using T = std::invoke_result_t<Fn&, std::size_t, Rng&, Scratch&>;
    static_assert(std::is_trivially_copyable_v<T>,
                  "map_streamed results must be trivially copyable");
    // std::vector<bool> packs bits and has no raw-bytes payload.
    static_assert(!std::is_same_v<T, bool>,
                  "CampaignRunner::map_streamed: return char or int "
                  "instead of bool");
    using Accum = detail::MapAccum<T>;
    Accum initial;
    initial.results.assign(trial_count, T{});
    Accum merged = run_streamed<Accum>(
        tag, trial_count, seed, std::move(initial),
        [] { return Accum{}; },  // per-shard partials carry only a slice
        make_scratch,
        [&](Accum& acc, const CampaignShard& shard, std::size_t trial,
            Rng& rng, Scratch& scratch) {
          if (acc.slice.empty()) {
            acc.slice_begin = shard.begin;
            acc.slice.reserve(shard.size());
          }
          acc.slice.push_back(fn(trial, rng, scratch));
        },
        [](Accum& into, Accum&& from) {
          for (std::size_t i = 0; i < from.slice.size(); ++i)
            into.results[from.slice_begin + i] = from.slice[i];
        },
        // Partial-checkpoint merge: a restored MapAccum carries the
        // full-size results vector, so copy the trial ranges its
        // bitmap owns (disjoint across partials, hence
        // order-invariant).
        [](Accum& into, Accum&& from,
           const std::vector<std::uint8_t>& from_done,
           const std::vector<CampaignShard>& shards) {
          for (std::size_t s = 0; s < shards.size(); ++s) {
            if (!from_done[s]) continue;
            for (std::size_t t = shards[s].begin; t < shards[s].end; ++t)
              into.results[t] = from.results[t];
          }
        },
        stream);
    return std::move(merged.results);
  }

  /// `map_streamed` without scratch: `fn(trial, rng)`.
  template <typename Fn>
  auto map_streamed(std::string_view tag, std::size_t trial_count,
                    std::uint64_t seed, Fn&& fn,
                    const CampaignStreamConfig& stream) const {
    return map_streamed(
        tag, trial_count, seed, [] { return detail::NoState{}; },
        [&fn](std::size_t trial, Rng& rng, detail::NoState&) {
          return fn(trial, rng);
        },
        stream);
  }

  /// Sharded map-reduce: every shard accumulates into its own
  /// `make_acc()` instance via `accumulate(acc, trial, rng, scratch)`,
  /// and the partials merge via `merge(into, from)` in completion
  /// order. The accumulator must merge order-invariantly (see file
  /// comment) and be serializable via CampaignStateCodec
  /// (save_state/restore_state members, an arithmetic tally, or a
  /// vector of trivially copyable tallies). Results are bit-identical
  /// for every thread count and interruption point.
  template <typename MakeAcc, typename MakeScratch, typename AccumulateFn,
            typename MergeFn>
  auto map_reduce_streamed(std::string_view tag, std::size_t trial_count,
                           std::uint64_t seed, MakeAcc&& make_acc,
                           MakeScratch&& make_scratch,
                           AccumulateFn&& accumulate, MergeFn&& merge,
                           const CampaignStreamConfig& stream) const
      -> std::invoke_result_t<MakeAcc&> {
    using Acc = std::invoke_result_t<MakeAcc&>;
    using Scratch = std::invoke_result_t<MakeScratch&>;
    if (trial_count == 0) return make_acc();
    return run_streamed<Acc>(
        tag, trial_count, seed, make_acc(), make_acc, make_scratch,
        [&](Acc& acc, const CampaignShard&, std::size_t trial, Rng& rng,
            Scratch& scratch) { accumulate(acc, trial, rng, scratch); },
        merge,
        // Restored partial accumulators merge like any other partial:
        // order-invariant adds where unclaimed cells contribute the
        // make_acc() identity.
        [&merge](Acc& into, Acc&& from, const std::vector<std::uint8_t>&,
                 const std::vector<CampaignShard>&) {
          merge(into, std::move(from));
        },
        stream);
  }

  /// `map_reduce_streamed` without scratch: `accumulate(acc, trial,
  /// rng)`.
  template <typename MakeAcc, typename AccumulateFn, typename MergeFn>
  auto map_reduce_streamed(std::string_view tag, std::size_t trial_count,
                           std::uint64_t seed, MakeAcc&& make_acc,
                           AccumulateFn&& accumulate, MergeFn&& merge,
                           const CampaignStreamConfig& stream) const
      -> std::invoke_result_t<MakeAcc&> {
    using Acc = std::invoke_result_t<MakeAcc&>;
    return map_reduce_streamed(
        tag, trial_count, seed, make_acc, [] { return detail::NoState{}; },
        [&accumulate](Acc& acc, std::size_t trial, Rng& rng,
                      detail::NoState&) { accumulate(acc, trial, rng); },
        merge, stream);
  }

  /// Set-up loops (one policy training per environment, ...):
  /// `fn(trial, rng)` writes into caller-owned per-trial slots. Same
  /// partition and shard body as every campaign, with nothing to
  /// merge, checkpoint or stop.
  template <typename Fn>
  void for_each(std::size_t trial_count, std::uint64_t seed, Fn&& fn) const {
    (void)map_reduce_streamed(
        {}, trial_count, seed, [] { return detail::NoState{}; },
        [&fn](detail::NoState&, std::size_t trial, Rng& rng) {
          fn(trial, rng);
        },
        [](detail::NoState&, detail::NoState&&) {}, {});
  }

  /// Always map_reduce_streamed with no tag and no stream knobs. Kept
  /// so callers that predate the single path (perfbench's
  /// campaign.overhead_us_per_trial probe) still compile.
  template <typename MakeAcc, typename AccumulateFn, typename MergeFn>
  auto map_reduce(std::size_t trial_count, std::uint64_t seed,
                  MakeAcc&& make_acc, AccumulateFn&& accumulate,
                  MergeFn&& merge) const -> std::invoke_result_t<MakeAcc&> {
    return map_reduce_streamed({}, trial_count, seed, make_acc, accumulate,
                               merge, {});
  }

 private:
  /// The one campaign core: thread-independent partition, the
  /// distributed role of `requested.dist` (applied to a local copy of
  /// the stream, for this call only), optional checkpoint resume,
  /// per-shard accumulate -> commit into a StreamingAggregator,
  /// periodic checkpoint saves, graceful stop, and the distributed
  /// hooks (shard arbitration + partial-checkpoint merge -- see
  /// src/dist/). `make_partial()` builds a fresh per-shard
  /// accumulator and `make_scratch()` the shard's scratch object;
  /// `accumulate(acc, shard, trial, rng, scratch)` fills the partial;
  /// `merge_restored(into, from, from_done, shards)` folds an
  /// accumulator restored from another process's partial checkpoint
  /// (full-state, not a per-shard slice) into the merged side.
  template <typename Acc, typename MakePartial, typename MakeScratch,
            typename AccumulateFn, typename MergeFn, typename MergeRestoredFn>
  Acc run_streamed(std::string_view tag, std::size_t trial_count,
                   std::uint64_t seed, Acc initial, MakePartial&& make_partial,
                   MakeScratch&& make_scratch, AccumulateFn accumulate,
                   MergeFn merge, MergeRestoredFn merge_restored,
                   const CampaignStreamConfig& requested) const {
    // Worker: lease shards into this process's partial checkpoint.
    // Finalize: merge the workers' partials and resume. Off: as asked.
    CampaignStreamConfig stream = requested;
    const DistCampaign role(tag, stream);

    const std::vector<CampaignShard> shards =
        shard_trials(trial_count, stream_shard_count(trial_count));
    const std::uint64_t fingerprint = CampaignCheckpoint::fingerprint(
        tag, seed, trial_count, shards.size());
    const bool checkpointing = !stream.checkpoint_path.empty();

    // Coordinator finalize: fold the workers' partial checkpoints into
    // one checkpoint at `checkpoint_path`, then resume from it. When
    // the partials cover every shard this run does zero trials and the
    // merged file is byte-identical to a single-process run's.
    if (checkpointing && !stream.merge_partials.empty()) {
      obs::TraceSpan merge_span("merge_partials", "campaign", "partials",
                                stream.merge_partials.size());
      std::vector<CampaignCheckpoint::Loaded> partials;
      for (const std::string& path : stream.merge_partials) {
        std::optional<CampaignCheckpoint::Loaded> loaded;
        try {
          loaded = CampaignCheckpoint::load(path);
        } catch (const std::runtime_error&) {
          // Corrupt partial: skip it, exactly as lease reclaim treats
          // it as "nothing committed" -- its shards were (or will be)
          // re-run, by another worker or by this finalize pass below.
          continue;
        }
        if (!loaded) continue;  // worker that never claimed a shard
        check_identity(*loaded, fingerprint, trial_count, shards.size(),
                       "campaign merge: partial checkpoint", path);
        partials.push_back(std::move(*loaded));
      }
      if (!partials.empty()) {
        // One decode per partial, one encode for the union.
        const auto merge_payload =
            [&](const std::vector<CampaignCheckpoint::Loaded>& loaded) {
              Acc merged_acc = initial;
              {
                std::istringstream in(loaded.front().payload);
                CampaignStateCodec<Acc>::load(in, merged_acc);
              }
              for (std::size_t i = 1; i < loaded.size(); ++i) {
                Acc partial_acc = initial;
                std::istringstream in(loaded[i].payload);
                CampaignStateCodec<Acc>::load(in, partial_acc);
                merge_restored(merged_acc, std::move(partial_acc),
                               loaded[i].shard_done, shards);
              }
              std::ostringstream out;
              CampaignStateCodec<Acc>::save(out, merged_acc);
              return out.str();
            };
        const CampaignCheckpoint::Loaded merged =
            CampaignCheckpoint::merge(partials, merge_payload);
        CampaignCheckpoint::save(stream.checkpoint_path, merged.header,
                                 merged.shard_done, merged.payload);
      }
    }

    // Resume: load merged state + completed-shard bitmap.
    std::vector<std::uint8_t> restored(shards.size(), 0);
    if (checkpointing && (stream.resume || !stream.merge_partials.empty())) {
      if (auto loaded = CampaignCheckpoint::load(stream.checkpoint_path)) {
        check_identity(*loaded, fingerprint, trial_count, shards.size(),
                       "campaign resume: checkpoint",
                       stream.checkpoint_path);
        std::istringstream payload(loaded->payload);
        CampaignStateCodec<Acc>::load(payload, initial);
        restored = loaded->shard_done;
      }
    }

    StreamingAggregator<Acc> aggregator(
        std::move(initial),
        [&merge](Acc& into, Acc&& from) { merge(into, std::move(from)); },
        trial_count, shards.size());
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (restored[i])
        aggregator.restore_shard(i, shards[i].size());
      else
        pending.push_back(i);
    }

    if (stream.arbiter != nullptr)
      stream.arbiter->begin(shards.size(), restored);

    if (stream.on_progress && stream.progress_every_trials > 0) {
      aggregator.set_snapshot_callback(
          stream.progress_every_trials,
          [&stream](const StreamProgress& progress, const Acc&) {
            stream.on_progress(progress);
          });
    }

    // Commit hook (runs under the aggregator lock): periodic + final
    // checkpoint saves, then the graceful-stop kill switch.
    std::size_t shards_since_save = 0;
    bool stop_requested = false;
    aggregator.set_commit_hook([&](const StreamingAggregator<Acc>& agg) {
      const bool complete =
          agg.progress().shards_done == agg.progress().shards_total;
      const bool stop = stream.stop_after_shards > 0 && !stop_requested &&
                        agg.committed_this_run() >= stream.stop_after_shards;
      ++shards_since_save;
      if (checkpointing &&
          (shards_since_save >= stream.checkpoint_every_shards || stop ||
           complete)) {
        save_checkpoint(stream.checkpoint_path, fingerprint, agg.progress(),
                        agg.shard_done(), [&agg](std::ostream& out) {
                          CampaignStateCodec<Acc>::save(out, agg.merged());
                        });
        shards_since_save = 0;
      }
      if (stop) {
        stop_requested = true;
        throw CampaignInterrupted(
            "campaign stopped after " +
            std::to_string(agg.committed_this_run()) + " shards" +
            (checkpointing ? " (checkpoint saved)" : ""));
      }
    });

    // The shard body: the one place a shard runs, spans, builds its
    // scratch and commits.
    const auto run_one_shard = [&](std::size_t shard_index) {
      // Distributed mode: run the shard only if this process wins the
      // lease; another worker's shard is simply skipped here and lands
      // in the merged result via its partial checkpoint.
      if (stream.arbiter != nullptr && !stream.arbiter->claim(shard_index))
        return;
      const CampaignShard& shard = shards[shard_index];
      obs::TraceSpan shard_span("shard", "campaign", "shard", shard_index);
      Acc acc = make_partial();
      auto scratch = make_scratch();
      for (std::size_t trial = shard.begin; trial < shard.end; ++trial) {
        Rng rng = Rng::stream(seed, trial);
        accumulate(acc, shard, trial, rng, scratch);
      }
      aggregator.commit_shard(shard_index, shard.size(), std::move(acc));
      if (stream.arbiter != nullptr) stream.arbiter->committed(shard_index);
    };
    dispatch_shards(pending, run_one_shard);

    // Distributed mode: keep draining reclaimed work (shards whose
    // worker died mid-lease) until the arbiter reports the campaign
    // globally complete.
    if (stream.arbiter != nullptr) {
      while (true) {
        std::vector<std::size_t> wave =
            stream.arbiter->next_wave(aggregator.shard_done());
        if (wave.empty()) break;
        std::erase_if(wave, [&](std::size_t shard_index) {
          return aggregator.is_done(shard_index);
        });
        if (!wave.empty()) dispatch_shards(wave, run_one_shard);
      }
    }
    aggregator.finish();
    return aggregator.take();
  }

  /// Runs `body` on the pool for the listed shard indices.
  void dispatch_shards(const std::vector<std::size_t>& indices,
                       const std::function<void(std::size_t)>& body) const;

  /// Throws std::runtime_error unless a loaded checkpoint or partial
  /// belongs to this campaign: same fingerprint, and the same trial
  /// count and shard partition (the bitmap is indexed by this
  /// campaign's shards). `what` and `path` label the message.
  static void check_identity(const CampaignCheckpoint::Loaded& loaded,
                             std::uint64_t fingerprint,
                             std::size_t trial_count,
                             std::size_t shard_count, const char* what,
                             const std::string& path);

  /// Serializes an aggregator snapshot to `path` (atomic replace).
  static void save_checkpoint(
      const std::string& path, std::uint64_t fingerprint,
      const StreamProgress& progress,
      const std::vector<std::uint8_t>& shard_done,
      const std::function<void(std::ostream&)>& write_payload);

  int threads_;
};

}  // namespace ftnav

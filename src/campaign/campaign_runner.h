#pragma once
// Parallel sharded fault-injection campaign engine (v2).
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
// v2 dispatches shards to the process-wide persistent WorkerPool
// (work-stealing deques, reused across campaign phases — see
// worker_pool.h) instead of spawning threads per campaign.
//
// `map` evaluates a trial function over [0, trial_count) and returns
// the results indexed by trial, so campaign output is bit-identical
// for any `threads` value. `map_reduce` additionally keeps one
// accumulator per shard and merges them in ascending shard order; use
// it for partition-invariant statistics (counts, disjoint HeatmapGrid
// cells, Histogram bins). Order-sensitive floating-point folds should
// instead `map` to a per-trial vector and fold serially in trial order.
//
// The `*_streamed` variants add streaming partial results and
// checkpoint/resume (see streaming.h and checkpoint.h). Their shard
// partition is a pure function of the trial count — never of the
// thread count — so a checkpoint written by a 1-thread run resumes
// bit-identically under 8 threads and vice versa. Streamed
// accumulators must merge order-invariantly (integer tallies, disjoint
// cells, min/max); every campaign accumulator in src/experiments does.
//
// The first exception thrown by a trial aborts the remaining shards
// and is rethrown on the calling thread after the region joins (among
// concurrently failing shards, the lowest recorded index wins).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/streaming.h"
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

/// Shard budget of a streamed campaign: a pure function of the trial
/// count (fixed 64-way split, fewer for tiny grids) so checkpoints are
/// valid across thread counts and machines.
std::size_t stream_shard_count(std::size_t trial_count) noexcept;

/// Resolves a config `threads` knob: values > 0 pass through, anything
/// else becomes std::thread::hardware_concurrency() (minimum 1).
int resolve_threads(int threads) noexcept;

namespace detail {

/// Accumulator adapter that lets `map` campaigns ride the streaming
/// machinery: the merged side owns the full trial-indexed results
/// vector; each per-shard partial carries only its slice, which the
/// merge copies into place (disjoint ranges, hence order-invariant).
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

/// MapAccum plus a runtime-only per-shard scratch object (e.g. a
/// resident engine cache — see nn/engine_slot.h). The scratch never
/// reaches save_state/restore_state (inherited: results only) and is
/// dropped by copies, so checkpoint bytes and merged results are
/// byte-identical to the scratch-less MapAccum's.
template <typename T, typename Scratch>
struct MapScratchAccum : MapAccum<T> {
  std::unique_ptr<Scratch> scratch;

  MapScratchAccum() = default;
  MapScratchAccum(const MapScratchAccum& other) : MapAccum<T>(other) {}
  MapScratchAccum& operator=(const MapScratchAccum& other) {
    MapAccum<T>::operator=(other);
    scratch.reset();
    return *this;
  }
  MapScratchAccum(MapScratchAccum&&) = default;
  MapScratchAccum& operator=(MapScratchAccum&&) = default;
};

}  // namespace detail

class CampaignRunner {
 public:
  /// `threads <= 0` selects hardware_concurrency.
  explicit CampaignRunner(int threads = 0);

  int threads() const noexcept { return threads_; }

  /// Deterministic parallel map: returns {fn(0, rng_0), ...,
  /// fn(trial_count - 1, rng_{n-1})} where rng_i = Rng::stream(seed, i).
  template <typename Fn>
  auto map(std::size_t trial_count, std::uint64_t seed, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
    using T = std::invoke_result_t<Fn&, std::size_t, Rng&>;
    // std::vector<bool> packs bits, so concurrent writes to adjacent
    // trials would race on the same byte. Return char/int instead.
    static_assert(!std::is_same_v<T, bool>,
                  "CampaignRunner::map: bool results race in "
                  "std::vector<bool>; return char or int instead");
    std::vector<T> results(trial_count);
    run_shards(trial_count, [&](const CampaignShard& shard) {
      for (std::size_t trial = shard.begin; trial < shard.end; ++trial) {
        Rng rng = Rng::stream(seed, trial);
        results[trial] = fn(trial, rng);
      }
    });
    return results;
  }

  /// `map` with streaming progress and checkpoint/resume. Results are
  /// bit-identical to `map` for every thread count and interruption
  /// point. `tag` names the campaign in the checkpoint fingerprint;
  /// the result type must be trivially copyable (raw-bytes payload).
  template <typename Fn>
  auto map_streamed(std::string_view tag, std::size_t trial_count,
                    std::uint64_t seed, Fn&& fn,
                    const CampaignStreamConfig& stream) const
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
    using T = std::invoke_result_t<Fn&, std::size_t, Rng&>;
    static_assert(std::is_trivially_copyable_v<T>,
                  "map_streamed results must be trivially copyable");
    static_assert(!std::is_same_v<T, bool>,
                  "CampaignRunner::map_streamed: return char or int "
                  "instead of bool");
    if (!stream.streaming_enabled()) return map(trial_count, seed, fn);
    using Accum = detail::MapAccum<T>;
    Accum initial;
    initial.results.assign(trial_count, T{});
    Accum merged = run_streamed<Accum>(
        tag, trial_count, seed, std::move(initial),
        [] { return Accum{}; },  // per-shard partials carry only a slice
        [&](Accum& acc, const CampaignShard& shard, std::size_t trial,
            Rng& rng) {
          if (acc.slice.empty()) {
            acc.slice_begin = shard.begin;
            acc.slice.reserve(shard.size());
          }
          acc.slice.push_back(fn(trial, rng));
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

  /// `map` with a per-shard scratch object: `scratch = make_scratch()`
  /// is built once per shard and passed to `fn(trial, rng, scratch)`
  /// for every trial of that shard. Scratch is runtime-only reuse
  /// state (resident engines, buffers); `fn`'s results must not depend
  /// on it, so output stays bit-identical to `map` for every thread
  /// count and shard partition.
  template <typename MakeScratch, typename Fn>
  auto map_scratch(std::size_t trial_count, std::uint64_t seed,
                   MakeScratch&& make_scratch, Fn&& fn) const
      -> std::vector<std::invoke_result_t<
          Fn&, std::size_t, Rng&, std::invoke_result_t<MakeScratch&>&>> {
    using Scratch = std::invoke_result_t<MakeScratch&>;
    using T = std::invoke_result_t<Fn&, std::size_t, Rng&, Scratch&>;
    static_assert(!std::is_same_v<T, bool>,
                  "CampaignRunner::map_scratch: bool results race in "
                  "std::vector<bool>; return char or int instead");
    std::vector<T> results(trial_count);
    run_shards(trial_count, [&](const CampaignShard& shard) {
      Scratch scratch = make_scratch();
      for (std::size_t trial = shard.begin; trial < shard.end; ++trial) {
        Rng rng = Rng::stream(seed, trial);
        results[trial] = fn(trial, rng, scratch);
      }
    });
    return results;
  }

  /// `map_streamed` with a per-shard scratch object (see map_scratch).
  /// The scratch lives in the per-shard partial accumulator and never
  /// reaches checkpoint bytes, so artifacts are byte-identical to the
  /// scratch-less path for every thread/worker count and interruption
  /// point.
  template <typename MakeScratch, typename Fn>
  auto map_streamed_scratch(std::string_view tag, std::size_t trial_count,
                            std::uint64_t seed, MakeScratch&& make_scratch,
                            Fn&& fn, const CampaignStreamConfig& stream) const
      -> std::vector<std::invoke_result_t<
          Fn&, std::size_t, Rng&, std::invoke_result_t<MakeScratch&>&>> {
    using Scratch = std::invoke_result_t<MakeScratch&>;
    using T = std::invoke_result_t<Fn&, std::size_t, Rng&, Scratch&>;
    static_assert(std::is_trivially_copyable_v<T>,
                  "map_streamed_scratch results must be trivially copyable");
    static_assert(!std::is_same_v<T, bool>,
                  "CampaignRunner::map_streamed_scratch: return char or "
                  "int instead of bool");
    if (!stream.streaming_enabled())
      return map_scratch(trial_count, seed, make_scratch, fn);
    using Accum = detail::MapScratchAccum<T, Scratch>;
    Accum initial;
    initial.results.assign(trial_count, T{});
    Accum merged = run_streamed<Accum>(
        tag, trial_count, seed, std::move(initial),
        [] { return Accum{}; },  // per-shard partials carry only a slice
        [&](Accum& acc, const CampaignShard& shard, std::size_t trial,
            Rng& rng) {
          if (acc.slice.empty()) {
            acc.slice_begin = shard.begin;
            acc.slice.reserve(shard.size());
          }
          if (!acc.scratch)
            acc.scratch = std::make_unique<Scratch>(make_scratch());
          acc.slice.push_back(fn(trial, rng, *acc.scratch));
        },
        [](Accum& into, Accum&& from) {
          for (std::size_t i = 0; i < from.slice.size(); ++i)
            into.results[from.slice_begin + i] = from.slice[i];
        },
        // Partial-checkpoint merge: identical to map_streamed's (the
        // scratch is not part of the restored state).
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

  /// Deterministic parallel for-each over trials; `fn(trial, rng)`
  /// writes into caller-owned per-trial slots.
  template <typename Fn>
  void for_each(std::size_t trial_count, std::uint64_t seed, Fn&& fn) const {
    run_shards(trial_count, [&](const CampaignShard& shard) {
      for (std::size_t trial = shard.begin; trial < shard.end; ++trial) {
        Rng rng = Rng::stream(seed, trial);
        fn(trial, rng);
      }
    });
  }

  /// Sharded map-reduce: every shard accumulates into its own
  /// `make_acc()` instance via `accumulate(acc, trial, rng)`, and the
  /// per-shard accumulators are folded into the first shard's via
  /// `merge(into, from)` in ascending shard order. Deterministic for
  /// partition-invariant accumulators (see file comment).
  template <typename MakeAcc, typename AccumulateFn, typename MergeFn>
  auto map_reduce(std::size_t trial_count, std::uint64_t seed,
                  MakeAcc&& make_acc, AccumulateFn&& accumulate,
                  MergeFn&& merge) const
      -> std::invoke_result_t<MakeAcc&> {
    using Acc = std::invoke_result_t<MakeAcc&>;
    if (trial_count == 0) return make_acc();
    const std::vector<CampaignShard> shards =
        shard_trials(trial_count, shard_budget());
    std::vector<Acc> accs;
    accs.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i)
      accs.push_back(make_acc());
    run_shards_prepartitioned(shards, [&](std::size_t shard_index) {
      const CampaignShard& shard = shards[shard_index];
      for (std::size_t trial = shard.begin; trial < shard.end; ++trial) {
        Rng rng = Rng::stream(seed, trial);
        accumulate(accs[shard_index], trial, rng);
      }
    });
    Acc result = std::move(accs.front());
    for (std::size_t i = 1; i < accs.size(); ++i)
      merge(result, std::move(accs[i]));
    return result;
  }

  /// `map_reduce` with streaming progress and checkpoint/resume. The
  /// accumulator must merge order-invariantly and be serializable via
  /// CampaignStateCodec (save_state/restore_state members, or a
  /// vector of trivially copyable tallies). Results are bit-identical
  /// to `map_reduce` for every thread count and interruption point.
  template <typename MakeAcc, typename AccumulateFn, typename MergeFn>
  auto map_reduce_streamed(std::string_view tag, std::size_t trial_count,
                           std::uint64_t seed, MakeAcc&& make_acc,
                           AccumulateFn&& accumulate, MergeFn&& merge,
                           const CampaignStreamConfig& stream) const
      -> std::invoke_result_t<MakeAcc&> {
    using Acc = std::invoke_result_t<MakeAcc&>;
    if (!stream.streaming_enabled())
      return map_reduce(trial_count, seed, make_acc, accumulate, merge);
    if (trial_count == 0) return make_acc();
    return run_streamed<Acc>(
        tag, trial_count, seed, make_acc(), make_acc,
        [&](Acc& acc, const CampaignShard&, std::size_t trial, Rng& rng) {
          accumulate(acc, trial, rng);
        },
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

 private:
  /// Number of shards to cut a batch campaign into: oversubscribed
  /// relative to the pool so heterogeneous trial costs still balance.
  std::size_t shard_budget() const noexcept;

  /// Shards [0, trial_count) and dispatches shard bodies to the pool.
  void run_shards(std::size_t trial_count,
                  const std::function<void(const CampaignShard&)>& body) const;

  /// Dispatches bodies for an existing shard partition (by index).
  void run_shards_prepartitioned(
      const std::vector<CampaignShard>& shards,
      const std::function<void(std::size_t)>& body) const;

  /// Shared core of the streamed paths: thread-independent partition,
  /// optional checkpoint resume, per-shard accumulate -> commit into a
  /// StreamingAggregator, periodic checkpoint saves, graceful stop,
  /// and the distributed hooks (shard arbitration + partial-checkpoint
  /// merge — see src/dist/). `make_partial()` builds a fresh per-shard
  /// accumulator; `accumulate(acc, shard, trial, rng)` fills it;
  /// `merge_restored(into, from, from_done, shards)` folds an
  /// accumulator restored from another process's partial checkpoint
  /// (full-state, not a per-shard slice) into the merged side.
  template <typename Acc, typename MakePartial, typename AccumulateFn,
            typename MergeFn, typename MergeRestoredFn>
  Acc run_streamed(std::string_view tag, std::size_t trial_count,
                   std::uint64_t seed, Acc initial, MakePartial&& make_partial,
                   AccumulateFn accumulate, MergeFn merge,
                   MergeRestoredFn merge_restored,
                   const CampaignStreamConfig& stream) const {
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
          // it as "nothing committed" — its shards were (or will be)
          // re-run, by another worker or by this finalize pass below.
          continue;
        }
        if (!loaded) continue;  // worker that never claimed a shard
        if (loaded->header.fingerprint != fingerprint)
          throw std::runtime_error(
              "campaign merge: partial checkpoint was written by a "
              "different campaign configuration: " +
              path);
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
        if (loaded->header.fingerprint != fingerprint)
          throw std::runtime_error(
              "campaign resume: checkpoint was written by a different "
              "campaign configuration: " +
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

    const auto run_one_shard = [&](std::size_t shard_index) {
      // Distributed mode: run the shard only if this process wins the
      // lease; another worker's shard is simply skipped here and lands
      // in the merged result via its partial checkpoint.
      if (stream.arbiter != nullptr && !stream.arbiter->claim(shard_index))
        return;
      const CampaignShard& shard = shards[shard_index];
      obs::TraceSpan shard_span("shard", "campaign", "shard", shard_index);
      Acc acc = make_partial();
      for (std::size_t trial = shard.begin; trial < shard.end; ++trial) {
        Rng rng = Rng::stream(seed, trial);
        accumulate(acc, shard, trial, rng);
      }
      aggregator.commit_shard(shard_index, shard.size(), std::move(acc));
      if (stream.arbiter != nullptr) stream.arbiter->committed(shard_index);
    };
    run_shards_prepartitioned_indices(pending, run_one_shard);

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
        if (!wave.empty())
          run_shards_prepartitioned_indices(wave, run_one_shard);
      }
    }
    aggregator.finish();
    return aggregator.take();
  }

  /// Dispatches `body` for the listed shard indices only.
  void run_shards_prepartitioned_indices(
      const std::vector<std::size_t>& indices,
      const std::function<void(std::size_t)>& body) const;

  /// Serializes an aggregator snapshot to `path` (atomic replace).
  static void save_checkpoint(
      const std::string& path, std::uint64_t fingerprint,
      const StreamProgress& progress,
      const std::vector<std::uint8_t>& shard_done,
      const std::function<void(std::ostream&)>& write_payload);

  int threads_;
};

}  // namespace ftnav

// Tests for campaign engine v2 streaming: StreamingAggregator snapshot
// consistency, checkpoint file round-trips, and checkpoint/resume
// bit-identity when a campaign is interrupted at shard boundaries and
// resumed under a different thread count.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_runner.h"
#include "campaign/checkpoint.h"
#include "campaign/streaming.h"
#include "campaign/worker_pool.h"
#include "experiments/grid_inference.h"
#include "util/histogram.h"
#include "util/table.h"

namespace ftnav {
namespace {

/// Unique scratch path in the temp directory, cleared on construction
/// (stale files from a crashed run) and removed on destruction
/// (including the atomic-save .tmp sibling).
struct ScratchFile {
  std::string path;
  explicit ScratchFile(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("ftnav_test_" + name + ".ckpt"))
                 .string()) {
    std::filesystem::remove(path);
  }
  ~ScratchFile() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    std::filesystem::remove(path + ".tmp", ignored);
  }
};

// ---- util state serialization -------------------------------------------

TEST(StateSerialization, HistogramRoundTripsExactly) {
  Histogram original(0.0, 1.0, 8);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) original.add(rng.uniform());

  std::stringstream buffer;
  original.save_state(buffer);
  Histogram restored(0.0, 1.0, 8);
  restored.restore_state(buffer);

  EXPECT_EQ(restored.total(), original.total());
  for (std::size_t bin = 0; bin < original.bin_count(); ++bin)
    EXPECT_EQ(restored.count_in_bin(bin), original.count_in_bin(bin));
  // Bit-exact doubles, not approximately equal.
  EXPECT_EQ(restored.observed_min(), original.observed_min());
  EXPECT_EQ(restored.observed_max(), original.observed_max());
}

TEST(StateSerialization, HistogramRejectsBinningMismatch) {
  Histogram original(0.0, 1.0, 8);
  original.add(0.5);
  std::stringstream buffer;
  original.save_state(buffer);
  Histogram other(0.0, 2.0, 8);
  EXPECT_THROW(other.restore_state(buffer), std::runtime_error);
}

TEST(StateSerialization, HeatmapGridRoundTripsWithMissingCells) {
  HeatmapGrid original({"r0", "r1"}, {"c0", "c1", "c2"});
  original.set(0, 0, 1.25);
  original.set(1, 2, -3.75e-9);

  std::stringstream buffer;
  original.save_state(buffer);
  HeatmapGrid restored({"r0", "r1"}, {"c0", "c1", "c2"});
  restored.restore_state(buffer);

  EXPECT_EQ(restored.to_csv(12), original.to_csv(12));
  EXPECT_FALSE(restored.has(0, 1));
  EXPECT_EQ(restored.at(1, 2), -3.75e-9);
}

TEST(StateSerialization, HeatmapGridRejectsAxisMismatch) {
  HeatmapGrid original({"r0"}, {"c0"});
  original.set(0, 0, 1.0);
  std::stringstream buffer;
  original.save_state(buffer);
  HeatmapGrid other({"different"}, {"c0"});
  EXPECT_THROW(other.restore_state(buffer), std::runtime_error);
}

TEST(StateSerialization, TableAndHeatmapJsonShapes) {
  Table table({"BER", "success"});
  table.add_row(std::vector<std::string>{"0.1%", "98"});
  EXPECT_EQ(table.to_json(),
            "{\"headers\":[\"BER\",\"success\"],"
            "\"rows\":[[\"0.1%\",\"98\"]]}");

  HeatmapGrid grid({"r\"0\""}, {"c0", "c1"});
  grid.set(0, 1, 2.5);
  EXPECT_EQ(grid.to_json(1),
            "{\"rows\":[\"r\\\"0\\\"\"],\"cols\":[\"c0\",\"c1\"],"
            "\"cells\":[[null,2.5]]}");
}

// ---- checkpoint files ----------------------------------------------------

TEST(CampaignCheckpointFile, SaveLoadRoundTrip) {
  ScratchFile scratch("ckpt_roundtrip");
  CampaignCheckpoint::Header header;
  header.fingerprint = CampaignCheckpoint::fingerprint("test", 42, 100, 10);
  header.trial_count = 100;
  header.shard_count = 10;
  header.trials_done = 30;
  const std::vector<std::uint8_t> bitmap = {1, 1, 1, 0, 0, 0, 0, 0, 0, 0};

  CampaignCheckpoint::save(scratch.path, header, bitmap, "payload-bytes");
  const auto loaded = CampaignCheckpoint::load(scratch.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->header.fingerprint, header.fingerprint);
  EXPECT_EQ(loaded->header.trials_done, 30u);
  EXPECT_EQ(loaded->shard_done, bitmap);
  EXPECT_EQ(loaded->payload, "payload-bytes");
}

TEST(CampaignCheckpointFile, MissingFileIsNullopt) {
  EXPECT_FALSE(
      CampaignCheckpoint::load("/nonexistent/ftnav.ckpt").has_value());
}

TEST(CampaignCheckpointFile, CorruptionFailsChecksum) {
  ScratchFile scratch("ckpt_corrupt");
  CampaignCheckpoint::Header header;
  header.fingerprint = 1;
  header.trial_count = 4;
  header.shard_count = 2;
  header.trials_done = 2;
  CampaignCheckpoint::save(scratch.path, header, {1, 0}, "state");

  // Flip one payload byte; the trailing FNV-1a must catch it.
  std::fstream file(scratch.path,
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(45);
  file.put('\x7f');
  file.close();
  EXPECT_THROW(CampaignCheckpoint::load(scratch.path), std::runtime_error);
}

TEST(CampaignCheckpointFile, FingerprintSeparatesConfigurations) {
  const auto base = CampaignCheckpoint::fingerprint("tag", 42, 100, 10);
  EXPECT_NE(base, CampaignCheckpoint::fingerprint("tag2", 42, 100, 10));
  EXPECT_NE(base, CampaignCheckpoint::fingerprint("tag", 43, 100, 10));
  EXPECT_NE(base, CampaignCheckpoint::fingerprint("tag", 42, 101, 10));
  EXPECT_EQ(base, CampaignCheckpoint::fingerprint("tag", 42, 100, 10));
}

// ---- StreamingAggregator -------------------------------------------------

TEST(StreamingAggregatorTest, SnapshotsAreConsistentUnderConcurrentCommits) {
  // Every snapshot must observe a merged histogram whose total equals
  // the trials_done it is handed — i.e. the snapshot sees exactly the
  // committed shards, never a half-merged state.
  constexpr std::size_t kShards = 24;
  constexpr std::size_t kTrialsPerShard = 10;
  StreamingAggregator<Histogram> aggregator(
      Histogram(0.0, 1.0, 4),
      [](Histogram& into, Histogram&& from) { into.merge(from); },
      kShards * kTrialsPerShard, kShards);

  int snapshots = 0;
  aggregator.set_snapshot_callback(
      1, [&](const StreamProgress& progress, const Histogram& merged) {
        EXPECT_EQ(merged.total(), progress.trials_done);
        ++snapshots;
      });

  std::vector<std::thread> committers;
  for (int worker = 0; worker < 4; ++worker) {
    committers.emplace_back([&aggregator, worker] {
      for (std::size_t shard = static_cast<std::size_t>(worker);
           shard < kShards; shard += 4) {
        Histogram partial(0.0, 1.0, 4);
        Rng rng = Rng::stream(11, shard);
        for (std::size_t t = 0; t < kTrialsPerShard; ++t)
          partial.add(rng.uniform());
        aggregator.commit_shard(shard, kTrialsPerShard, std::move(partial));
      }
    });
  }
  for (std::thread& committer : committers) committer.join();

  EXPECT_EQ(snapshots, static_cast<int>(kShards));
  EXPECT_EQ(aggregator.progress().shards_done, kShards);
  EXPECT_EQ(aggregator.merged().total(), kShards * kTrialsPerShard);
}

TEST(StreamingAggregatorTest, SnapshotCadenceHonorsProgressEvery) {
  constexpr std::size_t kShards = 20;
  constexpr std::size_t kTrialsPerShard = 10;
  StreamingAggregator<std::vector<int>> aggregator(
      std::vector<int>(1, 0),
      [](std::vector<int>& into, std::vector<int>&& from) {
        into[0] += from[0];
      },
      kShards * kTrialsPerShard, kShards);

  std::vector<std::size_t> observed;
  aggregator.set_snapshot_callback(
      35, [&](const StreamProgress& progress, const std::vector<int>&) {
        observed.push_back(progress.trials_done);
      });
  for (std::size_t shard = 0; shard < kShards; ++shard)
    aggregator.commit_shard(shard, kTrialsPerShard, std::vector<int>(1, 1));
  aggregator.finish();

  ASSERT_FALSE(observed.empty());
  // Consecutive snapshots are at least the cadence apart (the final
  // completion snapshot excepted) and the last reports completion.
  for (std::size_t i = 1; i + 1 < observed.size(); ++i)
    EXPECT_GE(observed[i] - observed[i - 1], 35u);
  EXPECT_EQ(observed.back(), kShards * kTrialsPerShard);
}

// ---- checkpoint/resume bit-identity --------------------------------------

/// A streamed histogram campaign: each trial draws a few variates from
/// its counter-derived stream, so results are a pure function of
/// (seed, trial) and any resume schedule must reproduce them exactly.
Histogram run_histogram_campaign(int threads,
                                 const CampaignStreamConfig& stream,
                                 std::size_t trials = 300,
                                 std::uint64_t seed = 123) {
  const CampaignRunner runner(threads);
  return runner.map_reduce_streamed(
      "test-histogram", trials, seed,
      [] { return Histogram(0.0, 3.0, 12); },
      [](Histogram& acc, std::size_t trial, Rng& rng) {
        for (int draw = 0; draw < 3; ++draw)
          acc.add(rng.uniform() + (trial % 3 == 0 ? rng.uniform() : 0.0));
      },
      [](Histogram& into, Histogram&& from) { into.merge(from); }, stream);
}

void expect_histograms_identical(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.bin_count(), b.bin_count());
  EXPECT_EQ(a.total(), b.total());
  for (std::size_t bin = 0; bin < a.bin_count(); ++bin)
    EXPECT_EQ(a.count_in_bin(bin), b.count_in_bin(bin));
  EXPECT_EQ(a.observed_min(), b.observed_min());
  EXPECT_EQ(a.observed_max(), b.observed_max());
}

TEST(CheckpointResume, MapReduceBitIdenticalAcrossInterruptPoints) {
  const Histogram uninterrupted =
      run_histogram_campaign(2, CampaignStreamConfig{});

  for (std::size_t stop_after : {std::size_t{1}, std::size_t{7},
                                 std::size_t{33}, std::size_t{63}}) {
    ScratchFile scratch("resume_mr_" + std::to_string(stop_after));
    CampaignStreamConfig interrupted;
    interrupted.checkpoint_path = scratch.path;
    interrupted.checkpoint_every_shards = 3;  // also exercise cadence
    interrupted.stop_after_shards = stop_after;
    EXPECT_THROW(run_histogram_campaign(2, interrupted),
                 CampaignInterrupted);

    // Resume under a different thread count than the run that wrote
    // the checkpoint (and than the baseline).
    CampaignStreamConfig resume;
    resume.checkpoint_path = scratch.path;
    resume.resume = true;
    const Histogram resumed = run_histogram_campaign(4, resume);
    expect_histograms_identical(resumed, uninterrupted);
  }
}

TEST(CheckpointResume, MapStreamedBitIdenticalAfterInterrupt) {
  const auto trial_fn = [](std::size_t trial, Rng& rng) {
    return static_cast<double>(trial) + rng.uniform();
  };
  const CampaignRunner baseline_runner(3);
  const std::vector<double> uninterrupted = baseline_runner.map_streamed(
      "test-map", 150, 77, trial_fn, CampaignStreamConfig{});

  ScratchFile scratch("resume_map");
  CampaignStreamConfig interrupted;
  interrupted.checkpoint_path = scratch.path;
  interrupted.stop_after_shards = 20;
  EXPECT_THROW(CampaignRunner(2).map_streamed("test-map", 150, 77, trial_fn,
                                              interrupted),
               CampaignInterrupted);

  CampaignStreamConfig resume;
  resume.checkpoint_path = scratch.path;
  resume.resume = true;
  const std::vector<double> resumed =
      CampaignRunner(1).map_streamed("test-map", 150, 77, trial_fn, resume);
  EXPECT_EQ(resumed, uninterrupted);  // bit-identical doubles
}

TEST(CheckpointResume, ResumeOfCompletedCampaignSkipsAllWork) {
  ScratchFile scratch("resume_done");
  CampaignStreamConfig checkpointed;
  checkpointed.checkpoint_path = scratch.path;
  const Histogram first = run_histogram_campaign(2, checkpointed);

  // Resuming a finished campaign must do zero trials and still return
  // the identical merged state, straight from the checkpoint.
  const WorkerPool::Stats before = WorkerPool::instance().stats();
  CampaignStreamConfig resume;
  resume.checkpoint_path = scratch.path;
  resume.resume = true;
  const Histogram second = run_histogram_campaign(4, resume);
  const WorkerPool::Stats after = WorkerPool::instance().stats();
  expect_histograms_identical(second, first);
  EXPECT_EQ(after.tasks_run, before.tasks_run);
}

TEST(CheckpointResume, MismatchedConfigurationRefusesToResume) {
  ScratchFile scratch("resume_mismatch");
  CampaignStreamConfig checkpointed;
  checkpointed.checkpoint_path = scratch.path;
  (void)run_histogram_campaign(2, checkpointed);

  CampaignStreamConfig resume;
  resume.checkpoint_path = scratch.path;
  resume.resume = true;
  // Different seed -> different fingerprint -> refuse, don't corrupt.
  EXPECT_THROW(run_histogram_campaign(2, resume, 300, 999),
               std::runtime_error);
}

TEST(CheckpointResume, FileWithAnotherPartitionIsRefused) {
  // A file with a valid checksum and this campaign's own fingerprint,
  // but a header claiming another trial count or shard partition, must
  // be refused on resume and on the finalize merge -- its bitmap is
  // not indexed by this campaign's shards.
  ScratchFile written("partition_written");
  CampaignStreamConfig interrupted;
  interrupted.checkpoint_path = written.path;
  interrupted.stop_after_shards = 1;
  EXPECT_THROW(run_histogram_campaign(1, interrupted), CampaignInterrupted);
  const std::optional<CampaignCheckpoint::Loaded> original =
      CampaignCheckpoint::load(written.path);
  ASSERT_TRUE(original.has_value());
  ASSERT_EQ(original->header.trial_count, 300u);
  ASSERT_EQ(original->header.shard_count, 64u);

  ScratchFile crafted("partition_crafted");
  ScratchFile merged("partition_merged");
  const struct {
    std::uint64_t trials;
    std::uint64_t shards;
  } lies[] = {{300, 1}, {300, 63}, {299, 64}, {301, 64}};
  for (const auto& lie : lies) {
    CampaignCheckpoint::Header header = original->header;
    header.trial_count = lie.trials;
    header.shard_count = lie.shards;
    std::vector<std::uint8_t> done(lie.shards, 0);
    done[0] = 1;
    CampaignCheckpoint::save(crafted.path, header, done, original->payload);

    CampaignStreamConfig resume;
    resume.checkpoint_path = crafted.path;
    resume.resume = true;
    EXPECT_THROW(run_histogram_campaign(2, resume), std::runtime_error)
        << "resume of " << lie.trials << " trials in " << lie.shards
        << " shards";

    CampaignStreamConfig finalize;
    finalize.checkpoint_path = merged.path;
    finalize.merge_partials = {crafted.path};
    EXPECT_THROW(run_histogram_campaign(2, finalize), std::runtime_error)
        << "merge of " << lie.trials << " trials in " << lie.shards
        << " shards";
    std::filesystem::remove(merged.path);
  }
}

TEST(CheckpointResume, ChangedBerAxisRefusesToResume) {
  // Same seed, same trial count, same shard partition — but different
  // BER values. The config digest in the checkpoint tag must refuse
  // the resume instead of silently merging incompatible shards.
  InferenceCampaignConfig config;
  config.kind = GridPolicyKind::kTabular;
  config.train_episodes = 200;
  config.bers = {0.005};
  config.repeats = 6;
  config.seed = 33;

  ScratchFile scratch("resume_ber_mismatch");
  ScenarioContext interrupted;
  interrupted.threads = 2;
  interrupted.stream.checkpoint_path = scratch.path;
  interrupted.stream.stop_after_shards = 2;
  EXPECT_THROW(run_inference_campaign(config, interrupted),
               CampaignInterrupted);

  InferenceCampaignConfig changed = config;
  changed.bers = {0.010};  // same count, different fault pressure
  ScenarioContext resumed;
  resumed.threads = 2;
  resumed.stream.checkpoint_path = scratch.path;
  resumed.stream.resume = true;
  EXPECT_THROW(run_inference_campaign(changed, resumed), std::runtime_error);
}

TEST(CheckpointResume, InferenceCampaignResumesByteIdentically) {
  InferenceCampaignConfig config;
  config.kind = GridPolicyKind::kTabular;
  config.train_episodes = 300;
  config.bers = {0.0, 0.02};
  config.repeats = 8;
  config.seed = 21;
  config.mitigated = true;
  ScenarioContext context;
  context.threads = 2;
  const InferenceCampaignResult uninterrupted =
      run_inference_campaign(config, context);

  ScratchFile scratch("resume_driver");
  ScenarioContext interrupted = context;
  interrupted.stream.checkpoint_path = scratch.path;
  interrupted.stream.stop_after_shards = 9;
  EXPECT_THROW(run_inference_campaign(config, interrupted),
               CampaignInterrupted);

  ScenarioContext resume = context;
  resume.threads = 4;
  resume.stream.checkpoint_path = scratch.path;
  resume.stream.resume = true;
  const InferenceCampaignResult resumed =
      run_inference_campaign(config, resume);

  ASSERT_EQ(resumed.success_by_mode.size(),
            uninterrupted.success_by_mode.size());
  for (std::size_t mode = 0; mode < resumed.success_by_mode.size(); ++mode)
    EXPECT_EQ(resumed.success_by_mode[mode],
              uninterrupted.success_by_mode[mode]);
  EXPECT_EQ(resumed.detections, uninterrupted.detections);
}

}  // namespace
}  // namespace ftnav

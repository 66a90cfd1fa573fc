// Tests for the parallel sharded campaign engine: sharding arithmetic,
// counter-derived stream determinism, thread-count invariance of full
// campaign drivers, shard-boundary edge cases, worker exception
// propagation, and persistent worker-pool reuse across campaign phases.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "campaign/campaign_runner.h"
#include "campaign/worker_pool.h"
#include "experiments/drone_campaigns.h"
#include "experiments/grid_inference.h"
#include "experiments/grid_training.h"
#include "util/env_config.h"
#include "util/histogram.h"

namespace ftnav {
namespace {

/// Thread count for the parallel arm of the determinism tests. CI's
/// determinism job runs this suite under FTNAV_THREADS=1 (everything
/// serial) and FTNAV_THREADS=4 (serial vs 4-way pool), so the env knob
/// genuinely changes the schedule being compared against serial.
int parallel_threads() {
  const int threads = static_cast<int>(env_int("FTNAV_THREADS", 4, 0, 256));
  return threads > 0 ? threads : 4;
}

TEST(ShardTrials, CoversRangeWithBalancedShards) {
  const auto shards = shard_trials(10, 4);
  ASSERT_EQ(shards.size(), 4u);
  // 10 = 3 + 3 + 2 + 2, contiguous from 0.
  EXPECT_EQ(shards[0].size(), 3u);
  EXPECT_EQ(shards[1].size(), 3u);
  EXPECT_EQ(shards[2].size(), 2u);
  EXPECT_EQ(shards[3].size(), 2u);
  std::size_t expected_begin = 0;
  for (const CampaignShard& shard : shards) {
    EXPECT_EQ(shard.begin, expected_begin);
    expected_begin = shard.end;
  }
  EXPECT_EQ(expected_begin, 10u);
}

TEST(ShardTrials, GridSmallerThanPoolYieldsOneTrialShards) {
  const auto shards = shard_trials(3, 16);
  ASSERT_EQ(shards.size(), 3u);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].begin, i);
    EXPECT_EQ(shards[i].end, i + 1);
  }
}

TEST(ShardTrials, EmptyGridAndZeroShards) {
  EXPECT_TRUE(shard_trials(0, 8).empty());
  EXPECT_TRUE(shard_trials(5, 0).empty());
}

TEST(ResolveThreads, PositivePassesThroughNonPositiveAutodetects) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-2), 1);
}

TEST(RngStream, IsPureFunctionOfSeedAndIndex) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
  // Neighboring streams and seeds decorrelate from the first draw.
  EXPECT_NE(Rng::stream(42, 7)(), Rng::stream(42, 8)());
  EXPECT_NE(Rng::stream(42, 7)(), Rng::stream(43, 7)());
}

TEST(CampaignRunner, MapIsThreadCountInvariant) {
  const auto trial = [](std::size_t index, Rng& rng) {
    double acc = static_cast<double>(index);
    for (int draw = 0; draw < 100; ++draw) acc += rng.uniform();
    return acc;
  };
  const std::vector<double> serial =
      CampaignRunner(1).map_streamed("map", 97, 5, trial, {});
  const std::vector<double> parallel =
      CampaignRunner(parallel_threads()).map_streamed("map", 97, 5, trial, {});
  EXPECT_EQ(serial, parallel);  // bit-identical, not approximately equal
}

TEST(CampaignRunner, MapHandlesGridSmallerThanPool) {
  const CampaignRunner runner(8);
  const auto draw = [](std::size_t, Rng& rng) { return rng.uniform(); };
  const std::vector<double> two = runner.map_streamed("map", 2, 11, draw, {});
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[1], Rng::stream(11, 1).uniform());
  const std::vector<double> empty =
      runner.map_streamed("map", 0, 11, draw, {});
  EXPECT_TRUE(empty.empty());
}

TEST(CampaignRunner, ForEachVisitsEveryTrialExactlyOnce) {
  const CampaignRunner runner(4);
  std::vector<std::atomic<int>> visits(101);
  runner.for_each(101, 3,
                  [&](std::size_t trial, Rng&) { ++visits[trial]; });
  for (const auto& count : visits) EXPECT_EQ(count.load(), 1);
}

TEST(CampaignRunner, MapReduceMergesHistogramShards) {
  const auto run_with = [](int threads) {
    return CampaignRunner(threads).map_reduce_streamed(
        "histogram", 500, 17, [] { return Histogram(0.0, 1.0, 10); },
        [](Histogram& acc, std::size_t, Rng& rng) { acc.add(rng.uniform()); },
        [](Histogram& into, Histogram&& from) { into.merge(from); }, {});
  };
  const Histogram serial = run_with(1);
  const Histogram parallel = run_with(4);
  EXPECT_EQ(serial.total(), 500u);
  EXPECT_EQ(parallel.total(), 500u);
  for (std::size_t bin = 0; bin < serial.bin_count(); ++bin)
    EXPECT_EQ(serial.count_in_bin(bin), parallel.count_in_bin(bin));
  EXPECT_EQ(serial.observed_min(), parallel.observed_min());
  EXPECT_EQ(serial.observed_max(), parallel.observed_max());
}

TEST(CampaignRunner, ScratchIsBuiltOncePerShardAndNeverMovesResults) {
  const auto trial = [](std::size_t index, Rng& rng) {
    return static_cast<double>(index) + rng.uniform();
  };
  const CampaignRunner runner(parallel_threads());
  const std::vector<double> plain =
      runner.map_streamed("scratch", 200, 9, trial, {});
  std::atomic<int> built{0};
  const std::vector<double> with_scratch = runner.map_streamed(
      "scratch", 200, 9,
      [&built] {
        ++built;
        return std::vector<int>();
      },
      [&](std::size_t index, Rng& rng, std::vector<int>& uses) {
        uses.push_back(1);
        return trial(index, rng);
      },
      {});
  EXPECT_EQ(with_scratch, plain);
  EXPECT_EQ(built.load(), 64);  // min(200, 64) shards, whatever the threads

  // map_reduce_streamed offers the same channel.
  built = 0;
  const int count = runner.map_reduce_streamed(
      "scratch-reduce", 10, 9, [] { return 0; },
      [&built] {
        ++built;
        return 0;
      },
      [](int& acc, std::size_t, Rng&, int& scratch) {
        EXPECT_EQ(scratch++, 0);  // one trial per shard at this size
        ++acc;
      },
      [](int& into, int&& from) { into += from; }, {});
  EXPECT_EQ(count, 10);
  EXPECT_EQ(built.load(), 10);
}

TEST(CampaignRunner, WorkerExceptionPropagatesToCaller) {
  const CampaignRunner runner(4);
  EXPECT_THROW(
      runner.for_each(64, 1,
                      [](std::size_t trial, Rng&) {
                        if (trial == 13)
                          throw std::runtime_error("injected failure");
                      }),
      std::runtime_error);
}

TEST(CampaignRunner, ExceptionAbortsRemainingShards) {
  const CampaignRunner runner(2);
  std::atomic<int> executed{0};
  try {
    runner.for_each(1000, 1, [&](std::size_t, Rng&) {
      ++executed;
      throw std::runtime_error("boom");
    });
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error&) {
  }
  // At most one trial per in-flight shard ran; the rest were skipped.
  EXPECT_LT(executed.load(), 1000);
}

// ---- persistent worker pool ---------------------------------------------

TEST(WorkerPoolTest, ExecutesEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> visits(57);
  pool.run(57, 4, [&](std::size_t task) { ++visits[task]; });
  for (const auto& count : visits) EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(pool.stats().tasks_run, 57u);
}

TEST(WorkerPoolTest, ReusesWorkersAcrossCampaignPhases) {
  // Multiple campaign phases on the process-wide pool must reuse the
  // same parked workers instead of respawning threads per phase.
  WorkerPool& pool = WorkerPool::instance();
  const auto phase = [](std::uint64_t seed) {
    return CampaignRunner(4).map_streamed(
        "phase", 64, seed, [](std::size_t, Rng& rng) { return rng.uniform(); },
        {});
  };
  (void)phase(1);  // pool is warm after the first phase
  const WorkerPool::Stats warm = pool.stats();
  (void)phase(2);
  (void)phase(3);
  const CampaignRunner runner(4);
  EXPECT_EQ(runner.map_reduce_streamed(
                "count", 100, 4, [] { return 0; },
                [](int& acc, std::size_t, Rng&) { ++acc; },
                [](int& into, int&& from) { into += from; }, {}),
            100);
  const WorkerPool::Stats after = pool.stats();
  EXPECT_EQ(after.workers_spawned, warm.workers_spawned);
  EXPECT_GE(after.regions_run, warm.regions_run + 3);
  EXPECT_GE(pool.worker_count(), 3);
}

TEST(WorkerPoolTest, StealsTasksFromABlockedParticipant) {
  // Lane 0 (the caller) blocks in its first task until every other
  // task has run. Lane 0's remaining tasks can then only execute if
  // the lane-1 worker steals them, so completion proves stealing.
  WorkerPool pool(1);
  const std::uint64_t steals_before = pool.stats().steals;
  std::mutex mutex;
  std::condition_variable cv;
  int done = 0;
  pool.run(6, 2, [&](std::size_t task) {
    std::unique_lock<std::mutex> lock(mutex);
    if (task == 0) {
      cv.wait(lock, [&] { return done == 5; });
    } else {
      ++done;
      cv.notify_all();
    }
  });
  EXPECT_GE(pool.stats().steals, steals_before + 2);
}

TEST(WorkerPoolTest, NestedCampaignRunsInlineWithoutDeadlock) {
  // A trial that itself runs a campaign must not re-enter the pool.
  const CampaignRunner outer(4);
  const std::vector<double> totals = outer.map_streamed(
      "outer", 8, 5,
      [](std::size_t, Rng&) {
        const CampaignRunner inner(4);
        const std::vector<double> draws = inner.map_streamed(
            "inner", 16, 9, [](std::size_t, Rng& rng) { return rng.uniform(); },
            {});
        double total = 0.0;
        for (double draw : draws) total += draw;
        return total;
      },
      {});
  for (double total : totals) EXPECT_EQ(total, totals.front());
}

TEST(WorkerPoolTest, FailingTaskIsRethrownOnTheCaller) {
  WorkerPool pool(4);
  try {
    pool.run(40, 4, [&](std::size_t task) {
      if (task == 17) throw std::runtime_error("task 17");
    });
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 17");
  }
}

// ---- thread-count invariance of the ported experiment drivers ----------

DroneInferenceCampaignConfig tiny_drone_campaign() {
  DroneInferenceCampaignConfig config;
  config.policy.preset = C3F2Preset::kFast;
  config.policy.imitation_episodes = 2;
  config.policy.ddqn_episodes = 0;
  config.policy.seed = 3;
  config.policy.env_max_steps = 40;
  config.policy.env_max_distance = 30.0;
  config.bers = {0.0, 1e-2};
  config.repeats = 2;
  config.seed = 5;
  return config;
}

/// A campaign context with `threads` and default stream knobs.
ScenarioContext on_threads(int threads) {
  ScenarioContext context;
  context.threads = threads;
  return context;
}

TEST(CampaignDeterminism, DroneInferenceSweepMatchesAcrossThreadCounts) {
  const EnvironmentSweepResult serial =
      run_environment_sweep(tiny_drone_campaign(), on_threads(1));
  const EnvironmentSweepResult parallel = run_environment_sweep(
      tiny_drone_campaign(), on_threads(parallel_threads()));
  ASSERT_EQ(serial.msf.size(), parallel.msf.size());
  for (std::size_t env = 0; env < serial.msf.size(); ++env)
    EXPECT_EQ(serial.msf[env], parallel.msf[env]);  // bit-identical MSF
}

TEST(CampaignDeterminism, DroneTrainingHeatmapIsByteIdentical) {
  DroneTrainingCampaignConfig config;
  config.policy.preset = C3F2Preset::kFast;
  config.policy.imitation_episodes = 2;
  config.policy.ddqn_episodes = 0;
  config.policy.seed = 3;
  config.policy.env_max_steps = 40;
  config.policy.env_max_distance = 30.0;
  config.bers = {1e-3, 1e-1};
  config.injection_points = {0.0, 0.5};
  config.fine_tune_episodes = 1;
  config.eval_repeats = 1;
  config.seed = 13;

  const DroneTrainingCampaignResult serial = run_drone_training_campaign(
      DroneWorld::indoor_long(), config, on_threads(1));
  const DroneTrainingCampaignResult parallel = run_drone_training_campaign(
      DroneWorld::indoor_long(), config, on_threads(parallel_threads()));

  EXPECT_EQ(serial.transient.to_csv(9), parallel.transient.to_csv(9));
  EXPECT_EQ(serial.stuck_at_0, parallel.stuck_at_0);
  EXPECT_EQ(serial.stuck_at_1, parallel.stuck_at_1);
  EXPECT_EQ(serial.fault_free_msf, parallel.fault_free_msf);
}

TEST(CampaignDeterminism, GridInferenceCampaignMatchesAcrossThreadCounts) {
  InferenceCampaignConfig config;
  config.kind = GridPolicyKind::kTabular;
  config.train_episodes = 400;
  config.bers = {0.0, 0.02};
  config.repeats = 10;
  config.seed = 7;
  config.mitigated = true;

  const InferenceCampaignResult serial =
      run_inference_campaign(config, on_threads(1));
  const InferenceCampaignResult parallel =
      run_inference_campaign(config, on_threads(parallel_threads()));

  ASSERT_EQ(serial.success_by_mode.size(), parallel.success_by_mode.size());
  for (std::size_t mode = 0; mode < serial.success_by_mode.size(); ++mode)
    EXPECT_EQ(serial.success_by_mode[mode], parallel.success_by_mode[mode]);
  EXPECT_EQ(serial.detections, parallel.detections);
}

TEST(CampaignDeterminism, TrainingHeatmapMatchesAcrossThreadCounts) {
  TrainingHeatmapConfig config;
  config.episodes = 120;
  config.bers = {0.0, 0.01};
  config.injection_episodes = {0, 60, 110};
  config.repeats = 2;

  const HeatmapGrid serial =
      run_transient_training_heatmap(config, on_threads(1));
  const HeatmapGrid parallel =
      run_transient_training_heatmap(config, on_threads(parallel_threads()));
  EXPECT_EQ(serial.to_csv(9), parallel.to_csv(9));
}

}  // namespace
}  // namespace ftnav

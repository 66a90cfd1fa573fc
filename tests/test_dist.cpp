// Tests for the distributed campaign subsystem (src/dist/):
// CampaignCheckpoint::merge, and the end-to-end contract — N worker
// processes' partial checkpoints merge into a checkpoint byte-identical
// to a single-process run, for any split and any worker kill schedule.
// Workers are simulated in-process (the campaign server only sees RPCs,
// so a thread whose stream carries its own DistConfig is
// indistinguishable from a process); the real fork/exec path is covered
// by DistCoordinatorTest and CI's distributed-determinism job.
// Worker-count, lease-batch, and kill-and-reclaim matrices live in
// test_transport.cpp.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_runner.h"
#include "campaign/checkpoint.h"
#include "campaign/streaming.h"
#include "dist/dist_campaign.h"
#include "dist/dist_coordinator.h"
#include "dist/tcp_transport.h"
#include "util/histogram.h"

namespace ftnav {
namespace {

/// Scratch directory under the system temp dir, removed on scope exit.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("ftnav_dist_" + name))
                 .string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- CampaignCheckpoint::merge ------------------------------------------

CampaignCheckpoint::Loaded make_partial(
    std::uint64_t fingerprint, const std::vector<std::uint8_t>& bitmap,
    std::uint64_t trials_done, const std::string& payload) {
  CampaignCheckpoint::Loaded partial;
  partial.header.fingerprint = fingerprint;
  partial.header.trial_count = 100;
  partial.header.shard_count = bitmap.size();
  partial.header.trials_done = trials_done;
  partial.shard_done = bitmap;
  partial.payload = payload;
  return partial;
}

TEST(CheckpointMerge, DisjointPartialsUnionBitmapsAndSumTrials) {
  const auto merged = CampaignCheckpoint::merge(
      {make_partial(9, {1, 0, 0, 1}, 50, "A"),
       make_partial(9, {0, 1, 0, 0}, 25, "B"),
       make_partial(9, {0, 0, 1, 0}, 25, "C")},
      [](const std::vector<CampaignCheckpoint::Loaded>& partials) {
        std::string payload;
        for (const auto& partial : partials) payload += partial.payload;
        return payload;
      });
  EXPECT_EQ(merged.shard_done, (std::vector<std::uint8_t>{1, 1, 1, 1}));
  EXPECT_EQ(merged.header.trials_done, 100u);
  EXPECT_EQ(merged.payload, "ABC");
}

TEST(CheckpointMerge, SinglePartialPassesThroughVerbatim) {
  const auto merged = CampaignCheckpoint::merge(
      {make_partial(9, {1, 1, 1, 1}, 100, "whole-campaign")},
      [](const std::vector<CampaignCheckpoint::Loaded>&) -> std::string {
        throw std::logic_error("payload merge must not run for one partial");
      });
  EXPECT_EQ(merged.payload, "whole-campaign");
}

TEST(CheckpointMerge, RefusesMismatchesAndOverlap) {
  const auto keep = [](const std::vector<CampaignCheckpoint::Loaded>& p) {
    return p.front().payload;
  };
  EXPECT_THROW(CampaignCheckpoint::merge({}, keep), std::runtime_error);
  // Different fingerprints: partials from different campaigns.
  EXPECT_THROW(
      CampaignCheckpoint::merge({make_partial(1, {1, 0}, 50, "A"),
                                 make_partial(2, {0, 1}, 50, "B")},
                                keep),
      std::runtime_error);
  // Overlapping bitmaps: a shard ran twice; merging would double-count.
  EXPECT_THROW(
      CampaignCheckpoint::merge({make_partial(9, {1, 1}, 50, "A"),
                                 make_partial(9, {0, 1}, 50, "B")},
                                keep),
      std::runtime_error);
}

TEST(DistQueueLabel, DerivedFromTagDeterministicallyAndSafely) {
  const std::string label =
      dist_queue_label("grid-inference/tabular/mitigated#0123abcd");
  EXPECT_EQ(label, dist_queue_label("grid-inference/tabular/mitigated"
                                    "#0123abcd"));
  EXPECT_NE(label, dist_queue_label("grid-inference/tabular#0123abcd"));
  EXPECT_EQ(label.find('/'), std::string::npos);
  EXPECT_EQ(label.find('#'), std::string::npos);
}

// ---- end-to-end: workers + merge = single process ------------------------

constexpr std::size_t kTrials = 300;
constexpr std::uint64_t kSeed = 123;
constexpr const char* kTag = "test-dist-histogram";

/// The reference streamed campaign from test_streaming: every trial is
/// a pure function of (seed, trial), so any shard split must reproduce
/// the single-process result exactly.
Histogram run_campaign(const CampaignStreamConfig& stream) {
  const CampaignRunner runner(1);
  return runner.map_reduce_streamed(
      kTag, kTrials, kSeed, [] { return Histogram(0.0, 3.0, 12); },
      [](Histogram& acc, std::size_t trial, Rng& rng) {
        for (int draw = 0; draw < 3; ++draw)
          acc.add(rng.uniform() + (trial % 3 == 0 ? rng.uniform() : 0.0));
      },
      [](Histogram& into, Histogram&& from) { into.merge(from); }, stream);
}

/// One simulated worker process: a stream whose DistConfig names the
/// worker role, exactly as the front end hands it to a scenario.
CampaignStreamConfig worker_stream(const std::string& queue_addr,
                                   int worker_id) {
  CampaignStreamConfig stream;
  stream.dist.worker_id = worker_id;
  stream.dist.queue_addr = queue_addr;
  stream.dist.lease_expiry_seconds = 1.0;  // heartbeat clamps to 0.25
  stream.dist.poll_period_seconds = 0.01;
  return stream;
}

Histogram run_worker(const std::string& queue_addr, int worker_id) {
  return run_campaign(worker_stream(queue_addr, worker_id));
}

/// Coordinator finalize: merge the partials into `merged_path`.
Histogram run_finalize(const std::string& queue_addr,
                       const std::string& merged_path, int workers) {
  CampaignStreamConfig stream;
  stream.dist.workers = workers;
  stream.dist.queue_addr = queue_addr;
  stream.checkpoint_path = merged_path;
  return run_campaign(stream);
}

void expect_histograms_identical(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.bin_count(), b.bin_count());
  EXPECT_EQ(a.total(), b.total());
  for (std::size_t bin = 0; bin < a.bin_count(); ++bin)
    EXPECT_EQ(a.count_in_bin(bin), b.count_in_bin(bin));
  EXPECT_EQ(a.observed_min(), b.observed_min());
  EXPECT_EQ(a.observed_max(), b.observed_max());
}

#if !defined(_WIN32)

TEST(DistCampaignE2E, RespawnedWorkerResumesItsOwnPartial) {
  ScratchDir scratch("e2e_respawn");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  const Histogram reference = run_campaign(reference_stream);

  TcpWorkServer server("127.0.0.1:0");
  server.start();
  {
    CampaignStreamConfig stream;
    stream.dist.worker_id = 0;
    stream.dist.queue_addr = server.address();
    stream.dist.worker_stop_after_shards = 7;  // dies in its 7th commit
    EXPECT_THROW(run_campaign(stream), CampaignInterrupted);
  }

  // The coordinator's waitpid path reclaims the dead life's lease
  // before respawning it: the crash-window shard never reached the
  // published partial, so it goes back to todo. (Unreclaimed, the
  // respawn's fresh heartbeat under the same id would keep that lease
  // from ever expiring.)
  EXPECT_EQ(TcpQueueClient(server.address()).reclaim(0, 0.0), 1u);

  // The respawned worker 0 restores the 6 shards of its published
  // partial and runs only the remainder.
  (void)run_worker(server.address(), 0);

  const std::string merged_path = scratch.path + "/merged.ckpt";
  const Histogram merged = run_finalize(server.address(), merged_path, 1);
  expect_histograms_identical(merged, reference);
  EXPECT_EQ(read_file(merged_path), read_file(reference_path));
}

TEST(DistCampaignE2E, MapStreamedPartialsMergeByTrialRange) {
  // map_streamed partials store full-size results vectors; the merge
  // must copy exactly the trial ranges each worker's bitmap owns.
  const auto trial_fn = [](std::size_t trial, Rng& rng) {
    return static_cast<double>(trial) + rng.uniform();
  };
  const CampaignRunner runner(1);
  const std::vector<double> reference = runner.map_streamed(
      "test-dist-map", 150, 77, trial_fn, CampaignStreamConfig{});

  ScratchDir scratch("e2e_map");
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  const auto worker = [&](int worker_id) {
    (void)runner.map_streamed("test-dist-map", 150, 77, trial_fn,
                              worker_stream(server.address(), worker_id));
  };
  std::thread other([&] { worker(1); });
  worker(0);
  other.join();

  CampaignStreamConfig stream;
  stream.dist.workers = 2;
  stream.dist.queue_addr = server.address();
  stream.checkpoint_path = scratch.path + "/merged.ckpt";
  const std::vector<double> merged =
      runner.map_streamed("test-dist-map", 150, 77, trial_fn, stream);
  EXPECT_EQ(merged, reference);  // bit-identical doubles
}

// ---- campaign-server failover + multi-tenant queues ----------------------

TEST(CampaignServerFailover, ServerKillAndRestartMergesByteIdentical) {
  // The tentpole contract: the campaign survives losing the SERVER
  // mid-run. Worker 0 dies in the claim->done crash window, then the
  // server is destroyed without any graceful drain; a new server
  // replays the journal, a NEVER-BEFORE-USED worker id finishes the
  // campaign (expiry-reclaiming the dead worker's lease from replayed
  // state), and the finalize merge must be byte-identical to a
  // single-process run.
  ScratchDir scratch("server_failover");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  const Histogram reference = run_campaign(reference_stream);

  const std::string journal = scratch.path + "/journal.bin";
  const auto endpoint_stream = [](const std::string& addr) {
    CampaignStreamConfig stream;
    stream.dist.queue_addr = addr;
    stream.dist.auth_token = "failover-token";
    stream.dist.queue_namespace = "failover-tag";
    stream.dist.lease_expiry_seconds = 1.0;  // heartbeat clamps to 0.25
    stream.dist.poll_period_seconds = 0.01;
    return stream;
  };

  {
    CampaignServer server(
        CampaignServerConfig{"127.0.0.1:0", journal, "failover-token"});
    server.start();
    CampaignStreamConfig stream = endpoint_stream(server.address());
    stream.dist.worker_id = 0;
    stream.dist.worker_stop_after_shards = 5;  // die in the crash window
    EXPECT_THROW(run_campaign(stream), CampaignInterrupted);
  }  // server destroyed here: no drain, exactly like a SIGKILL

  CampaignServer server(
      CampaignServerConfig{"127.0.0.1:0", journal, "failover-token"});
  server.start();  // journal replay restores leases, partials, counts

  {
    // Failover worker under a fresh id (as attach's alloc_worker_ids
    // guarantees): reclaims the dead worker's lease from the REPLAYED
    // heartbeat-free state and completes the campaign.
    CampaignStreamConfig stream = endpoint_stream(server.address());
    stream.dist.worker_id = 7;
    (void)run_campaign(stream);
  }

  CampaignStreamConfig stream = endpoint_stream(server.address());
  stream.dist.workers = 1;
  stream.checkpoint_path = scratch.path + "/merged.ckpt";
  const Histogram merged = run_campaign(stream);
  expect_histograms_identical(merged, reference);
  EXPECT_EQ(read_file(stream.checkpoint_path), read_file(reference_path));
}

TEST(CampaignServerTenancy, ConcurrentTagsKeepDisjointQueues) {
  // Two campaigns with IDENTICAL scenario configuration (same stream
  // tag, same trial count and seed) run interleaved on one server
  // under different submission tags. Without namespace-keyed queues
  // they would share one shard queue and each merge would hold a
  // random half of the trials.
  ScratchDir scratch("server_tenancy");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  const Histogram reference = run_campaign(reference_stream);
  const std::string reference_bytes = read_file(reference_path);

  CampaignServer server("127.0.0.1:0");
  server.start();
  const auto tenant_stream = [&](const std::string& tenant) {
    CampaignStreamConfig stream;
    stream.dist.queue_addr = server.address();
    stream.dist.queue_namespace = tenant;
    stream.dist.lease_expiry_seconds = 1.0;
    stream.dist.poll_period_seconds = 0.01;
    return stream;
  };
  const auto tenant_worker = [&](const std::string& tenant, int worker_id) {
    CampaignStreamConfig stream = tenant_stream(tenant);
    stream.dist.worker_id = worker_id;
    (void)run_campaign(stream);
  };

  std::thread tenant_b([&] { tenant_worker("tenant-b", 0); });
  tenant_worker("tenant-a", 0);
  tenant_b.join();

  for (const std::string tenant : {"tenant-a", "tenant-b"}) {
    CampaignStreamConfig stream = tenant_stream(tenant);
    stream.dist.workers = 1;
    stream.checkpoint_path = scratch.path + "/merged-" + tenant + ".ckpt";
    const Histogram merged = run_campaign(stream);
    expect_histograms_identical(merged, reference);
    EXPECT_EQ(read_file(stream.checkpoint_path), reference_bytes) << tenant;
  }
}

#endif  // !defined(_WIN32)

// ---- DistCoordinator (fork/exec) ----------------------------------------

#if !defined(_WIN32)

TEST(DistCoordinatorTest, ReturnsWhenAllWorkersExitCleanly) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  DistConfig config;
  config.workers = 2;
  config.queue_addr = server.address();
  config.poll_period_seconds = 0.01;
  const DistCoordinator coordinator(config);
  coordinator.run([](int) {
    return DistCoordinator::Command{{"/bin/true"}, {}};
  });
}

TEST(DistCoordinatorTest, RespawnsThenGivesUpOnPersistentFailure) {
  // Each death reclaims the worker's leases over RPC before respawning.
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  DistConfig config;
  config.workers = 1;
  config.queue_addr = server.address();
  config.poll_period_seconds = 0.01;
  config.max_respawns = 1;
  const DistCoordinator coordinator(config);
  EXPECT_THROW(coordinator.run([](int) {
    return DistCoordinator::Command{{"/bin/false"}, {}};
  }),
               std::runtime_error);
}

#endif  // !defined(_WIN32)

}  // namespace
}  // namespace ftnav

// Tests for the lease protocol over the campaign server (src/dist/):
// for the same campaign config, every combination of worker count,
// lease batch size, and mid-campaign worker kill produces a merged
// checkpoint byte-identical to a single-process run. Plus work server
// unit coverage: RPC semantics, batched claims, reclaim across
// campaigns, and surviving clients that vanish mid-conversation or
// send hostile frames.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "campaign/campaign_runner.h"
#include "campaign/streaming.h"
#include "dist/dist_campaign.h"
#include "dist/tcp_transport.h"
#include "dist/wire_format.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace ftnav {
namespace {

/// Scratch directory under the system temp dir, removed on scope exit.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("ftnav_transport_" + name))
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

// ---- util/clock.h --------------------------------------------------------

TEST(PollBackoff, DoublesUpToTheCapAndResets) {
  timeutil::PollBackoff backoff(0.016);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.001);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.002);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.004);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.008);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.016);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.016);  // capped
  backoff.reset();
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.001);
}

TEST(PollBackoff, TinyCapNeverYieldsZeroWaits) {
  timeutil::PollBackoff backoff(0.0);
  EXPECT_GT(backoff.next_seconds(), 0.0);
  EXPECT_GT(backoff.next_seconds(), 0.0);
}

#if !defined(_WIN32)

// ---- the matrix: merged == single-process --------------------------------

constexpr std::size_t kTrials = 300;
constexpr std::uint64_t kSeed = 123;
constexpr const char* kTag = "test-transport-histogram";

/// The reference streamed campaign from test_dist: every trial is a
/// pure function of (seed, trial), so any shard split across any
/// transport must reproduce the single-process result exactly.
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

DistConfig worker_config(const DistConfig& endpoint, int worker_id,
                         int lease_batch) {
  DistConfig config = endpoint;
  config.worker_id = worker_id;
  config.lease_batch = lease_batch;
  config.lease_expiry_seconds = 1.0;  // heartbeat auto-clamps to 0.25
  config.poll_period_seconds = 0.01;
  return config;
}

void run_worker(const DistConfig& endpoint, int worker_id, int lease_batch) {
  const DistConfig config = worker_config(endpoint, worker_id, lease_batch);
  CampaignStreamConfig stream;
  DistCampaign dist(config, kTag, stream);
  (void)run_campaign(stream);
}

/// Coordinator finalize: merge the partials into `merged_path`.
Histogram run_finalize(const DistConfig& endpoint,
                       const std::string& merged_path, int workers) {
  DistConfig config = endpoint;
  config.workers = workers;
  CampaignStreamConfig stream;
  stream.checkpoint_path = merged_path;
  DistCampaign dist(config, kTag, stream);
  return run_campaign(stream);
}

/// Runs `workers` concurrent in-process workers against the endpoint,
/// finalizes, and requires the merged checkpoint to be byte-identical
/// to `reference_bytes`.
void expect_matrix_cell_matches(const DistConfig& endpoint, int workers,
                                int lease_batch,
                                const std::string& merged_path,
                                const std::string& reference_bytes) {
  std::vector<std::thread> threads;
  for (int id = 1; id < workers; ++id)
    threads.emplace_back(
        [&, id] { run_worker(endpoint, id, lease_batch); });
  run_worker(endpoint, 0, lease_batch);
  for (std::thread& thread : threads) thread.join();

  (void)run_finalize(endpoint, merged_path, workers);
  EXPECT_EQ(read_file(merged_path), reference_bytes)
      << "workers=" << workers << " lease_batch=" << lease_batch;
}

TEST(TransportMatrix, TcpWorkerCountsAndBatchesMergeByteIdentical) {
  ScratchDir scratch("tcp_matrix");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  (void)run_campaign(reference_stream);
  const std::string reference_bytes = read_file(reference_path);

  int cell = 0;
  for (int workers : {1, 3}) {
    for (int lease_batch : {1, 4}) {
      // A fresh server per cell: same tag, empty queue state.
      TcpWorkServer server("127.0.0.1:0");
      server.start();
      DistConfig endpoint;
      endpoint.queue_addr = server.address();
      expect_matrix_cell_matches(
          endpoint, workers, lease_batch,
          scratch.path + "/merged" + std::to_string(cell) + ".ckpt",
          reference_bytes);
      ++cell;
    }
  }
}

// ---- mid-campaign worker kill --------------------------------------------

/// Worker 0 "dies" mid-campaign (CampaignInterrupted fires inside a
/// commit, so its heartbeat stops with a lease still outstanding),
/// worker 1 finishes the campaign by expiry-reclaiming the remains,
/// and the respawned worker 0 resumes the durable copy of its own
/// partial. The merge must still be byte-identical.
void expect_kill_and_recover_matches(const DistConfig& endpoint,
                                     int lease_batch,
                                     const std::string& merged_path,
                                     const std::string& reference_bytes) {
  {
    const DistConfig config = worker_config(endpoint, 0, lease_batch);
    CampaignStreamConfig stream;
    DistCampaign dist(config, kTag, stream);
    stream.stop_after_shards = 4;  // simulated kill
    EXPECT_THROW(run_campaign(stream), CampaignInterrupted);
  }  // worker 0's heartbeat stops here

  run_worker(endpoint, 1, lease_batch);  // reclaims + finishes
  run_worker(endpoint, 0, lease_batch);  // respawn: resume own partial

  (void)run_finalize(endpoint, merged_path, 2);
  EXPECT_EQ(read_file(merged_path), reference_bytes)
      << "lease_batch=" << lease_batch;
}

TEST(TransportMatrix, TcpKilledWorkerIsRecoveredByteIdentical) {
  ScratchDir scratch("tcp_kill");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  (void)run_campaign(reference_stream);

  for (int lease_batch : {1, 4}) {
    TcpWorkServer server("127.0.0.1:0");
    server.start();
    DistConfig endpoint;
    endpoint.queue_addr = server.address();
    expect_kill_and_recover_matches(
        endpoint, lease_batch,
        scratch.path + "/merged" + std::to_string(lease_batch) + ".ckpt",
        read_file(reference_path));
  }
}

// ---- TCP work server unit coverage ---------------------------------------

/// A raw loopback connection for frames TcpQueueClient never sends;
/// -1 when the connection fails.
int connect_raw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (fd >= 0 && ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
    return fd;
  if (fd >= 0) ::close(fd);
  return -1;
}

/// Reads exactly `size` bytes from a raw socket; false when the peer
/// closes the connection first.
bool recv_exact(int fd, char* out, std::size_t size) {
  for (std::size_t got = 0; got < size;) {
    const ssize_t n = ::recv(fd, out + got, size - got, 0);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

TEST(TcpWorkServerTest, LeaseLifecycleAndBatchedClaims) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());

  client.populate("camp", 6);
  client.populate("camp", 6);  // idempotent
  EXPECT_THROW(client.populate("camp", 7), std::runtime_error);

  // Batched claim: 4 shards in one round-trip.
  const auto batch = client.claim("camp", 0, TcpQueueClient::kNoHint, 4);
  EXPECT_EQ(batch.leased,
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_FALSE(batch.campaign_done);
  // A hinted claim prefers the hint; an already-leased hint yields a
  // substitute shard, never a double lease.
  const auto hinted = client.claim("camp", 1, 5, 1);
  EXPECT_EQ(hinted.leased, (std::vector<std::size_t>{5}));
  const auto substitute = client.claim("camp", 1, 5, 1);
  EXPECT_EQ(substitute.leased, (std::vector<std::size_t>{4}));

  // done releases only the owner's leases.
  EXPECT_EQ(client.done("camp", 1, {5, 4, 0}), 2u);  // 0 is worker 0's
  EXPECT_EQ(client.done("camp", 0, {0, 1, 2, 3}), 4u);
  EXPECT_EQ(client.done("camp", 0, {0}), 0u);  // already done
  const auto drained = client.claim("camp", 0, TcpQueueClient::kNoHint, 4);
  EXPECT_TRUE(drained.leased.empty());
  EXPECT_TRUE(drained.campaign_done);
}

TEST(TcpWorkServerTest, PartialUploadFetchDrainRoundTrip) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());

  // Fetch before any publish (even before populate) is simply empty.
  EXPECT_TRUE(client.fetch_partial("camp", 0).empty());
  client.populate("camp", 3);
  client.upload_partial("camp", 2, {1, 0, 1}, "worker-2-bytes");
  client.upload_partial("camp", 0, {0, 1, 0}, "worker-0-bytes");
  EXPECT_EQ(client.fetch_partial("camp", 2), "worker-2-bytes");

  const auto partials = client.drain_partials("camp");
  ASSERT_EQ(partials.size(), 2u);  // sorted by worker id
  EXPECT_EQ(partials[0].worker_id, 0);
  EXPECT_EQ(partials[0].bytes, "worker-0-bytes");
  EXPECT_EQ(partials[1].worker_id, 2);
  EXPECT_EQ(partials[1].bytes, "worker-2-bytes");
}

TEST(TcpWorkServerTest, ReclaimConsultsThePublishedBitmap) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());

  client.populate("camp", 4);
  ASSERT_EQ(client.claim("camp", 7, TcpQueueClient::kNoHint, 2)
                .leased.size(),
            2u);  // shards 0 and 1
  // Worker 7 published shard 0 (the publish->done crash window), then
  // vanished. Expiry reclaim: shard 0 survived into done, shard 1
  // re-runs — and an expiry longer than the silence reclaims nothing.
  client.upload_partial("camp", 7, {1, 0, 0, 0}, "bytes");
  EXPECT_EQ(client.reclaim(-1, 3600.0), 0u);  // worker 7 beat just now
  timeutil::sleep_seconds(0.15);
  EXPECT_EQ(client.reclaim(-1, 0.1), 2u);
  const auto after = client.claim("camp", 3, TcpQueueClient::kNoHint, 4);
  EXPECT_EQ(after.leased, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(client.done("camp", 3, after.leased), 3u);
  EXPECT_TRUE(client.claim("camp", 3, TcpQueueClient::kNoHint, 1)
                  .campaign_done);
}

TEST(TcpWorkServerTest, SurvivesClientsVanishingMidClaim) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());
  client.populate("camp", 8);

  // A client claims a batch and vanishes without releasing anything.
  {
    TcpQueueClient dying(server.address());
    EXPECT_EQ(dying.claim("camp", 7, TcpQueueClient::kNoHint, 3)
                  .leased.size(),
              3u);
  }  // connection dropped here

  // A rawer death: a connection that sends half a frame header and
  // disconnects mid-request must not wedge or crash the poll loop.
  {
    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    const char half_frame[2] = {0x40, 0x00};  // promises 64 bytes...
    ASSERT_EQ(::send(fd, half_frame, sizeof half_frame, 0),
              static_cast<ssize_t>(sizeof half_frame));
    ::close(fd);  // ...never delivers them
  }

  // The server still answers, and the vanished client's leases come
  // back through expiry reclaim — to todo (nothing was published), so
  // every shard runs exactly once: no loss, no double count.
  timeutil::sleep_seconds(0.15);
  EXPECT_EQ(client.reclaim(-1, 0.1), 3u);
  const auto all = client.claim("camp", 1, TcpQueueClient::kNoHint, 8);
  EXPECT_EQ(all.leased.size(), 8u);
  EXPECT_EQ(client.done("camp", 1, all.leased), 8u);
  EXPECT_TRUE(client.claim("camp", 1, TcpQueueClient::kNoHint, 1)
                  .campaign_done);
}

// ---- campaign-server service layers: auth, journal, id allocation --------

TEST(CampaignServerTest, AuthRejectsClientsBeforeTouchingTheQueue) {
  CampaignServer server(
      CampaignServerConfig{"127.0.0.1:0", "", "secret-token"});
  server.start();

  // No hello: the very first RPC is refused with the auth status, and
  // the populate must not have created any queue state.
  TcpQueueClient unauthed(server.address());
  EXPECT_THROW(unauthed.populate("camp", 6), TransportAuthError);
  EXPECT_THROW(unauthed.claim("camp", 0, TcpQueueClient::kNoHint, 1),
               TransportAuthError);

  // Wrong token: the eager hello in the constructor throws right away.
  EXPECT_THROW(
      TcpQueueClient(server.address(), 2, "wrong-token"),
      TransportAuthError);

  // Right token: full access — and a populate with a different count
  // would throw if the unauthenticated one above had landed.
  TcpQueueClient authed(server.address(), 24, "secret-token");
  authed.populate("camp", 4);
  EXPECT_EQ(authed.claim("camp", 0, TcpQueueClient::kNoHint, 4)
                .leased.size(),
            4u);
}

TEST(CampaignServerTest, JournalReplayResumesQueueState) {
  ScratchDir scratch("journal_replay");
  const std::string journal = scratch.path + "/journal.bin";
  {
    CampaignServer server(CampaignServerConfig{"127.0.0.1:0", journal, ""});
    server.start();
    TcpQueueClient client(server.address());
    client.register_campaign("camp-tag", "demo-scenario", "a=1 b=2");
    client.populate("camp", 6);
    ASSERT_EQ(client.claim("camp", 1, TcpQueueClient::kNoHint, 3)
                  .leased,
              (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(client.done("camp", 1, {0}), 1u);
    // Shard 1 is in the publish->done crash window: published in the
    // partial, lease still held when the server dies below.
    client.upload_partial("camp", 1, {1, 1, 0, 0, 0, 0}, "w1-bytes");
  }  // SIGKILL equivalent: no drain, no graceful anything

  CampaignServer server(CampaignServerConfig{"127.0.0.1:0", journal, ""});
  server.start();  // replays the journal
  TcpQueueClient client(server.address());

  const CampaignServerStatus status = client.status();
  ASSERT_EQ(status.campaigns.size(), 1u);
  EXPECT_EQ(status.campaigns[0].tag, "camp-tag");
  EXPECT_EQ(status.campaigns[0].scenario, "demo-scenario");
  EXPECT_EQ(status.campaigns[0].params, "a=1 b=2");
  ASSERT_EQ(status.queues.size(), 1u);
  EXPECT_EQ(status.queues[0].shards, 6u);
  EXPECT_EQ(status.queues[0].done, 1u);
  EXPECT_EQ(status.queues[0].leased, 2u);
  EXPECT_EQ(status.queues[0].partials, 1u);
  EXPECT_EQ(client.fetch_partial("camp", 1), "w1-bytes");

  // Worker 1's post-restart heartbeat is unknown — treated as
  // infinitely old, so even a huge expiry reclaims its leases: the
  // published shard 1 survives into done, shard 2 returns to todo.
  EXPECT_EQ(client.reclaim(-1, 3600.0), 2u);
  const auto rest = client.claim("camp", 2, TcpQueueClient::kNoHint, 8);
  EXPECT_EQ(rest.leased, (std::vector<std::size_t>{2, 3, 4, 5}));
  EXPECT_EQ(client.done("camp", 2, rest.leased), 4u);
  EXPECT_TRUE(client.claim("camp", 2, TcpQueueClient::kNoHint, 1)
                  .campaign_done);
}

TEST(CampaignServerTest, WorkerIdAllocationSurvivesRestartAndLeases) {
  ScratchDir scratch("journal_alloc");
  const std::string journal = scratch.path + "/journal.bin";
  {
    CampaignServer server(CampaignServerConfig{"127.0.0.1:0", journal, ""});
    server.start();
    TcpQueueClient client(server.address());
    EXPECT_EQ(client.alloc_worker_ids(2), 0);
    EXPECT_EQ(client.alloc_worker_ids(3), 2);
    // A lease under a high worker id (a classic `run --queue-addr`
    // campaign that never allocated) must also advance the counter.
    client.populate("camp", 2);
    ASSERT_EQ(client.claim("camp", 9, TcpQueueClient::kNoHint, 1)
                  .leased.size(),
              1u);
  }
  CampaignServer server(CampaignServerConfig{"127.0.0.1:0", journal, ""});
  server.start();
  TcpQueueClient client(server.address());
  EXPECT_EQ(client.alloc_worker_ids(1), 10);  // past both 5 and 9
}

TEST(CampaignServerTest, RegistrationIsIdempotentButConflictsAreErrors) {
  CampaignServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());
  client.register_campaign("tag", "scenario", "a=1");
  client.register_campaign("tag", "scenario", "a=1");  // identical: fine
  EXPECT_THROW(client.register_campaign("tag", "scenario", "a=2"),
               std::runtime_error);
  client.register_campaign("tag2", "scenario", "a=2");  // new tag: fine
  EXPECT_EQ(client.status().campaigns.size(), 2u);
}

TEST(TcpWorkServerTest, ForcedReclaimRecoversLeasesInEveryCampaign) {
  // The coordinator's waitpid path: a dead worker holds leases in two
  // campaigns (a multi-grid scenario's baseline and mitigated arms),
  // and one forced reclaim of that worker — the coordinator cannot
  // know which campaigns the scenario runs — recovers both.
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());
  client.populate("grid-a", 4);
  client.populate("grid-b", 4);
  ASSERT_EQ(client.claim("grid-a", 4, 0, 1).leased.size(), 1u);
  ASSERT_EQ(client.claim("grid-b", 4, 3, 1).leased.size(), 1u);
  ASSERT_EQ(client.claim("grid-b", 5, 1, 1).leased.size(), 1u);  // alive

  EXPECT_EQ(client.reclaim(4, 0.0), 2u);
  EXPECT_EQ(client.reclaim(4, 0.0), 0u);
  // Both shards are claimable again; worker 5's lease is untouched.
  EXPECT_EQ(client.claim("grid-a", 6, TcpQueueClient::kNoHint, 4).leased,
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(client.claim("grid-b", 6, TcpQueueClient::kNoHint, 4).leased,
            (std::vector<std::size_t>{0, 2, 3}));
}

TEST(CampaignServerTest, LyingHelloLengthGetsAnErrorNotAnAllocation) {
  // A raw hello frame whose token claims 2^40 bytes but carries 3: the
  // server reads the token before authenticating anyone, so the lie
  // must fail as a truncated read (an error reply), never as a
  // terabyte allocation — and the server must keep serving.
  CampaignServer server(
      CampaignServerConfig{"127.0.0.1:0", "", "secret-token"});
  server.start();

  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  std::ostringstream payload;
  payload.put(static_cast<char>(wire::kOpHello));
  io::write_u64(payload, std::uint64_t{1} << 40);
  payload << "abc";
  const std::string frame = wire::frame(payload.str());
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  char reply[5] = {};
  std::size_t got = 0;
  while (got < sizeof reply) {
    const ssize_t n = ::recv(fd, reply + got, sizeof reply - got, 0);
    ASSERT_GT(n, 0) << "server dropped the connection instead of replying";
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  // The status byte follows the u32 length prefix.
  EXPECT_EQ(reply[4], static_cast<char>(wire::kStatusError));

  TcpQueueClient next(server.address(), 4, "secret-token");
  next.populate("camp", 2);
  EXPECT_EQ(next.claim("camp", 0, TcpQueueClient::kNoHint, 2).leased.size(),
            2u);
}

TEST(CampaignServerTest, RetiredTimingOpcodesGetAnUnknownOpcodeError) {
  // Opcodes 14 and 15 carried shard-timing uploads in older builds. An
  // older worker's upload must be refused by opcode, never read as
  // another request, and the server must keep serving.
  CampaignServer server(CampaignServerConfig{"127.0.0.1:0", "", ""});
  server.start();
  for (const int opcode : {14, 15}) {
    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    std::ostringstream payload;
    payload.put(static_cast<char>(opcode));
    io::write_string(payload, "camp");
    const std::string frame = wire::frame(payload.str());
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    unsigned char header[4] = {};
    ASSERT_TRUE(recv_exact(fd, reinterpret_cast<char*>(header), 4))
        << "server dropped the connection instead of replying";
    std::string reply(std::size_t{header[0]} | std::size_t{header[1]} << 8 |
                          std::size_t{header[2]} << 16 |
                          std::size_t{header[3]} << 24,
                      '\0');
    ASSERT_TRUE(recv_exact(fd, reply.data(), reply.size()));
    ::close(fd);
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(reply[0], static_cast<char>(wire::kStatusError));
    std::istringstream message(reply.substr(1));
    EXPECT_EQ(io::read_string(message),
              "unknown opcode " + std::to_string(opcode));
  }

  TcpQueueClient next(server.address());
  next.populate("camp", 2);
  EXPECT_EQ(next.claim("camp", 0, TcpQueueClient::kNoHint, 2).leased.size(),
            2u);
}

#endif  // !defined(_WIN32)

}  // namespace
}  // namespace ftnav

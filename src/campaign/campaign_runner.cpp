#include "campaign/campaign_runner.h"

#include <stdexcept>
#include <thread>

#include "campaign/worker_pool.h"

namespace ftnav {
namespace {

/// Every campaign uses one fixed partition, so the completed-shard
/// bitmap in a checkpoint means the same thing for every thread count
/// and machine. 64 shards keeps pools up to ~16 workers balanced while
/// giving checkpoint/progress a useful granularity.
constexpr std::size_t kStreamShards = 64;

}  // namespace

std::vector<CampaignShard> shard_trials(std::size_t trial_count,
                                        std::size_t max_shards) {
  std::vector<CampaignShard> shards;
  if (trial_count == 0 || max_shards == 0) return shards;
  const std::size_t shard_count =
      trial_count < max_shards ? trial_count : max_shards;
  const std::size_t base = trial_count / shard_count;
  const std::size_t longer = trial_count % shard_count;
  shards.reserve(shard_count);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < shard_count; ++i) {
    const std::size_t size = base + (i < longer ? 1 : 0);
    shards.push_back(CampaignShard{begin, begin + size});
    begin += size;
  }
  return shards;
}

std::size_t stream_shard_count(std::size_t trial_count) noexcept {
  return trial_count < kStreamShards ? trial_count : kStreamShards;
}

int resolve_threads(int threads) noexcept {
  if (threads > 0) return threads;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

CampaignRunner::CampaignRunner(int threads)
    : threads_(resolve_threads(threads)) {}

void CampaignRunner::dispatch_shards(
    const std::vector<std::size_t>& indices,
    const std::function<void(std::size_t)>& body) const {
  if (indices.empty()) return;
  WorkerPool::instance().run(
      indices.size(), threads_,
      [&](std::size_t position) { body(indices[position]); });
}

void CampaignRunner::check_identity(const CampaignCheckpoint::Loaded& loaded,
                                    std::uint64_t fingerprint,
                                    std::size_t trial_count,
                                    std::size_t shard_count,
                                    const char* what,
                                    const std::string& path) {
  if (loaded.header.fingerprint != fingerprint)
    throw std::runtime_error(
        std::string(what) +
        " was written by a different campaign configuration: " + path);
  if (loaded.header.trial_count != trial_count ||
      loaded.header.shard_count != shard_count)
    throw std::runtime_error(
        std::string(what) + " claims " +
        std::to_string(loaded.header.trial_count) + " trials in " +
        std::to_string(loaded.header.shard_count) +
        " shards, but this campaign has " + std::to_string(trial_count) +
        " in " + std::to_string(shard_count) + ": " + path);
}

void CampaignRunner::save_checkpoint(
    const std::string& path, std::uint64_t fingerprint,
    const StreamProgress& progress,
    const std::vector<std::uint8_t>& shard_done,
    const std::function<void(std::ostream&)>& write_payload) {
  CampaignCheckpoint::Header header;
  header.fingerprint = fingerprint;
  header.trial_count = progress.trials_total;
  header.shard_count = progress.shards_total;
  header.trials_done = progress.trials_done;
  std::ostringstream payload;
  write_payload(payload);
  CampaignCheckpoint::save(path, header, shard_done, payload.str());
}

}  // namespace ftnav

#include "dist/dist_campaign.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "dist/tcp_transport.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/binary_io.h"
#include "util/clock.h"

namespace ftnav {
namespace {

/// The lease protocol's worker side: claims are exclusive leases of
/// a fixed `lease_batch` shards (extras park in a local granted set
/// until the runner asks for those shards), commits publish the
/// partial before releasing the lease, and next_wave polls the queue
/// with bounded exponential backoff (reclaiming expired leases) until
/// the campaign is globally complete.
class TransportShardArbiter : public ShardArbiter {
 public:
  TransportShardArbiter(TcpTransport& transport, const DistConfig& config)
      : transport_(transport),
        config_(config),
        batch_(static_cast<std::size_t>(std::max(1, config.lease_batch))) {}

  void begin(std::size_t shard_count,
             const std::vector<std::uint8_t>& restored) override {
    transport_.populate(shard_count);
    // A previous life of this worker may have died between publishing
    // a shard in its partial and releasing the lease; the restored
    // bitmap is the durable truth, so finish the release now.
    std::vector<std::size_t> restored_shards;
    for (std::size_t shard = 0; shard < restored.size(); ++shard)
      if (restored[shard]) restored_shards.push_back(shard);
    if (!restored_shards.empty()) transport_.mark_done(restored_shards);
    done_by_self_.store(restored_shards.size(), std::memory_order_relaxed);
  }

  bool claim(std::size_t shard) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (granted_.erase(shard) > 0) return true;  // batched lease in hand
    }
    obs::TraceSpan span("lease_claim", "dist", "shard", shard);
    const std::vector<std::size_t> leased =
        transport_.claim(shard, batch_).leased;
    bool won = false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t granted : leased) {
      if (granted == shard)
        won = true;
      else
        granted_.insert(granted);  // surfaces again via claim or next_wave
    }
    return won;
  }

  void committed(std::size_t shard) override {
    // One commit publication at a time: the partial a mark_done refers
    // to must already be published, and publications must reach the
    // server in bitmap order (see TcpTransport::publish_partial).
    std::lock_guard<std::mutex> lock(commit_mutex_);
    obs::TraceSpan span("lease_commit", "dist", "shard", shard);
    transport_.publish_partial();
    const std::size_t total =
        done_by_self_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Test hook: die in the publish->done crash window, after the
    // shard is durable in our published partial but before the lease
    // is released.
    if (config_.fail_after_shards > 0 &&
        total == static_cast<std::size_t>(config_.fail_after_shards))
      std::_Exit(9);
    transport_.mark_done({shard});
    transport_.heartbeat();
  }

  std::vector<std::size_t> next_wave(
      const std::vector<std::uint8_t>& done_by_self) override {
    obs::TraceSpan span("wave_poll", "dist");
    timeutil::PollBackoff backoff(config_.poll_period_seconds);
    while (true) {
      transport_.heartbeat();
      // Recover leases of workers that stopped heartbeating (our own
      // heartbeat is fresh, so we never reclaim from ourselves).
      // expiry <= 0 disables expiry reclaim — matching the
      // coordinator — rather than forcing it.
      transport_.reclaim_expired(config_.lease_expiry_seconds);
      const TcpQueueClient::ClaimReply wave =
          transport_.claim(TcpQueueClient::kNoHint, batch_);

      std::vector<std::size_t> result;
      std::vector<std::size_t> already_done;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t shard : wave.leased) granted_.insert(shard);
        // A lease for a shard this process already holds durably (a
        // queue state divergence after a crash) would never be
        // consumed by the runner — release it instead of re-offering
        // it forever. (Its payload is covered: done_by_self bits come
        // from published/restored partials only.)
        for (auto it = granted_.begin(); it != granted_.end();) {
          if (*it < done_by_self.size() && done_by_self[*it] != 0) {
            already_done.push_back(*it);
            it = granted_.erase(it);
          } else {
            ++it;
          }
        }
        // Leases parked from earlier batched claims must run before
        // this worker may finish, so every wave re-offers them.
        result.assign(granted_.begin(), granted_.end());
      }
      if (!already_done.empty()) transport_.mark_done(already_done);
      if (!result.empty()) return result;
      if (wave.campaign_done) return {};
      backoff.wait();
    }
  }

 private:
  TcpTransport& transport_;
  DistConfig config_;
  std::size_t batch_;  ///< shards per lease (config lease_batch)
  std::atomic<std::size_t> done_by_self_{0};
  std::mutex mutex_;               // guards granted_
  std::set<std::size_t> granted_;  // leased but not yet run here
  std::mutex commit_mutex_;        // serializes publish->done pairs
};

}  // namespace

std::string dist_queue_label(std::string_view tag) {
  // Human-readable prefix (tag up to the config digest, slashes and
  // other non-filename characters mapped to '-') ...
  std::string prefix;
  for (char ch : tag.substr(0, tag.find('#'))) {
    const bool safe = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' ||
                      ch == '-';
    prefix.push_back(safe ? ch : '-');
    if (prefix.size() >= 48) break;
  }
  if (prefix.empty()) prefix = "campaign";
  // ... plus a digest of the full tag so distinct campaigns can never
  // share a queue.
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    io::fnv1a({tag.data(), tag.size()})));
  return prefix + "-" + digest;
}

std::string dist_queue_label(const DistConfig& config,
                             std::string_view tag) {
  if (config.queue_namespace.empty()) return dist_queue_label(tag);
  return dist_queue_label(config.queue_namespace + "/" + std::string(tag));
}

struct DistCampaign::Impl {
  DistConfig config;
  std::string queue_label;  // dist_queue_label(config, tag), for logs
  std::unique_ptr<TcpTransport> transport;
  std::unique_ptr<TransportShardArbiter> arbiter;

  // Heartbeat thread (worker role): keeps the lease fresh even while a
  // single long shard is running.
  std::thread heartbeat;
  std::mutex mutex;
  std::condition_variable stop_cv;
  bool stopping = false;

  ~Impl() {
    if (heartbeat.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
      }
      stop_cv.notify_all();
      heartbeat.join();
    }
  }
};

DistCampaign::DistCampaign(std::string_view tag,
                           CampaignStreamConfig& stream) {
  const DistConfig::Role role = stream.dist.role();
  if (role == DistConfig::Role::kOff) return;

  impl_ = std::make_unique<Impl>();
  impl_->config = stream.dist;
  // A worker must beat several times per expiry window or a live
  // lease could be expiry-reclaimed mid-shard (bitmap overlap, merge
  // refused); clamp the period instead of trusting the caller's pair.
  if (impl_->config.lease_expiry_seconds > 0.0)
    impl_->config.heartbeat_period_seconds =
        std::min(impl_->config.heartbeat_period_seconds,
                 impl_->config.lease_expiry_seconds / 4.0);
  impl_->queue_label = dist_queue_label(impl_->config, tag);
  impl_->transport = std::make_unique<TcpTransport>(impl_->config, tag);

  if (role == DistConfig::Role::kWorker) {
    stream.checkpoint_path = impl_->transport->partial_path();
    // A respawned worker continues from the durable copy of its own
    // partial: the server's copy, the one reclaim decisions were made
    // against, not whatever a crashed previous life left on local disk.
    impl_->transport->restore_partial();
    stream.resume = true;
    stream.checkpoint_every_shards = 1;  // durable before lease release
    // A front-end's graceful-stop knob belongs to the coordinator
    // path; a worker only stops early through the dist-level hook
    // (the in-process sibling of fail_after_shards).
    stream.stop_after_shards =
        static_cast<std::size_t>(std::max(
            0, impl_->config.worker_stop_after_shards));
    stream.merge_partials.clear();
    impl_->arbiter = std::make_unique<TransportShardArbiter>(
        *impl_->transport, impl_->config);
    stream.arbiter = impl_->arbiter.get();

    Impl* impl = impl_.get();
    impl_->transport->heartbeat();
    impl_->heartbeat = std::thread([impl] {
      std::unique_lock<std::mutex> lock(impl->mutex);
      while (!impl->stop_cv.wait_for(
          lock,
          std::chrono::duration<double>(
              impl->config.heartbeat_period_seconds),
          [impl] { return impl->stopping; })) {
        try {
          impl->transport->heartbeat();
        } catch (const TransportAuthError& error) {
          // The server revoked or rejected this session. Say so —
          // this must surface as a diagnosed auth failure, never be
          // mistaken for the silent lease expiry a vanished worker
          // produces — then stop beating; the campaign's own next
          // transport call throws the same error on a catchable
          // path. (The constructor's eager heartbeat already turned
          // a token wrong from the start into an immediate throw.)
          obs::log_warn("worker",
                        "worker %d heartbeat on queue %s: %s",
                        impl->config.worker_id, impl->queue_label.c_str(),
                        error.what());
          return;
        } catch (const std::exception& error) {
          // Server gone (e.g. it died with its host). Stop beating
          // and let the campaign's own next transport call surface
          // the error on a catchable path — an exception escaping
          // this thread would std::terminate the worker.
          obs::log_info("worker",
                        "worker %d heartbeat on queue %s lost transport: %s",
                        impl->config.worker_id, impl->queue_label.c_str(),
                        error.what());
          return;
        }
      }
    });
    return;
  }

  // Finalize: merge the workers' partials into the final checkpoint
  // (the caller's checkpoint_path when set, a process-local scratch
  // file otherwise) and resume it — zero trials when the queue drained.
  if (stream.checkpoint_path.empty())
    stream.checkpoint_path = impl_->transport->merged_checkpoint_path();
  stream.resume = true;
  stream.merge_partials = impl_->transport->collect_partials();
  stream.arbiter = nullptr;
}

DistCampaign::~DistCampaign() = default;

}  // namespace ftnav

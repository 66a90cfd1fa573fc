#include "dist/dist_coordinator.h"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "dist/tcp_transport.h"
#include "obs/log.h"
#include "util/clock.h"

#if !defined(_WIN32)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace ftnav {

DistCoordinator::DistCoordinator(DistConfig config)
    : config_(std::move(config)) {}

#if defined(_WIN32)

void DistCoordinator::run(
    const std::function<Command(int)>& command_for) const {
  (void)command_for;
  throw std::runtime_error(
      "DistCoordinator: process spawning is POSIX-only");
}

#else

extern "C" char** environ;

namespace {

/// PATH resolution in the parent, so the child needs only execve.
std::string resolve_binary(const std::string& name) {
  if (name.find('/') != std::string::npos) return name;
  const char* path = ::getenv("PATH");
  if (path == nullptr) return name;
  std::string remaining(path);
  while (!remaining.empty()) {
    const std::size_t colon = remaining.find(':');
    const std::string dir = remaining.substr(0, colon);
    remaining = colon == std::string::npos ? std::string()
                                           : remaining.substr(colon + 1);
    if (dir.empty()) continue;
    const std::string candidate = dir + "/" + name;
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return name;
}

pid_t spawn(const DistCoordinator::Command& command) {
  // Materialize argv and the full envp before forking: the pool's
  // parked campaign threads may hold the malloc lock at fork time, so
  // the child must touch nothing but async-signal-safe calls
  // (execve/_exit) on its way out.
  const std::string binary = resolve_binary(command.argv.front());
  std::vector<const char*> argv;
  argv.reserve(command.argv.size() + 1);
  argv.push_back(binary.c_str());
  for (std::size_t i = 1; i < command.argv.size(); ++i)
    argv.push_back(command.argv[i].c_str());
  argv.push_back(nullptr);

  // Inherited environment minus the names the command overrides,
  // then the overrides.
  std::vector<std::string> env_entries;
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string_view inherited(*entry);
    const std::string_view name =
        inherited.substr(0, inherited.find('='));
    bool overridden = false;
    for (const std::string& override_entry : command.env)
      if (std::string_view(override_entry)
              .substr(0, override_entry.find('=')) == name)
        overridden = true;
    if (!overridden) env_entries.emplace_back(inherited);
  }
  for (const std::string& override_entry : command.env)
    env_entries.push_back(override_entry);
  std::vector<const char*> envp;
  envp.reserve(env_entries.size() + 1);
  for (const std::string& entry : env_entries)
    envp.push_back(entry.c_str());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("DistCoordinator: fork failed");
  if (pid == 0) {
    ::execve(argv[0], const_cast<char* const*>(argv.data()),
             const_cast<char* const*>(envp.data()));
    ::_exit(127);  // exec failed; the parent sees a non-zero exit
  }
  return pid;
}

/// Recovers leases owned by `worker_id` (any owner when -1) whose
/// heartbeat is older than `expiry_seconds` (<= 0 forces, for the
/// waitpid path where the owner is known dead), across every campaign
/// on the server. Few connect retries: the server is expected up (it
/// outlives the loop calling this); if it is gone, fail fast so the
/// coordinator reports the real error instead of stalling.
void reclaim_leases(const DistConfig& config, int worker_id,
                    double expiry_seconds) {
  TcpQueueClient(config.queue_addr, /*connect_attempts=*/4, config.auth_token)
      .reclaim(worker_id, expiry_seconds);
}

}  // namespace

void DistCoordinator::run(
    const std::function<Command(int)>& command_for) const {
  if (config_.workers < 1)
    throw std::runtime_error("DistCoordinator: workers must be >= 1");
  if (config_.queue_addr.empty())
    throw std::runtime_error("DistCoordinator: queue_addr must be set");

  struct WorkerSlot {
    pid_t pid = -1;
    bool finished = false;
    int respawns = 0;
  };
  std::vector<WorkerSlot> slots(static_cast<std::size_t>(config_.workers));
  for (int id = 0; id < config_.workers; ++id) {
    slots[static_cast<std::size_t>(id)].pid = spawn(command_for(id));
    obs::log_info("coordinator", "spawned worker %d (pid %ld)",
                  config_.worker_id_base + id,
                  static_cast<long>(slots[static_cast<std::size_t>(id)].pid));
  }

  const auto kill_all = [&slots] {
    for (WorkerSlot& slot : slots) {
      if (slot.finished || slot.pid < 0) continue;
      ::kill(slot.pid, SIGKILL);
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
    }
  };

  auto last_expiry_scan = std::chrono::steady_clock::now();
  timeutil::PollBackoff backoff(config_.poll_period_seconds);
  while (true) {
    bool all_finished = true;
    bool reaped_any = false;
    for (int id = 0; id < config_.workers; ++id) {
      WorkerSlot& slot = slots[static_cast<std::size_t>(id)];
      if (slot.finished) continue;
      all_finished = false;

      int status = 0;
      const pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
      if (reaped != slot.pid) continue;
      reaped_any = true;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        slot.finished = true;
        continue;
      }
      // The worker died. Its committed shards are safe in its partial
      // checkpoint; free its leases and respawn it under the same id
      // so the replacement resumes that partial. Slot k runs as
      // worker id worker_id_base + k (submit/attach reserve the base
      // from the campaign server so failover coordinators never
      // collide with a previous life's ids).
      obs::log_warn("coordinator",
                    "worker %d (pid %ld) died (status 0x%x); reclaiming "
                    "its leases and respawning",
                    config_.worker_id_base + id,
                    static_cast<long>(slot.pid),
                    static_cast<unsigned>(status));
      reclaim_leases(config_, config_.worker_id_base + id, 0.0);
      if (slot.respawns >= config_.max_respawns) {
        kill_all();
        throw std::runtime_error(
            "DistCoordinator: worker " + std::to_string(id) +
            " failed after " + std::to_string(slot.respawns) +
            " respawns");
      }
      ++slot.respawns;
      slot.pid = spawn(command_for(id));
    }
    if (all_finished) break;

    // Cover workers the coordinator cannot waitpid (other hosts
    // leasing from the same server): reclaim on heartbeat expiry.
    if (config_.lease_expiry_seconds > 0.0 &&
        timeutil::steady_seconds_since(last_expiry_scan) >
            config_.lease_expiry_seconds) {
      reclaim_leases(config_, -1, config_.lease_expiry_seconds);
      last_expiry_scan = std::chrono::steady_clock::now();
    }
    // Exponential backoff up to poll_period_seconds: a worker exit
    // resets it so respawn chains stay responsive, while a long quiet
    // stretch costs one wakeup per poll period instead of a spin.
    if (reaped_any) backoff.reset();
    backoff.wait();
  }
}

#endif  // !defined(_WIN32)

}  // namespace ftnav

#include "dist/tcp_transport.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "campaign/checkpoint.h"
#include "dist/wire_format.h"
#include "obs/trace.h"
#include "util/binary_io.h"
#include "util/clock.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace ftnav {

using namespace wire;

#if defined(_WIN32)

struct TcpQueueClient::Impl {};
TcpQueueClient::TcpQueueClient(const std::string&, int, const std::string&) {
  throw std::runtime_error("TcpQueueClient: POSIX-only");
}
TcpQueueClient::~TcpQueueClient() = default;
// Unreachable link stubs (the constructor always throws on Windows).
void TcpQueueClient::populate(const std::string&, std::size_t) {}
TcpQueueClient::ClaimReply TcpQueueClient::claim(const std::string&, int,
                                                 std::size_t, std::size_t) {
  return {};
}
std::size_t TcpQueueClient::done(const std::string&, int,
                                 const std::vector<std::size_t>&) {
  return 0;
}
void TcpQueueClient::heartbeat(int) {}
void TcpQueueClient::upload_partial(const std::string&, int,
                                    const std::vector<std::uint8_t>&,
                                    const std::string&) {}
std::string TcpQueueClient::fetch_partial(const std::string&, int) {
  return {};
}
std::vector<TcpQueueClient::Partial> TcpQueueClient::drain_partials(
    const std::string&) {
  return {};
}
std::size_t TcpQueueClient::reclaim(int, double) { return 0; }
void TcpQueueClient::register_campaign(const std::string&,
                                       const std::string&,
                                       const std::string&) {}
CampaignServerStatus TcpQueueClient::status() { return {}; }
int TcpQueueClient::alloc_worker_ids(int) { return -1; }
obs::MetricsSnapshot TcpQueueClient::stats() { return {}; }

#else

// ---- client --------------------------------------------------------------

namespace {

/// Static span names for RPC round-trips (trace events store only the
/// pointer, so these must be literals).
const char* rpc_op_name(unsigned char opcode) {
  switch (opcode) {
    case kOpPopulate: return "rpc:populate";
    case kOpClaim: return "rpc:claim";
    case kOpDone: return "rpc:done";
    case kOpHeartbeat: return "rpc:heartbeat";
    case kOpUpload: return "rpc:upload";
    case kOpFetch: return "rpc:fetch";
    case kOpDrain: return "rpc:drain";
    case kOpReclaim: return "rpc:reclaim";
    case kOpHello: return "rpc:hello";
    case kOpRegister: return "rpc:register";
    case kOpStatus: return "rpc:status";
    case kOpAllocWorkers: return "rpc:alloc_workers";
    case kOpStats: return "rpc:stats";
    default: return "rpc:unknown";
  }
}

}  // namespace

struct TcpQueueClient::Impl {
  int fd = -1;
  std::mutex mutex;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  void send_all(const std::string& bytes) {
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      const ssize_t sent = ::send(fd, bytes.data() + offset,
                                  bytes.size() - offset, MSG_NOSIGNAL);
      if (sent <= 0)
        throw std::runtime_error("tcp transport: connection lost (send)");
      offset += static_cast<std::size_t>(sent);
    }
  }

  void recv_all(char* data, std::size_t size) {
    std::size_t offset = 0;
    while (offset < size) {
      const ssize_t got = ::recv(fd, data + offset, size - offset, 0);
      if (got <= 0)
        throw std::runtime_error("tcp transport: connection lost (recv)");
      offset += static_cast<std::size_t>(got);
    }
  }

  /// One request/response round-trip; returns the response body after
  /// the status byte, throwing on a server-reported error — a
  /// TransportAuthError when the server rejected the session, so
  /// front-ends can turn it into a diagnosed exit instead of retrying
  /// until the lease expires.
  std::string rpc(const std::string& request) {
    // The server drops oversized frames without replying (protocol
    // violation), and beyond 4 GiB the u32 length prefix would wrap;
    // fail here with a diagnosable error instead. In practice this
    // bounds partial-checkpoint uploads at kMaxFrameBytes.
    if (request.size() > kMaxFrameBytes)
      throw std::runtime_error(
          "tcp transport: request exceeds the frame limit (" +
          std::to_string(request.size()) + " bytes; partial checkpoint "
          "too large for the TCP transport)");
    obs::TraceSpan span(
        rpc_op_name(static_cast<unsigned char>(request[0])), "rpc",
        "request_bytes", request.size());
    std::lock_guard<std::mutex> lock(mutex);
    send_all(frame(request));
    char header[4];
    recv_all(header, sizeof header);
    std::uint32_t size = 0;
    for (int byte = 0; byte < 4; ++byte)
      size |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(header[byte]))
              << (8 * byte);
    if (size > kMaxFrameBytes)
      throw std::runtime_error("tcp transport: oversized reply frame");
    std::string payload(size, '\0');
    if (size > 0) recv_all(payload.data(), payload.size());
    if (payload.empty())
      throw std::runtime_error("tcp transport: empty reply");
    const auto status = static_cast<unsigned char>(payload[0]);
    if (status == kStatusAuthError) {
      std::istringstream in(payload.substr(1));
      throw TransportAuthError("campaign server at the configured "
                               "endpoint rejected the session: " +
                               io::read_string(in));
    }
    if (status != kStatusOk) {
      std::istringstream in(payload.substr(1));
      throw std::runtime_error("tcp transport: server error: " +
                               io::read_string(in));
    }
    return payload.substr(1);
  }
};

TcpQueueClient::TcpQueueClient(const std::string& addr, int connect_attempts,
                               const std::string& auth_token)
    : impl_(std::make_unique<Impl>()) {
  std::string host;
  std::string port;
  split_addr(addr, host, port);
  if (host.empty()) host = "127.0.0.1";

  // A worker can race the coordinator's server startup by a few
  // milliseconds; retry briefly before giving up.
  timeutil::PollBackoff backoff(0.25);
  bool connected = false;
  for (int attempt = 0; attempt < std::max(1, connect_attempts); ++attempt) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* resolved = nullptr;
    if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &resolved) == 0 &&
        resolved != nullptr) {
      const int fd = ::socket(resolved->ai_family, resolved->ai_socktype, 0);
      if (fd >= 0 &&
          ::connect(fd, resolved->ai_addr, resolved->ai_addrlen) == 0) {
        ::freeaddrinfo(resolved);
        const int flags = ::fcntl(fd, F_GETFD, 0);
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
        impl_->fd = fd;
        connected = true;
        break;
      }
      if (fd >= 0) ::close(fd);
      ::freeaddrinfo(resolved);
    }
    backoff.wait();
  }
  if (!connected)
    throw std::runtime_error("tcp transport: cannot connect to " + addr);
  // Present the session token before any other traffic; a server
  // without auth accepts any hello. Done eagerly so a bad token
  // surfaces here — at construction — not on the first lease RPC.
  if (!auth_token.empty()) {
    std::ostringstream out;
    out.put(kOpHello);
    io::write_string(out, auth_token);
    impl_->rpc(out.str());
  }
}

TcpQueueClient::~TcpQueueClient() = default;

void TcpQueueClient::populate(const std::string& label,
                              std::size_t shard_count) {
  std::ostringstream out;
  out.put(kOpPopulate);
  io::write_string(out, label);
  io::write_u64(out, shard_count);
  impl_->rpc(out.str());
}

TcpQueueClient::ClaimReply TcpQueueClient::claim(const std::string& label,
                                                 int worker_id,
                                                 std::size_t hint,
                                                 std::size_t max_batch) {
  std::ostringstream out;
  out.put(kOpClaim);
  io::write_string(out, label);
  io::write_u64(out, encode_worker(worker_id));
  io::write_u64(out, hint);
  io::write_u64(out, max_batch);
  std::istringstream in(impl_->rpc(out.str()));
  ClaimReply reply;
  reply.leased = read_shards(in);
  reply.campaign_done = in.get() != 0;
  return reply;
}

std::size_t TcpQueueClient::done(const std::string& label, int worker_id,
                                 const std::vector<std::size_t>& shards) {
  std::ostringstream out;
  out.put(kOpDone);
  io::write_string(out, label);
  io::write_u64(out, encode_worker(worker_id));
  write_shards(out, shards);
  std::istringstream in(impl_->rpc(out.str()));
  return static_cast<std::size_t>(io::read_u64(in));
}

void TcpQueueClient::heartbeat(int worker_id) {
  std::ostringstream out;
  out.put(kOpHeartbeat);
  io::write_u64(out, encode_worker(worker_id));
  impl_->rpc(out.str());
}

void TcpQueueClient::upload_partial(
    const std::string& label, int worker_id,
    const std::vector<std::uint8_t>& shard_bitmap, const std::string& bytes) {
  std::ostringstream out;
  out.put(kOpUpload);
  io::write_string(out, label);
  io::write_u64(out, encode_worker(worker_id));
  write_bitmap(out, shard_bitmap);
  io::write_string(out, bytes);
  impl_->rpc(out.str());
}

std::string TcpQueueClient::fetch_partial(const std::string& label,
                                          int worker_id) {
  std::ostringstream out;
  out.put(kOpFetch);
  io::write_string(out, label);
  io::write_u64(out, encode_worker(worker_id));
  std::istringstream in(impl_->rpc(out.str()));
  if (in.get() == 0) return {};
  return io::read_string(in);
}

std::vector<TcpQueueClient::Partial> TcpQueueClient::drain_partials(
    const std::string& label) {
  std::ostringstream out;
  out.put(kOpDrain);
  io::write_string(out, label);
  std::istringstream in(impl_->rpc(out.str()));
  const std::uint64_t count = io::read_u64(in);
  std::vector<Partial> partials;
  partials.reserve(io::reservable(in, count, 16));
  for (std::uint64_t i = 0; i < count; ++i) {
    Partial partial;
    partial.worker_id = decode_worker(io::read_u64(in));
    partial.bytes = io::read_string(in);
    partials.push_back(std::move(partial));
  }
  return partials;
}

std::size_t TcpQueueClient::reclaim(int worker_id, double expiry_seconds) {
  std::ostringstream out;
  out.put(kOpReclaim);
  io::write_u64(out, encode_worker(worker_id));
  io::write_f64(out, expiry_seconds);
  std::istringstream in(impl_->rpc(out.str()));
  return static_cast<std::size_t>(io::read_u64(in));
}

void TcpQueueClient::register_campaign(const std::string& tag,
                                       const std::string& scenario,
                                       const std::string& params) {
  std::ostringstream out;
  out.put(kOpRegister);
  io::write_string(out, tag);
  io::write_string(out, scenario);
  io::write_string(out, params);
  impl_->rpc(out.str());
}

CampaignServerStatus TcpQueueClient::status() {
  std::ostringstream out;
  out.put(kOpStatus);
  std::istringstream in(impl_->rpc(out.str()));
  CampaignServerStatus status;
  const std::uint64_t campaigns = io::read_u64(in);
  for (std::uint64_t i = 0; i < campaigns; ++i) {
    CampaignRegistration reg;
    reg.tag = io::read_string(in);
    reg.scenario = io::read_string(in);
    reg.params = io::read_string(in);
    status.campaigns.push_back(std::move(reg));
  }
  const std::uint64_t queues = io::read_u64(in);
  for (std::uint64_t i = 0; i < queues; ++i) {
    CampaignQueueStatus queue;
    queue.label = io::read_string(in);
    queue.shards = static_cast<std::size_t>(io::read_u64(in));
    queue.done = static_cast<std::size_t>(io::read_u64(in));
    queue.leased = static_cast<std::size_t>(io::read_u64(in));
    queue.partials = static_cast<std::size_t>(io::read_u64(in));
    status.queues.push_back(std::move(queue));
  }
  return status;
}

int TcpQueueClient::alloc_worker_ids(int count) {
  std::ostringstream out;
  out.put(kOpAllocWorkers);
  io::write_u64(out, static_cast<std::uint64_t>(std::max(1, count)));
  std::istringstream in(impl_->rpc(out.str()));
  return static_cast<int>(io::read_u64(in));
}

obs::MetricsSnapshot TcpQueueClient::stats() {
  std::ostringstream out;
  out.put(kOpStats);
  std::istringstream in(impl_->rpc(out.str()));
  return obs::read_snapshot(in);
}

#endif  // !defined(_WIN32)

// ---- TcpTransport --------------------------------------------------------

namespace {

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Deterministic per-(endpoint, campaign, role) scratch directory,
/// wiped on entry. Determinism matters on the crash path: a worker
/// killed mid-campaign never runs its destructor, so a random name
/// per life would leak one directory per respawn — reusing (and
/// wiping) the same path bounds the leak to one directory per worker,
/// removed on the first clean exit. Wiping also guarantees no stale
/// partial from an earlier run can leak into this one (the server
/// copy, fetched after this, is the only durable truth).
std::string fresh_scratch_dir(const DistConfig& config,
                              const std::string& label) {
  std::string key =
      config.queue_addr + "." + label + ".worker-" +
      std::to_string(config.worker_id);
  for (char& ch : key)
    if (ch == ':' || ch == '/' || ch == '\\') ch = '-';
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("ftnav_tcp_" + key);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out)
    throw std::runtime_error("tcp transport: cannot write " + path);
}

}  // namespace

TcpTransport::TcpTransport(const DistConfig& config, std::string_view tag)
    : label_(dist_queue_label(config, tag)),
      worker_id_(config.worker_id),
      scratch_dir_(fresh_scratch_dir(config, label_)),
      client_(config.queue_addr, 24, config.auth_token) {}

TcpTransport::~TcpTransport() {
  std::error_code ignored;
  std::filesystem::remove_all(scratch_dir_, ignored);
}

void TcpTransport::populate(std::size_t shard_count) {
  client_.populate(label_, shard_count);
}

TcpQueueClient::ClaimReply TcpTransport::claim(std::size_t hint,
                                               std::size_t max_batch) {
  return client_.claim(label_, worker_id_, hint, max_batch);
}

void TcpTransport::mark_done(const std::vector<std::size_t>& shards) {
  client_.done(label_, worker_id_, shards);
}

std::string TcpTransport::partial_path() const {
  return scratch_dir_ + "/worker-" + std::to_string(worker_id_) + ".ckpt";
}

void TcpTransport::restore_partial() {
  const std::string bytes = client_.fetch_partial(label_, worker_id_);
  if (bytes.empty()) return;  // first life: nothing published yet
  write_file_bytes(partial_path(), bytes);
}

void TcpTransport::publish_partial() {
  // The streamed campaign just checkpointed into partial_path(); ship
  // those exact bytes plus their bitmap, so reclaim decisions need no
  // checkpoint parsing server-side. One read: the bitmap must be
  // parsed from the very bytes that go over the wire — a second read
  // could race a newer save from another campaign thread and publish
  // a bitmap that undercounts the blob, sending a committed shard
  // back to todo on reclaim (bitmap overlap, merge refused).
  const std::string bytes = read_file_bytes(partial_path());
  if (bytes.empty()) return;  // no commit yet, nothing to publish
  const CampaignCheckpoint::Loaded loaded =
      CampaignCheckpoint::load_bytes(bytes, partial_path());
  client_.upload_partial(label_, worker_id_, loaded.shard_done, bytes);
}

void TcpTransport::heartbeat() { client_.heartbeat(worker_id_); }

void TcpTransport::reclaim_expired(double expiry_seconds) {
  if (expiry_seconds > 0.0) client_.reclaim(-1, expiry_seconds);
}

std::vector<std::string> TcpTransport::collect_partials() {
  std::vector<std::string> paths;
  for (const TcpQueueClient::Partial& partial :
       client_.drain_partials(label_)) {
    const std::string path = scratch_dir_ + "/worker-" +
                             std::to_string(partial.worker_id) + ".ckpt";
    write_file_bytes(path, partial.bytes);
    paths.push_back(path);
  }
  return paths;  // drain order is sorted by worker id already
}

std::string TcpTransport::merged_checkpoint_path() const {
  return scratch_dir_ + "/merged.ckpt";
}

}  // namespace ftnav

#pragma once
// Shared wire encoding for the campaign-service TCP protocol, used by
// the CampaignServer poll loop (campaign_server.cpp) and the
// TcpQueueClient RPC client (tcp_transport.cpp).
//
// Frame: u32 little-endian payload length, then the payload. Request
// payloads start with a u8 opcode; response payloads with a u8 status
// (0 = ok + body, 1 = error + message string, 2 = authentication
// rejected + message string). Field encoding reuses util/binary_io —
// the same fixed-width little-endian helpers the checkpoints travel
// through, and the same helpers the server's journal records use.

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binary_io.h"

namespace ftnav::wire {

enum Opcode : unsigned char {
  kOpPopulate = 1,
  kOpClaim = 2,
  kOpDone = 3,
  kOpHeartbeat = 4,
  kOpUpload = 5,
  kOpFetch = 6,
  kOpDrain = 7,
  kOpReclaim = 8,
  // Campaign-service extensions (campaign_server.h):
  kOpHello = 9,         // session-token handshake
  kOpRegister = 10,     // record a campaign submission under its tag
  kOpStatus = 11,        // registrations + per-queue progress
  kOpAllocWorkers = 12,  // reserve a fresh, never-reused worker-id range
  // Telemetry:
  kOpStats = 13,  // server metrics snapshot (obs::MetricsSnapshot)
  // 14, 15 unused: retired shard-timing uploads get "unknown opcode".
};

enum Status : unsigned char {
  kStatusOk = 0,
  kStatusError = 1,
  kStatusAuthError = 2,
};

constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 28;

inline std::string frame(const std::string& payload) {
  std::string framed;
  framed.reserve(4 + payload.size());
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  for (int byte = 0; byte < 4; ++byte)
    framed.push_back(static_cast<char>((size >> (8 * byte)) & 0xff));
  framed += payload;
  return framed;
}

inline std::uint64_t encode_worker(int worker_id) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(worker_id));
}

inline int decode_worker(std::uint64_t raw) {
  return static_cast<int>(static_cast<std::int64_t>(raw));
}

inline void write_shards(std::ostream& out,
                         const std::vector<std::size_t>& shards) {
  io::write_u64(out, shards.size());
  for (std::size_t shard : shards) io::write_u64(out, shard);
}

inline std::vector<std::size_t> read_shards(std::istream& in) {
  const std::uint64_t count = io::read_u64(in);
  std::vector<std::size_t> shards;
  shards.reserve(io::reservable(in, count, 8));
  for (std::uint64_t i = 0; i < count; ++i)
    shards.push_back(static_cast<std::size_t>(io::read_u64(in)));
  return shards;
}

inline void write_bitmap(std::ostream& out,
                         const std::vector<std::uint8_t>& bits) {
  io::write_u64(out, bits.size());
  if (!bits.empty()) io::write_bytes(out, bits.data(), bits.size());
}

inline std::vector<std::uint8_t> read_bitmap(std::istream& in) {
  return io::read_vector<std::uint8_t>(in);
}

inline std::string ok_reply(const std::string& body = std::string()) {
  std::string reply;
  reply.reserve(1 + body.size());
  reply.push_back(static_cast<char>(kStatusOk));
  reply += body;
  return reply;
}

inline std::string error_reply(const std::string& message) {
  std::ostringstream out;
  out.put(static_cast<char>(kStatusError));
  io::write_string(out, message);
  return out.str();
}

inline std::string auth_error_reply(const std::string& message) {
  std::ostringstream out;
  out.put(static_cast<char>(kStatusAuthError));
  io::write_string(out, message);
  return out.str();
}

/// Splits "host:port"; empty host means every interface (server) or
/// loopback (client).
inline void split_addr(const std::string& addr, std::string& host,
                       std::string& port) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size())
    throw std::runtime_error("tcp transport: address must be host:port: " +
                             addr);
  host = addr.substr(0, colon);
  port = addr.substr(colon + 1);
}

}  // namespace ftnav::wire

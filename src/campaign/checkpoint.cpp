#include "campaign/checkpoint.h"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/trace.h"
#include "util/binary_io.h"

namespace ftnav {
namespace {

constexpr char kMagic[8] = {'F', 'T', 'N', 'V', 'C', 'K', 'P', '1'};

}  // namespace

ConfigDigest& ConfigDigest::add(std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (value >> (8 * byte)) & 0xff;
    state_ *= 0x100000001b3ULL;
  }
  return *this;
}

ConfigDigest& ConfigDigest::add(double value) noexcept {
  return add(std::bit_cast<std::uint64_t>(value));
}

ConfigDigest& ConfigDigest::add(std::string_view text) noexcept {
  for (char ch : text) {
    state_ ^= static_cast<unsigned char>(ch);
    state_ *= 0x100000001b3ULL;
  }
  return add(static_cast<std::uint64_t>(text.size()));
}

ConfigDigest& ConfigDigest::add(const std::vector<double>& values) noexcept {
  for (double value : values) add(value);
  return add(static_cast<std::uint64_t>(values.size()));
}

ConfigDigest& ConfigDigest::add(const std::vector<int>& values) noexcept {
  for (int value : values) add(value);
  return add(static_cast<std::uint64_t>(values.size()));
}

std::string ConfigDigest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

std::uint64_t CampaignCheckpoint::fingerprint(std::string_view tag,
                                              std::uint64_t seed,
                                              std::size_t trial_count,
                                              std::size_t shard_count) {
  std::string blob(tag);
  blob.push_back('\0');
  for (std::uint64_t value :
       {seed, static_cast<std::uint64_t>(trial_count),
        static_cast<std::uint64_t>(shard_count)}) {
    for (int byte = 0; byte < 8; ++byte)
      blob.push_back(static_cast<char>((value >> (8 * byte)) & 0xff));
  }
  return io::fnv1a(blob);
}

void CampaignCheckpoint::save(const std::string& path, const Header& header,
                              const std::vector<std::uint8_t>& shard_done,
                              const std::string& payload) {
  if (shard_done.size() != header.shard_count)
    throw std::runtime_error("CampaignCheckpoint::save: bitmap size mismatch");
  obs::TraceSpan span("checkpoint_save", "checkpoint", "bytes",
                      payload.size());

  // The directory may not exist yet (--checkpoint pointing into a
  // fresh scratch path); create it instead of failing the first save.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec)
      throw std::runtime_error("CampaignCheckpoint: cannot create " +
                               parent.string() + ": " + ec.message());
  }

  std::ostringstream body;
  io::write_bytes(body, kMagic, sizeof kMagic);
  io::write_u64(body, header.fingerprint);
  io::write_u64(body, header.trial_count);
  io::write_u64(body, header.shard_count);
  io::write_u64(body, header.trials_done);
  io::write_vector(body, shard_done);
  io::write_string(body, payload);
  const std::string bytes = body.str();
  const std::uint64_t checksum = io::fnv1a(bytes);

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("CampaignCheckpoint: cannot open " + tmp_path);
    io::write_bytes(out, bytes.data(), bytes.size());
    io::write_u64(out, checksum);
    out.flush();
    if (!out)
      throw std::runtime_error("CampaignCheckpoint: write failed: " +
                               tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0)
    throw std::runtime_error("CampaignCheckpoint: rename failed: " + path);
}

std::optional<CampaignCheckpoint::Loaded> CampaignCheckpoint::load(
    const std::string& path) {
  obs::TraceSpan span("checkpoint_load", "checkpoint");
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_bytes(buffer.str(), path);
}

CampaignCheckpoint::Loaded CampaignCheckpoint::load_bytes(
    const std::string& bytes, const std::string& path) {
  if (bytes.size() < sizeof kMagic + 8)
    throw std::runtime_error("CampaignCheckpoint: truncated file: " + path);

  // Trailing u64 is the checksum of everything before it.
  const std::string body = bytes.substr(0, bytes.size() - 8);
  std::istringstream tail(bytes.substr(bytes.size() - 8));
  if (io::read_u64(tail) != io::fnv1a(body))
    throw std::runtime_error("CampaignCheckpoint: checksum mismatch: " + path);

  std::istringstream body_in(body);
  char magic[sizeof kMagic];
  io::read_bytes(body_in, magic, sizeof magic);
  if (std::string_view(magic, sizeof magic) !=
      std::string_view(kMagic, sizeof kMagic))
    throw std::runtime_error("CampaignCheckpoint: bad magic: " + path);

  Loaded loaded;
  loaded.header.fingerprint = io::read_u64(body_in);
  loaded.header.trial_count = io::read_u64(body_in);
  loaded.header.shard_count = io::read_u64(body_in);
  loaded.header.trials_done = io::read_u64(body_in);
  loaded.shard_done = io::read_vector<std::uint8_t>(body_in);
  if (loaded.shard_done.size() != loaded.header.shard_count)
    throw std::runtime_error("CampaignCheckpoint: bitmap size mismatch: " +
                             path);
  loaded.payload = io::read_string(body_in);
  return loaded;
}

CampaignCheckpoint::Loaded CampaignCheckpoint::merge(
    const std::vector<Loaded>& partials, const PayloadMerge& merge_payload) {
  if (partials.empty())
    throw std::runtime_error("CampaignCheckpoint::merge: no partials");

  Loaded merged = partials.front();
  for (std::size_t i = 1; i < partials.size(); ++i) {
    const Loaded& partial = partials[i];
    if (partial.header.fingerprint != merged.header.fingerprint)
      throw std::runtime_error(
          "CampaignCheckpoint::merge: fingerprint mismatch (partials from "
          "different campaign configurations)");
    if (partial.header.trial_count != merged.header.trial_count ||
        partial.header.shard_count != merged.header.shard_count ||
        partial.shard_done.size() != merged.shard_done.size())
      throw std::runtime_error(
          "CampaignCheckpoint::merge: shard partition mismatch");
    for (std::size_t shard = 0; shard < merged.shard_done.size(); ++shard) {
      if (merged.shard_done[shard] && partial.shard_done[shard])
        throw std::runtime_error(
            "CampaignCheckpoint::merge: shard " + std::to_string(shard) +
            " completed by two workers (bitmaps must be disjoint)");
      merged.shard_done[shard] |= partial.shard_done[shard];
    }
    merged.header.trials_done += partial.header.trials_done;
  }
  // A single partial IS the merge; skipping the payload round-trip
  // keeps its bytes verbatim.
  if (partials.size() > 1) merged.payload = merge_payload(partials);
  return merged;
}

}  // namespace ftnav

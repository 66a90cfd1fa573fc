#pragma once
// On-disk campaign checkpoints.
//
// A long fault-injection sweep periodically persists (a) the bitmap of
// completed shards and (b) the merged accumulator state for exactly
// those shards. A killed campaign restarted with resume enabled loads
// the checkpoint, skips the completed shards, and finishes with
// bit-identical final results — for any thread count, because every
// campaign's shard partition is a pure function of the trial count
// (see campaign_runner.h) and every accumulator merge is
// order-invariant.
//
// File layout (fixed-width little-endian, see util/binary_io.h):
//
//   magic "FTNVCKP1" | fingerprint u64 | trial_count u64
//   | shard_count u64 | trials_done u64 | shard bitmap bytes
//   | payload size u64 | payload bytes | FNV-1a of everything above
//
// The fingerprint hashes (tag, seed, trial_count, shard_count) so a
// checkpoint is only ever resumed into the campaign configuration that
// wrote it; a mismatch throws instead of silently corrupting results.
// The runner also refuses a file whose header trial_count or
// shard_count differs from the campaign's, since the bitmap is indexed
// by the campaign's own shards.
// Saves are atomic (write to "<path>.tmp", then rename), so a kill
// mid-save leaves the previous checkpoint intact.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ftnav {

/// Rolling FNV-1a digest of the configuration values that give a
/// campaign's trials their meaning (BER axes, episode budgets,
/// densities, policy hyper-parameters, ...). Drivers append
/// `"#" + digest.hex()` to their checkpoint tag so resume refuses a
/// checkpoint whose *semantic* configuration differs even when tag,
/// seed, and trial count coincide. Doubles are digested as their raw
/// bit patterns — any representable change changes the digest.
class ConfigDigest {
 public:
  ConfigDigest& add(std::uint64_t value) noexcept;
  ConfigDigest& add(int value) noexcept {
    return add(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
  }
  ConfigDigest& add(bool value) noexcept {
    return add(static_cast<std::uint64_t>(value));
  }
  ConfigDigest& add(double value) noexcept;
  ConfigDigest& add(std::string_view text) noexcept;
  ConfigDigest& add(const std::vector<double>& values) noexcept;
  ConfigDigest& add(const std::vector<int>& values) noexcept;

  /// 16-hex-digit rendering for embedding in a checkpoint tag.
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

class CampaignCheckpoint {
 public:
  struct Header {
    std::uint64_t fingerprint = 0;
    std::uint64_t trial_count = 0;
    std::uint64_t shard_count = 0;
    std::uint64_t trials_done = 0;
  };

  /// Identity of a campaign configuration for resume validation.
  static std::uint64_t fingerprint(std::string_view tag, std::uint64_t seed,
                                   std::size_t trial_count,
                                   std::size_t shard_count);

  /// Atomically writes header + shard bitmap + payload to `path`.
  /// Throws std::runtime_error on I/O failure.
  static void save(const std::string& path, const Header& header,
                   const std::vector<std::uint8_t>& shard_done,
                   const std::string& payload);

  struct Loaded {
    Header header;
    std::vector<std::uint8_t> shard_done;  ///< one byte per shard
    std::string payload;
  };

  /// Loads `path`. Returns nullopt when the file does not exist;
  /// throws std::runtime_error when it exists but is truncated,
  /// corrupt, or fails the checksum.
  static std::optional<Loaded> load(const std::string& path);

  /// Parses checkpoint `bytes` already in memory (`path` labels error
  /// messages only). Same validation as load(); callers that must
  /// treat a byte buffer and its parsed bitmap as one consistent
  /// snapshot (the TCP transport's partial publication) parse the
  /// exact bytes they ship instead of re-reading the file.
  static Loaded load_bytes(const std::string& bytes,
                           const std::string& path);

  /// Merges the payloads of validated partial checkpoints. Only the
  /// campaign knows its accumulator encoding, so `merge` delegates:
  /// the callback receives every partial at once (each one's
  /// completed-shard bitmap tells slice-style accumulators which trial
  /// ranges it owns) and returns the merged payload bytes — one
  /// decode per partial and a single encode, instead of re-coding the
  /// accumulated state per pair.
  using PayloadMerge =
      std::function<std::string(const std::vector<Loaded>& partials)>;

  /// Folds per-process partial checkpoints into one checkpoint
  /// equivalent to a single-process run over the union of their
  /// shards: bitmaps are unioned, `trials_done` summed, and payloads
  /// merged via `merge_payload`. Every partial must carry the same
  /// fingerprint, trial count, and shard count, and the completed-shard
  /// bitmaps must be pairwise disjoint (a shard that ran in two worker
  /// processes would be double-counted, so overlap throws instead of
  /// silently corrupting the merge). Throws std::runtime_error on any
  /// mismatch or when `partials` is empty.
  static Loaded merge(const std::vector<Loaded>& partials,
                      const PayloadMerge& merge_payload);
};

}  // namespace ftnav

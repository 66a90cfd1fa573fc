#include "obs/shard_timing.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "nn/kernels/kernels.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/binary_io.h"

namespace ftnav::obs {
namespace {

std::mutex g_mutex;
std::vector<ShardTiming>& sink() {
  // Intentionally leaked: flush_telemetry runs from atexit, which
  // interleaves with static destruction in reverse registration order.
  // The recorder (and its atexit hook) registers at first trace() use —
  // typically before the first shard records here — so a plain static
  // vector would already be destroyed when the exit-time flush reads it.
  static std::vector<ShardTiming>* const records =
      new std::vector<ShardTiming>();
  return *records;
}

std::atomic<int> g_worker_id{-1};

// Process-wide scenario fingerprint; set once by the front-end before
// campaigns launch, read per committed shard.
std::mutex g_fingerprint_mutex;
std::string& fingerprint_slot() {
  static std::string* const slot = new std::string();  // leaked, see sink()
  return *slot;
}

const char* backend_name() {
  // Same guard bench_common.h uses: campaigns that never touch the NN
  // kernels must not fail because FTNAV_SIMD names an absent backend.
  static const char* name = [] {
    const char* resolved = "unknown";
    try {
      resolved = kernels::active().name;
    } catch (...) {
    }
    return resolved;
  }();
  return name;
}

}  // namespace

void set_shard_timing_worker_id(int worker_id) {
  g_worker_id.store(worker_id, std::memory_order_relaxed);
}

int shard_timing_worker_id() {
  return g_worker_id.load(std::memory_order_relaxed);
}

void set_shard_timing_fingerprint(std::string_view fingerprint) {
  std::lock_guard<std::mutex> lock(g_fingerprint_mutex);
  fingerprint_slot().assign(fingerprint.data(), fingerprint.size());
}

std::string shard_timing_fingerprint() {
  std::lock_guard<std::mutex> lock(g_fingerprint_mutex);
  return fingerprint_slot();
}

std::string param_fingerprint(std::string_view scenario,
                              std::string_view canonical_params) {
  std::string joined;
  joined.reserve(scenario.size() + 1 + canonical_params.size());
  joined.append(scenario);
  joined.push_back('|');
  joined.append(canonical_params);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    io::fnv1a({joined.data(), joined.size()})));
  return digest;
}

void record_shard_timing(std::string_view tag, std::uint64_t shard_id,
                         double wall_seconds, std::uint64_t trials,
                         int threads) {
  if (trace() == nullptr) return;  // telemetry off: keep shards alloc-free
  ShardTiming record;
  record.tag.assign(tag.data(), tag.size());
  record.shard_id = shard_id;
  record.worker_id = shard_timing_worker_id();
  record.wall_seconds = wall_seconds;
  record.trials = trials;
  record.threads = threads;
  record.backend = backend_name();
  record.fingerprint = shard_timing_fingerprint();
  std::lock_guard<std::mutex> lock(g_mutex);
  sink().push_back(std::move(record));
}

void note_shard_timings(const std::vector<ShardTiming>& records) {
  std::lock_guard<std::mutex> lock(g_mutex);
  sink().insert(sink().end(), records.begin(), records.end());
}

std::vector<ShardTiming> snapshot_shard_timings(std::string_view tag_filter) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (tag_filter.empty()) return sink();
  std::vector<ShardTiming> out;
  for (const ShardTiming& record : sink())
    if (record.tag == tag_filter) out.push_back(record);
  return out;
}

void clear_shard_timings() {
  std::lock_guard<std::mutex> lock(g_mutex);
  sink().clear();
}

std::string encode_shard_timings(const std::vector<ShardTiming>& records) {
  std::ostringstream out;
  io::write_u64(out, records.size());
  for (const ShardTiming& record : records) {
    io::write_string(out, record.tag);
    io::write_u64(out, record.shard_id);
    io::write_u64(out, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(record.worker_id)));
    io::write_f64(out, record.wall_seconds);
    io::write_u64(out, record.trials);
    io::write_u64(out, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(record.threads)));
    io::write_string(out, record.backend);
    io::write_string(out, record.fingerprint);
  }
  return out.str();
}

std::vector<ShardTiming> decode_shard_timings(const std::string& bytes) {
  std::istringstream in(bytes);
  const std::uint64_t count = io::read_u64(in);
  std::vector<ShardTiming> records;
  records.reserve(io::reservable(in, count, 64));
  for (std::uint64_t i = 0; i < count; ++i) {
    ShardTiming record;
    record.tag = io::read_string(in);
    record.shard_id = io::read_u64(in);
    record.worker_id =
        static_cast<int>(static_cast<std::int64_t>(io::read_u64(in)));
    record.wall_seconds = io::read_f64(in);
    record.trials = io::read_u64(in);
    record.threads =
        static_cast<int>(static_cast<std::int64_t>(io::read_u64(in)));
    record.backend = io::read_string(in);
    record.fingerprint = io::read_string(in);
    records.push_back(std::move(record));
  }
  return records;
}

void write_shard_timings_json(const std::string& dir) {
  std::vector<ShardTiming> records = snapshot_shard_timings();
  // First record per (tag, shard) wins: a worker that committed a
  // shard before dying and a reclaimer that re-ran it both report;
  // stable_sort keeps arrival order within a key so the original
  // commit is preferred.
  std::stable_sort(records.begin(), records.end(),
                   [](const ShardTiming& a, const ShardTiming& b) {
                     if (a.tag != b.tag) return a.tag < b.tag;
                     return a.shard_id < b.shard_id;
                   });
  records.erase(std::unique(records.begin(), records.end(),
                            [](const ShardTiming& a, const ShardTiming& b) {
                              return a.tag == b.tag &&
                                     a.shard_id == b.shard_id;
                            }),
                records.end());

  std::string out;
  out.reserve(1u << 12);
  out += "{\"schema\":\"ftnav-shard-timings-v2\",\"records\":[";
  bool first = true;
  for (const ShardTiming& record : records) {
    if (!first) out += ',';
    first = false;
    out += "{\"tag\":\"";
    json_escape_into(out, record.tag);
    out += "\",\"shard\":";
    out += std::to_string(record.shard_id);
    out += ",\"worker\":";
    out += std::to_string(record.worker_id);
    out += ",\"wall_seconds\":";
    char wall[64];
    std::snprintf(wall, sizeof(wall), "%.9g", record.wall_seconds);
    out += wall;
    out += ",\"trials\":";
    out += std::to_string(record.trials);
    out += ",\"threads\":";
    out += std::to_string(record.threads);
    out += ",\"backend\":\"";
    json_escape_into(out, record.backend);
    out += "\",\"fingerprint\":\"";
    json_escape_into(out, record.fingerprint);
    out += "\"}";
  }
  out += "]}";

  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  const std::string path = dir + "/shard_timings.json";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return;
    file.write(out.data(), static_cast<std::streamsize>(out.size()));
    if (!file.flush()) return;
  }
  std::filesystem::rename(tmp, path, ignored);
}

void maybe_write_shard_timings(const std::string& dir) {
  if (shard_timing_worker_id() >= 0) return;  // workers upload instead
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (sink().empty()) return;
  }
  write_shard_timings_json(dir);
}

}  // namespace ftnav::obs

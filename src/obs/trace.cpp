#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/json.h"

#ifdef _WIN32
#include <process.h>
#define ftnav_getpid _getpid
#else
#include <unistd.h>
#define ftnav_getpid getpid
#endif

namespace ftnav::obs {
namespace {

constexpr std::size_t kEventsPerThread = 1u << 15;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The active recorder. Writers (instrumentation sites) load relaxed;
// installation stores release. A recorder installed from the env lives
// until process exit; TraceSession owns its own and restores the
// previous pointer, so a loaded pointer never dangles within a span's
// lifetime as long as sessions outlive the work they observe.
std::atomic<TraceRecorder*> g_recorder{nullptr};

// Bumped every time g_recorder changes so threads re-register their
// buffer with the current recorder instead of writing into a stale one.
std::atomic<std::uint64_t> g_generation{1};

}  // namespace

TraceRecorder::TraceRecorder(std::string dir)
    : dir_(std::move(dir)),
      epoch_seconds_(steady_seconds()),
      generation_(g_generation.load(std::memory_order_acquire)) {}

TraceRecorder::ThreadBuffer& TraceRecorder::buffer_for_this_thread() {
  struct Slot {
    std::uint64_t generation = 0;
    ThreadBuffer* buffer = nullptr;
  };
  thread_local Slot slot;
  if (slot.generation != generation_ || slot.buffer == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->events.resize(kEventsPerThread);
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    slot.buffer = buffer.get();
    slot.generation = generation_;
    buffers_.push_back(std::move(buffer));
  }
  return *slot.buffer;
}

void TraceRecorder::record(const char* name, const char* cat, char phase,
                           const char* arg_name, std::uint64_t arg) {
  ThreadBuffer& buffer = buffer_for_this_thread();
  const std::size_t index = buffer.count.load(std::memory_order_relaxed);
  if (index >= buffer.events.size()) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent& event = buffer.events[index];
  event.name = name;
  event.cat = cat;
  event.arg_name = arg_name;
  event.arg = arg;
  event.ts_us = (steady_seconds() - epoch_seconds_) * 1e6;
  event.phase = phase;
  buffer.count.store(index + 1, std::memory_order_release);
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_)
    total += buffer->dropped.load(std::memory_order_relaxed);
  return total;
}

void TraceRecorder::flush() {
  const int pid = ftnav_getpid();
  std::string out;
  out.reserve(1u << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& buffer : buffers_) {
      const std::size_t count =
          buffer->count.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < count; ++i) {
        const TraceEvent& event = buffer->events[i];
        if (!first) out += ',';
        first = false;
        out += "{\"name\":\"";
        json_escape_into(out, event.name);
        out += "\",\"cat\":\"";
        json_escape_into(out, event.cat);
        out += "\",\"ph\":\"";
        out += event.phase;
        out += "\",\"pid\":";
        out += std::to_string(pid);
        out += ",\"tid\":";
        out += std::to_string(buffer->tid);
        out += ",\"ts\":";
        char ts[64];
        std::snprintf(ts, sizeof(ts), "%.3f", event.ts_us);
        out += ts;
        if (event.arg_name != nullptr) {
          out += ",\"args\":{\"";
          json_escape_into(out, event.arg_name);
          out += "\":";
          out += std::to_string(event.arg);
          out += '}';
        }
        out += '}';
      }
    }
  }
  out += "]}";

  std::error_code ignored;
  std::filesystem::create_directories(dir_, ignored);
  const std::string path =
      dir_ + "/trace." + std::to_string(pid) + ".json";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return;
    file.write(out.data(), static_cast<std::streamsize>(out.size()));
    if (!file.flush()) return;
  }
  std::filesystem::rename(tmp, path, ignored);
}

TraceRecorder* trace() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* dir = std::getenv("FTNAV_TRACE_DIR");
    if (dir == nullptr || dir[0] == '\0') return;
    static TraceRecorder recorder{std::string(dir)};
    g_recorder.store(&recorder, std::memory_order_release);
    // Registered after the recorder's construction, so it runs before
    // any static destructor could touch it.
    std::atexit(flush_telemetry);
  });
  return g_recorder.load(std::memory_order_relaxed);
}

TraceSession::TraceSession(const std::string& dir) {
  trace();  // settle the env-driven init before swapping
  previous_ = g_recorder.load(std::memory_order_acquire);
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  recorder_ = std::make_unique<TraceRecorder>(dir);  // picks up the new gen
  g_recorder.store(recorder_.get(), std::memory_order_release);
}

TraceSession::~TraceSession() {
  flush_telemetry();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  g_recorder.store(previous_, std::memory_order_release);
}

void flush_telemetry() {
  TraceRecorder* recorder = g_recorder.load(std::memory_order_acquire);
  if (recorder == nullptr) return;
  recorder->flush();
}

}  // namespace ftnav::obs

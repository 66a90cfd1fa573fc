#pragma once
// Low-overhead trace spans dumped as Chrome trace-event JSON.
//
// When FTNAV_TRACE_DIR is set, a process-global TraceRecorder collects
// begin/end/instant events into per-thread ring buffers and, at exit,
// writes `<dir>/trace.<pid>.json` — loadable in Perfetto or
// chrome://tracing. When the knob is unset, trace() returns nullptr
// and every instrumentation site reduces to one relaxed atomic load
// plus a branch, so tracing-off costs nothing measurable (the perf
// gate keeps this honest).
//
// Hard invariant shared by all of src/obs/: telemetry never writes to
// stdout, FTNAV_JSON_DIR artifacts, or checkpoints. Trace files go to
// FTNAV_TRACE_DIR only; diagnostics go to stderr only. Byte-identity
// contracts (tests + ci/campaign_chaos.sh) compare clean with
// telemetry on or off.
//
// Recording is lock-free per thread: each thread owns a pre-sized
// event buffer and bumps an atomic count (release store) that the
// flusher reads (acquire load). A full buffer drops newest events and
// counts the drops rather than blocking or reallocating.
//
// Event names and categories must be string literals (or otherwise
// outlive the recorder): only the pointers are stored.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ftnav::obs {

struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* arg_name = nullptr;  // optional integer arg, e.g. shard id
  std::uint64_t arg = 0;
  double ts_us = 0.0;  // microseconds since recorder creation
  char phase = 'i';    // 'B' begin, 'E' end, 'i' instant
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::string dir);

  /// Appends one event to the calling thread's buffer. Lock-free after
  /// the thread's first call (which registers a buffer under a mutex).
  void record(const char* name, const char* cat, char phase,
              const char* arg_name = nullptr, std::uint64_t arg = 0);

  /// Writes trace.<pid>.json into the trace dir (tmp+rename, so a
  /// kill can't leave a torn file). Safe to call more than once;
  /// later flushes rewrite the file with all events so far.
  void flush();

  /// Events discarded because a thread buffer filled up.
  std::uint64_t dropped() const;

 private:
  struct ThreadBuffer {
    std::vector<TraceEvent> events;
    std::atomic<std::size_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
    std::uint32_t tid = 0;
  };

  ThreadBuffer& buffer_for_this_thread();

  std::string dir_;
  double epoch_seconds_ = 0.0;
  std::uint64_t generation_ = 0;
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Process-global recorder, or nullptr when FTNAV_TRACE_DIR is unset.
/// First call reads the environment; the result never changes after
/// that except through TraceSession (tests).
TraceRecorder* trace();

/// RAII begin/end span. Caches the recorder pointer once so a
/// TraceSession swap mid-span can't unbalance begin/end pairs.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat,
            const char* arg_name = nullptr, std::uint64_t arg = 0)
      : recorder_(trace()), name_(name), cat_(cat) {
    if (recorder_ != nullptr)
      recorder_->record(name_, cat_, 'B', arg_name, arg);
  }
  ~TraceSpan() {
    if (recorder_ != nullptr) recorder_->record(name_, cat_, 'E');
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* name_;
  const char* cat_;
};

/// One-off instant event (no duration).
inline void trace_instant(const char* name, const char* cat,
                          const char* arg_name = nullptr,
                          std::uint64_t arg = 0) {
  if (TraceRecorder* recorder = trace())
    recorder->record(name, cat, 'i', arg_name, arg);
}

/// Test hook: installs a fresh recorder writing into `dir` for the
/// session's lifetime, then flushes it and restores the previous
/// recorder.
class TraceSession {
 public:
  explicit TraceSession(const std::string& dir);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  TraceRecorder& recorder() { return *recorder_; }

 private:
  std::unique_ptr<TraceRecorder> recorder_;
  TraceRecorder* previous_ = nullptr;
};

/// Flushes the active recorder (if any) to its trace file. Registered
/// via atexit by the env-driven trace() initializer; TraceSession
/// calls it on teardown.
void flush_telemetry();

}  // namespace ftnav::obs

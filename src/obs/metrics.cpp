#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/binary_io.h"

namespace ftnav::obs {

void LatencyHistogram::observe(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;  // NaN/negative clamp
  const double micros = seconds * 1e6;
  std::size_t bucket = 0;
  if (micros >= 2.0) {
    const auto whole = static_cast<std::uint64_t>(micros);
    bucket = static_cast<std::size_t>(std::bit_width(whole)) - 1;
    if (bucket >= kBuckets) bucket = kBuckets - 1;
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> LatencyHistogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const CounterSnapshot& theirs : other.counters) {
    auto it = std::lower_bound(
        counters.begin(), counters.end(), theirs.name,
        [](const CounterSnapshot& a, const std::string& b) {
          return a.name < b;
        });
    if (it != counters.end() && it->name == theirs.name)
      it->value += theirs.value;
    else
      counters.insert(it, theirs);
  }
  for (const HistogramSnapshot& theirs : other.histograms) {
    auto it = std::lower_bound(
        histograms.begin(), histograms.end(), theirs.name,
        [](const HistogramSnapshot& a, const std::string& b) {
          return a.name < b;
        });
    if (it != histograms.end() && it->name == theirs.name) {
      it->count += theirs.count;
      it->sum_seconds += theirs.sum_seconds;
      it->buckets.resize(
          std::max(it->buckets.size(), theirs.buckets.size()), 0);
      for (std::size_t i = 0; i < theirs.buckets.size(); ++i)
        it->buckets[i] += theirs.buckets[i];
    } else {
      histograms.insert(it, theirs);
    }
  }
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const CounterSnapshot& counter : counters)
    if (counter.name == name) return counter.value;
  return 0;
}

void write_snapshot(std::ostream& out, const MetricsSnapshot& snapshot) {
  io::write_u64(out, snapshot.counters.size());
  for (const CounterSnapshot& counter : snapshot.counters) {
    io::write_string(out, counter.name);
    io::write_u64(out, counter.value);
  }
  io::write_u64(out, snapshot.histograms.size());
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    io::write_string(out, histogram.name);
    io::write_u64(out, histogram.count);
    io::write_f64(out, histogram.sum_seconds);
    io::write_vector(out, histogram.buckets);
  }
}

MetricsSnapshot read_snapshot(std::istream& in) {
  MetricsSnapshot snapshot;
  const std::uint64_t counter_count = io::read_u64(in);
  snapshot.counters.reserve(io::reservable(in, counter_count, 16));
  for (std::uint64_t i = 0; i < counter_count; ++i) {
    CounterSnapshot counter;
    counter.name = io::read_string(in);
    counter.value = io::read_u64(in);
    snapshot.counters.push_back(std::move(counter));
  }
  const std::uint64_t histogram_count = io::read_u64(in);
  snapshot.histograms.reserve(io::reservable(in, histogram_count, 32));
  for (std::uint64_t i = 0; i < histogram_count; ++i) {
    HistogramSnapshot histogram;
    histogram.name = io::read_string(in);
    histogram.count = io::read_u64(in);
    histogram.sum_seconds = io::read_f64(in);
    histogram.buckets = io::read_vector<std::uint64_t>(in);
    snapshot.histograms.push_back(std::move(histogram));
  }
  return snapshot;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_)
    out.counters.push_back({name, counter->value()});
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snap;
    snap.name = name;
    snap.count = histogram->count();
    snap.sum_seconds = histogram->sum_seconds();
    snap.buckets = histogram->bucket_counts();
    out.histograms.push_back(std::move(snap));
  }
  return out;
}

}  // namespace ftnav::obs

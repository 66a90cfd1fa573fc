// Tests for the telemetry layer (src/obs/): trace spans (Chrome
// trace-event JSON, concurrent nesting, null-recorder fast path, one
// `shard` span per campaign shard on the batch and streamed paths),
// metrics (counters, latency histograms, snapshot codec and merge),
// the status-document renderings, the authenticated stats RPC — and
// the hard invariant that campaign stdout/JSON/checkpoint bytes are
// identical with telemetry on or off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "campaign/campaign_runner.h"
#include "dist/campaign_server.h"
#include "dist/status_doc.h"
#include "dist/tcp_transport.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/builtin_scenarios.h"
#include "scenario/param_set.h"
#include "scenario/scenario.h"

namespace ftnav {
namespace {

int current_pid() {
#ifdef _WIN32
  return _getpid();
#else
  return ::getpid();
#endif
}

// The null-recorder and byte-identity contracts need a known baseline:
// scrub the knob before the first trace() call settles it for the
// whole process.
const bool kEnvScrubbed = [] {
#ifndef _WIN32
  ::unsetenv("FTNAV_TRACE_DIR");
#endif
  return true;
}();

struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() / ("ftnav_obs_" + name))
                 .string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- minimal JSON reader --------------------------------------------------
// Enough of a parser to verify the telemetry artifacts are well-formed
// and carry the documented fields; throws std::runtime_error on any
// syntax error (gtest reports the escaped exception as a failure).

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json& at(const std::string& key) const {
    const auto found = fields.find(key);
    if (found == fields.end())
      throw std::runtime_error("json: missing field " + key);
    return found->second;
  }
  bool has(const std::string& key) const { return fields.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size())
      throw std::runtime_error("json: trailing bytes");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("json: truncated");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("json: expected '") + c +
                               "' at offset " + std::to_string(pos_));
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t length = std::string(literal).size();
    if (text_.compare(pos_, length, literal) == 0) {
      pos_ += length;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Json value;
      value.kind = Json::Kind::kString;
      value.text = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      Json value;
      value.kind = Json::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      Json value;
      value.kind = Json::Kind::kBool;
      return value;
    }
    if (consume_literal("null")) return Json{};
    return parse_number();
  }

  Json parse_object() {
    Json value;
    value.kind = Json::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.fields.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  Json parse_array() {
    Json value;
    value.kind = Json::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char escape = peek();
      ++pos_;
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size())
            throw std::runtime_error("json: truncated \\u escape");
          const unsigned code =
              static_cast<unsigned>(std::stoul(text_.substr(pos_, 4),
                                               nullptr, 16));
          pos_ += 4;
          // The telemetry writers only emit \u00XX control escapes.
          out.push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          throw std::runtime_error("json: bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("json: bad value");
    Json value;
    value.kind = Json::Kind::kNumber;
    value.number = std::stod(text_.substr(start, pos_ - start));
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Json parse_json_file(const std::string& path) {
  return JsonParser(read_file(path)).parse();
}

// ---- trace spans ----------------------------------------------------------

TEST(Trace, DisabledMeansNullRecorderAndNoFiles) {
  ASSERT_TRUE(kEnvScrubbed);
  EXPECT_EQ(obs::trace(), nullptr);
  {
    // Every instrumentation idiom must be a safe no-op.
    obs::TraceSpan span("noop", "test", "arg", 7);
    obs::trace_instant("noop", "test");
  }
  obs::flush_telemetry();  // nothing to flush, must not crash
}

TEST(Trace, ConcurrentNestedSpansProduceBalancedChromeJson) {
  ScratchDir scratch("trace_nesting");
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 16;
  {
    obs::TraceSession session(scratch.path);
    ASSERT_NE(obs::trace(), nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          obs::TraceSpan outer("outer", "test", "iteration",
                               static_cast<std::uint64_t>(i));
          obs::trace_instant("tick", "test");
          obs::TraceSpan inner("inner", "test");
        }
      });
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(session.recorder().dropped(), 0u);
  }  // session teardown flushes trace.<pid>.json

  const std::string path =
      scratch.path + "/trace." + std::to_string(current_pid()) + ".json";
  const Json doc = parse_json_file(path);
  EXPECT_EQ(doc.at("displayTimeUnit").text, "ms");
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::kArray);

  // Per tid (buffers are dumped whole, in thread order) begin/end must
  // pair LIFO — exactly what Perfetto requires to build the flame.
  std::map<double, std::vector<std::string>> stacks;
  std::size_t begins = 0, ends = 0, instants = 0, with_args = 0;
  for (const Json& event : events.items) {
    const std::string& phase = event.at("ph").text;
    const double tid = event.at("tid").number;
    EXPECT_TRUE(event.has("ts"));
    EXPECT_TRUE(event.has("pid"));
    if (event.has("args")) ++with_args;
    if (phase == "B") {
      stacks[tid].push_back(event.at("name").text);
      ++begins;
    } else if (phase == "E") {
      ASSERT_FALSE(stacks[tid].empty());
      EXPECT_EQ(stacks[tid].back(), event.at("name").text);
      stacks[tid].pop_back();
      ++ends;
    } else {
      EXPECT_EQ(phase, "i");
      ++instants;
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  EXPECT_EQ(begins, static_cast<std::size_t>(2 * kThreads * kSpansPerThread));
  EXPECT_EQ(ends, begins);
  EXPECT_EQ(instants, static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_GE(with_args, static_cast<std::size_t>(kThreads * kSpansPerThread));
}

// ---- campaign shard spans -------------------------------------------------
// The per-shard wall of a campaign is its `shard` span (category
// `campaign`, shard index as the `shard` arg): the benchmark and the
// distributed CI leg read nothing else.

/// Shard ids of the `shard` spans in one trace file, in file order.
/// Fails the test on a span that does not pair LIFO with its end
/// event on its thread, or a `shard` span outside category `campaign`.
std::vector<std::uint64_t> shard_span_ids(const std::string& path) {
  const Json doc = parse_json_file(path);
  std::map<double, std::vector<std::string>> stacks;  // per tid
  std::vector<std::uint64_t> ids;
  for (const Json& event : doc.at("traceEvents").items) {
    const std::string& name = event.at("name").text;
    const std::string& phase = event.at("ph").text;
    std::vector<std::string>& stack = stacks[event.at("tid").number];
    if (phase == "B") {
      stack.push_back(name);
      if (name != "shard") continue;
      EXPECT_EQ(event.at("cat").text, "campaign");
      ids.push_back(
          static_cast<std::uint64_t>(event.at("args").at("shard").number));
    } else if (phase == "E") {
      if (stack.empty() || stack.back() != name) {
        ADD_FAILURE() << "unpaired end of " << name;
        continue;
      }
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  return ids;
}

TEST(Trace, OneShardSpanPerShardOnBatchAndStreamedPaths) {
  ScratchDir scratch("shard_spans");
  constexpr std::size_t kTrials = 200;
  const CampaignRunner runner(2);
  using Tally = std::vector<std::uint64_t>;
  const auto make_acc = [] { return Tally(1, 0); };
  const auto accumulate = [](Tally& acc, std::size_t, Rng&) { ++acc[0]; };
  const auto merge = [](Tally& into, Tally&& from) { into[0] += from[0]; };

  // The batch path cuts 2 threads x 4 = 8 shards; the streamed path
  // (a checkpoint turns it on) always cuts min(trials, 64).
  for (const bool streamed : {false, true}) {
    const std::string dir =
        scratch.path + (streamed ? "/streamed" : "/batch");
    {
      obs::TraceSession session(dir);
      Tally tally;
      if (streamed) {
        CampaignStreamConfig stream;
        stream.checkpoint_path = dir + ".ckpt";
        tally = runner.map_reduce_streamed("shard-spans", kTrials, 7,
                                           make_acc, accumulate, merge,
                                           stream);
      } else {
        tally = runner.map_reduce(kTrials, 7, make_acc, accumulate, merge);
      }
      EXPECT_EQ(tally[0], kTrials);
    }
    std::vector<std::uint64_t> ids = shard_span_ids(
        dir + "/trace." + std::to_string(current_pid()) + ".json");
    std::sort(ids.begin(), ids.end());
    std::vector<std::uint64_t> expected(streamed ? 64 : 8);
    std::iota(expected.begin(), expected.end(), std::uint64_t{0});
    EXPECT_EQ(ids, expected) << (streamed ? "streamed" : "batch");
  }
}

// ---- metrics --------------------------------------------------------------

TEST(Metrics, CountersAccumulateAcrossThreads) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&registry] {
      for (int i = 0; i < kAddsPerThread; ++i)
        registry.counter("shared").add();
    });
  for (std::thread& thread : threads) thread.join();
  registry.counter("other").add(5);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("shared"),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(snapshot.counter_value("other"), 5u);
  EXPECT_EQ(snapshot.counter_value("absent"), 0u);
}

TEST(Metrics, HistogramBucketsArePowerOfTwoMicroseconds) {
  obs::LatencyHistogram histogram;
  histogram.observe(1e-6);    // 1 µs -> bucket 0 (< 2 µs)
  histogram.observe(3e-6);    // 3 µs -> bucket 1 ([2, 4))
  histogram.observe(100e-6);  // 100 µs -> bucket 6 ([64, 128))
  histogram.observe(-1.0);    // clamped to bucket 0
  histogram.observe(1e9);     // astronomic -> clamped to the last bucket
  EXPECT_EQ(histogram.count(), 5u);
  const std::vector<std::uint64_t> buckets = histogram.bucket_counts();
  ASSERT_EQ(buckets.size(), obs::LatencyHistogram::kBuckets);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[6], 1u);
  EXPECT_EQ(buckets[obs::LatencyHistogram::kBuckets - 1], 1u);
}

TEST(Metrics, SnapshotCodecRoundTripsAndMergeSums) {
  obs::MetricsRegistry registry;
  registry.counter("a").add(3);
  registry.counter("c").add(7);
  registry.histogram("lat").observe(5e-6);
  const obs::MetricsSnapshot snapshot = registry.snapshot();

  std::stringstream wire;
  obs::write_snapshot(wire, snapshot);
  const obs::MetricsSnapshot decoded = obs::read_snapshot(wire);
  ASSERT_EQ(decoded.counters.size(), snapshot.counters.size());
  EXPECT_EQ(decoded.counter_value("a"), 3u);
  EXPECT_EQ(decoded.counter_value("c"), 7u);
  ASSERT_EQ(decoded.histograms.size(), 1u);
  EXPECT_EQ(decoded.histograms[0].name, "lat");
  EXPECT_EQ(decoded.histograms[0].count, 1u);
  EXPECT_EQ(decoded.histograms[0].buckets, snapshot.histograms[0].buckets);

  // Merge: matching names sum, new names land in sorted position.
  obs::MetricsSnapshot merged = snapshot;
  obs::MetricsSnapshot other;
  other.counters = {{"b", 10}, {"c", 1}};
  obs::HistogramSnapshot histogram;
  histogram.name = "lat";
  histogram.count = 2;
  histogram.sum_seconds = 1.0;
  histogram.buckets.assign(obs::LatencyHistogram::kBuckets, 0);
  histogram.buckets[3] = 2;
  other.histograms.push_back(histogram);
  merged.merge(other);
  ASSERT_EQ(merged.counters.size(), 3u);
  EXPECT_EQ(merged.counters[0].name, "a");
  EXPECT_EQ(merged.counters[1].name, "b");
  EXPECT_EQ(merged.counters[2].name, "c");
  EXPECT_EQ(merged.counter_value("c"), 8u);
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 3u);
  EXPECT_EQ(merged.histograms[0].buckets[3], 2u);
}

// ---- status document ------------------------------------------------------

ServerStatusDocument sample_status_doc() {
  ServerStatusDocument doc;
  doc.server = "127.0.0.1:9999";
  doc.status.campaigns.push_back(
      {"night \"run\"", "grid-inference", "bers=0.005 repeats=8"});
  doc.status.queues.push_back({"night \"run\"/q", 64, 32, 4, 2});
  doc.metrics.counters = {{"rpc.claim", 17}};
  obs::HistogramSnapshot histogram;
  histogram.name = "rpc_latency.claim";
  histogram.count = 17;
  histogram.sum_seconds = 0.125;
  histogram.buckets.assign(obs::LatencyHistogram::kBuckets, 0);
  histogram.buckets[2] = 17;
  doc.metrics.histograms.push_back(std::move(histogram));
  return doc;
}

TEST(StatusDoc, JsonRenderingMatchesSchema) {
  const ServerStatusDocument doc = sample_status_doc();
  const std::string rendered = render_status_json(doc);
  ASSERT_FALSE(rendered.empty());
  EXPECT_EQ(rendered.back(), '\n');

  const Json parsed = JsonParser(rendered).parse();
  EXPECT_EQ(parsed.at("schema").text, "ftnav-status-v1");
  EXPECT_EQ(parsed.at("server").text, "127.0.0.1:9999");
  ASSERT_EQ(parsed.at("campaigns").items.size(), 1u);
  const Json& campaign = parsed.at("campaigns").items[0];
  EXPECT_EQ(campaign.at("tag").text, "night \"run\"");  // escaping survives
  EXPECT_EQ(campaign.at("scenario").text, "grid-inference");
  ASSERT_EQ(parsed.at("queues").items.size(), 1u);
  const Json& queue = parsed.at("queues").items[0];
  EXPECT_EQ(queue.at("shards").number, 64.0);
  EXPECT_EQ(queue.at("done").number, 32.0);
  EXPECT_EQ(queue.at("leased").number, 4.0);
  EXPECT_EQ(queue.at("partials").number, 2.0);
  const Json& metrics = parsed.at("metrics");
  ASSERT_EQ(metrics.at("counters").items.size(), 1u);
  EXPECT_EQ(metrics.at("counters").items[0].at("value").number, 17.0);
  ASSERT_EQ(metrics.at("histograms").items.size(), 1u);
  const Json& histogram = metrics.at("histograms").items[0];
  EXPECT_EQ(histogram.at("count").number, 17.0);
  EXPECT_EQ(histogram.at("sum_seconds").number, 0.125);
  EXPECT_EQ(histogram.at("buckets").items.size(),
            obs::LatencyHistogram::kBuckets);
}

TEST(StatusDoc, TextRenderingCarriesTheSameNumbers) {
  const std::string text = render_status_text(sample_status_doc());
  EXPECT_NE(text.find("server: 127.0.0.1:9999"), std::string::npos);
  EXPECT_NE(text.find("campaigns: 1"), std::string::npos);
  EXPECT_NE(text.find("scenario: grid-inference"), std::string::npos);
  EXPECT_NE(text.find("32/64 shards done, 4 leased, 2 partials"),
            std::string::npos);
  EXPECT_NE(text.find("rpc.claim = 17"), std::string::npos);
  EXPECT_NE(text.find("rpc_latency.claim: 17 obs"), std::string::npos);
  // Telemetry renders to stderr/stdout strings only — and the metrics
  // block indents deeper than queue tags so `grep "^  <tag>$"` scripts
  // never match a metric line.
  EXPECT_NE(text.find("\n    rpc.claim"), std::string::npos);
}

// ---- stats RPC ------------------------------------------------------------

#if !defined(_WIN32)

TEST(StatsRpc, AuthenticatedStatsReportServerCounters) {
  CampaignServerConfig config;
  config.bind_addr = "127.0.0.1:0";
  config.auth_token = "stats-test-token";
  CampaignServer server(config);
  server.start();
  const std::string addr = server.address();

  // A wrong token is rejected at the hello handshake and counted.
  EXPECT_THROW(TcpQueueClient(addr, 1, "wrong-token"), TransportAuthError);
  // An unauthenticated session is gated on its first real RPC.
  {
    TcpQueueClient anonymous(addr, 1, "");
    EXPECT_THROW(anonymous.populate("q", 4), TransportAuthError);
  }

  TcpQueueClient client(addr, 1, "stats-test-token");
  client.populate("q", 4);
  const TcpQueueClient::ClaimReply claim =
      client.claim("q", 0, TcpQueueClient::kNoHint, 2);
  ASSERT_EQ(claim.leased.size(), 2u);
  client.done("q", 0, claim.leased);

  const obs::MetricsSnapshot snapshot = client.stats();
  EXPECT_GE(snapshot.counter_value("connections.accepted"), 3u);
  EXPECT_GE(snapshot.counter_value("auth.rejected"), 2u);
  EXPECT_GE(snapshot.counter_value("rpc.populate"), 1u);
  EXPECT_GE(snapshot.counter_value("rpc.claim"), 1u);
  EXPECT_GE(snapshot.counter_value("rpc.done"), 1u);
  EXPECT_GE(snapshot.counter_value("leases.granted"), 2u);
  // Point-in-time queue depth: 2 of 4 shards done, none leased.
  EXPECT_EQ(snapshot.counter_value("queue.q.done"), 2u);
  EXPECT_EQ(snapshot.counter_value("queue.q.leased"), 0u);
  EXPECT_EQ(snapshot.counter_value("queue.q.todo"), 2u);
  bool claim_latency_seen = false;
  for (const obs::HistogramSnapshot& histogram : snapshot.histograms)
    if (histogram.name == "rpc_latency.claim" && histogram.count >= 1)
      claim_latency_seen = true;
  EXPECT_TRUE(claim_latency_seen);

  server.stop();
}

#endif  // !defined(_WIN32)

// ---- byte identity --------------------------------------------------------

ScenarioResult run_grid_inference(const std::string& checkpoint_path) {
  const ScenarioSpec* spec =
      ScenarioRegistry::instance().find("grid-inference");
  EXPECT_NE(spec, nullptr);
  ParamSet params = spec->make_params();
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"policy", "tabular"},
           {"train-episodes", "200"},
           {"bers", "0.005"},
           {"repeats", "8"},
           {"seed", "11"}})
    params.set(key, value, ParamSource::kCli);
  ScenarioContext context;
  context.threads = 2;
  context.stream.checkpoint_path = checkpoint_path;
  return spec->factory(params)->run(context);
}

TEST(Telemetry, CampaignOutputsAreByteIdenticalWithTracingOn) {
  ScratchDir scratch("byte_identity");
  ASSERT_EQ(obs::trace(), nullptr);

  const ScenarioResult off = run_grid_inference(scratch.path + "/off.ckpt");

  const std::string trace_dir = scratch.path + "/telemetry";
  ScenarioResult on;
  {
    obs::TraceSession session(scratch.path + "/telemetry");
    const obs::LogLevel previous = obs::log_level();
    obs::set_log_level(obs::LogLevel::kDebug);
    on = run_grid_inference(scratch.path + "/on.ckpt");
    obs::set_log_level(previous);
  }

  // The invariant: campaign text, JSON artifacts, and checkpoint bytes
  // never see telemetry.
  EXPECT_EQ(on.text, off.text);
  ASSERT_EQ(on.artifacts.size(), off.artifacts.size());
  for (std::size_t i = 0; i < on.artifacts.size(); ++i) {
    EXPECT_EQ(on.artifacts[i].first, off.artifacts[i].first);
    EXPECT_EQ(on.artifacts[i].second, off.artifacts[i].second);
  }
  EXPECT_EQ(read_file(scratch.path + "/on.ckpt"),
            read_file(scratch.path + "/off.ckpt"));

  // Telemetry landed in the trace dir (and only there).
  const Json trace = parse_json_file(
      trace_dir + "/trace." + std::to_string(current_pid()) + ".json");
  EXPECT_FALSE(trace.at("traceEvents").items.empty());
}

}  // namespace
}  // namespace ftnav

// Tests for the scenario registry (src/scenario/): the ParamSet typed
// parameter system (types, validation, source precedence, canonical
// round-trip), the registry itself, and the core API contract — running
// a campaign through the registry produces byte-identical JSON and
// checkpoint output to calling the experiment driver directly, single
// process and under two distributed workers with a mid-campaign kill
// and resume.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/streaming.h"
#include "dist/tcp_transport.h"
#include "scenario/builtin_scenarios.h"
#include "scenario/param_set.h"
#include "scenario/scenario.h"
#include "util/env_config.h"
#include "util/rng.h"

namespace ftnav {
namespace {

// ---- ParamSet -------------------------------------------------------------

std::vector<ParamSpec> test_schema() {
  return {ParamSpec::integer("count", 4, "a count", 1, 100),
          ParamSpec::real("rate", 0.5, "a rate", 0.0, 1.0),
          ParamSpec::boolean("flag", false, "a flag"),
          ParamSpec::choice("mode", "fast", "a mode", {"fast", "slow"}),
          ParamSpec::double_list("axis", {0.1, 0.2}, "an axis", 0.0, 1.0),
          ParamSpec::int_list("points", {1, 2, 3}, "points", 0, 1000),
          ParamSpec::text("label", "x", "a label")};
}

TEST(ParamSet, DefaultsAndTypedGetters) {
  const ParamSet params{test_schema()};
  EXPECT_EQ(params.get_int("count"), 4);
  EXPECT_EQ(params.get_double("rate"), 0.5);
  EXPECT_FALSE(params.get_bool("flag"));
  EXPECT_EQ(params.get_string("mode"), "fast");
  EXPECT_EQ(params.get_double_list("axis"),
            (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(params.get_int_list("points"),
            (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(params.source_of("count"), ParamSource::kDefault);
}

TEST(ParamSet, UnknownKeysAreErrors) {
  ParamSet params{test_schema()};
  EXPECT_THROW(params.set("ocunt", "9", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.get_int("missing"), ParamError);
  EXPECT_THROW(params.apply_kv_text("count=9 typo=1", ParamSource::kCli),
               ParamError);
}

TEST(ParamSet, TypeMismatchesAreErrors) {
  const ParamSet params{test_schema()};
  EXPECT_THROW(params.get_double("count"), ParamError);
  EXPECT_THROW(params.get_int("rate"), ParamError);
  EXPECT_THROW(params.get_bool("mode"), ParamError);
  EXPECT_THROW(params.get_string("count"), ParamError);
  EXPECT_THROW(params.get_int_list("axis"), ParamError);
}

TEST(ParamSet, MalformedValuesAreErrors) {
  ParamSet params{test_schema()};
  EXPECT_THROW(params.set("count", "x", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("count", "4.5", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("count", "200", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("rate", "inf", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("rate", "nan", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("rate", "0.5s", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("rate", "1.5", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("flag", "maybe", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("mode", "medium", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("axis", "0.1,,0.2", ParamSource::kCli),
               ParamError);
  EXPECT_THROW(params.set("axis", "0.1,2.0", ParamSource::kCli),
               ParamError);
  // Empty lists are rejected: every list parameter is a sweep axis,
  // and an empty axis would drive campaigns into .front()/[0] UB.
  EXPECT_THROW(params.set("axis", "", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.set("points", "", ParamSource::kCli), ParamError);
  EXPECT_THROW(params.apply_json_text(R"({"axis": []})"), ParamError);
  EXPECT_THROW(params.set("label", "two words", ParamSource::kCli),
               ParamError);
  // Nothing half-applied.
  EXPECT_EQ(params.get_int("count"), 4);
  EXPECT_EQ(params.get_double("rate"), 0.5);
}

TEST(ParamSet, PrecedenceIsCliOverEnvOverJsonOverDefault) {
  // Ascending application order.
  ParamSet ascending{test_schema()};
  ascending.set("count", "10", ParamSource::kJson);
  ascending.set("count", "20", ParamSource::kEnv);
  ascending.set("count", "30", ParamSource::kCli);
  EXPECT_EQ(ascending.get_int("count"), 30);
  EXPECT_EQ(ascending.source_of("count"), ParamSource::kCli);

  // Descending application order: lower-ranked sources cannot clobber.
  ParamSet descending{test_schema()};
  descending.set("count", "30", ParamSource::kCli);
  descending.set("count", "20", ParamSource::kEnv);
  descending.set("count", "10", ParamSource::kJson);
  EXPECT_EQ(descending.get_int("count"), 30);

  // A lower-ranked *invalid* value is still an error.
  EXPECT_THROW(descending.set("count", "bogus", ParamSource::kJson),
               ParamError);

  // Ties overwrite (last --param wins).
  descending.set("count", "40", ParamSource::kCli);
  EXPECT_EQ(descending.get_int("count"), 40);
}

TEST(ParamSet, CanonicalRoundTripsAndNormalizes) {
  ParamSet params{test_schema()};
  params.set("count", "007", ParamSource::kCli);
  params.set("rate", "0.5000", ParamSource::kCli);
  params.set("flag", "1", ParamSource::kCli);
  params.set("axis", "0.30,0.4", ParamSource::kCli);
  EXPECT_EQ(params.canonical_value("count"), "7");
  EXPECT_EQ(params.canonical_value("rate"), "0.5");
  EXPECT_EQ(params.canonical_value("flag"), "true");
  EXPECT_EQ(params.canonical_value("axis"), "0.3,0.4");

  // Name-sorted k=v joined by spaces, defaults included.
  const std::string canonical = params.canonical();
  EXPECT_EQ(canonical,
            "axis=0.3,0.4 count=7 flag=true label=x mode=fast "
            "points=1,2,3 rate=0.5");

  // The canonical form parses back into an identical set (checkpoint
  // fingerprints and the dist worker command line rely on this).
  ParamSet reparsed{test_schema()};
  reparsed.apply_kv_text(canonical, ParamSource::kCli);
  EXPECT_EQ(reparsed.canonical(), canonical);
}

TEST(ParamSet, ShortestRoundTripDoubleFormatting) {
  EXPECT_EQ(param_format_double(0.005), "0.005");
  EXPECT_EQ(param_format_double(0.1), "0.1");
  EXPECT_EQ(param_format_double(1e-05), "1e-05");
  // The shortest string wins over the lowest precision that
  // round-trips ("3e+01" at %.1g), with ties going to the lower one.
  EXPECT_EQ(param_format_double(30.0), "30");
  EXPECT_EQ(param_format_double(10.0), "10");
  EXPECT_EQ(param_format_double(1000.0), "1000");
  EXPECT_EQ(param_format_double(0.0001), "0.0001");
  EXPECT_EQ(param_format_double(1e+20), "1e+20");
  EXPECT_EQ(param_format_double(100000.0), "1e+05");
  EXPECT_EQ(param_format_double(0.0), "0");
  EXPECT_EQ(param_format_double(-250.0), "-250");
  EXPECT_EQ(param_format_double(10000.0), "1e+04");  // a tie
  // Against the definition: the shortest %.*g string, precisions 1-17,
  // that round-trips, the lowest precision on a tie.
  const auto shortest = [](double value) {
    std::string best;
    char buffer[40];
    for (int precision = 1; precision <= 17; ++precision) {
      std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
      if (std::strtod(buffer, nullptr) == value &&
          (best.empty() || std::strlen(buffer) < best.size()))
        best = buffer;
    }
    return best;
  };
  Rng rng(17);
  std::vector<double> values;
  for (int e = -30; e <= 30; ++e) {
    const double power = std::pow(10.0, e);
    for (const double mantissa : {1.0, 1.5, 2.0, 2.5, 3.0, 9.9, 12.0, 99.0,
                                  123.0, 999.0, 1001.0, 123456789.0})
      values.push_back(mantissa * power);
  }
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<double>(rng.below(1000000)));
    values.push_back(rng.uniform(-1e6, 1e6));
    values.push_back(std::ldexp(rng.uniform(), static_cast<int>(rng.below(120)) - 60));
  }
  for (const double value : values) {
    ASSERT_EQ(param_format_double(value), shortest(value)) << value;
    ASSERT_EQ(param_format_double(-value), shortest(-value)) << -value;
  }
  const double third = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(param_format_double(third).c_str(), nullptr),
            third);
}

TEST(ParamSet, JsonObjectsApplyStrictly) {
  ParamSet params{test_schema()};
  params.apply_json_text(
      R"({"count": 7, "mode": "slow", "flag": true, "axis": [0.3, 0.4]})");
  EXPECT_EQ(params.get_int("count"), 7);
  EXPECT_EQ(params.get_string("mode"), "slow");
  EXPECT_TRUE(params.get_bool("flag"));
  EXPECT_EQ(params.get_double_list("axis"),
            (std::vector<double>{0.3, 0.4}));
  EXPECT_EQ(params.source_of("count"), ParamSource::kJson);

  EXPECT_THROW(params.apply_json_text(R"({"nope": 1})"), ParamError);
  EXPECT_THROW(params.apply_json_text(R"({"count": {"x": 1}})"),
               ParamError);
  EXPECT_THROW(params.apply_json_text(R"({"count": 1} trailing)"),
               ParamError);
  EXPECT_THROW(params.apply_json_text("not json"), ParamError);

  // CLI beats JSON regardless of order.
  params.set("count", "9", ParamSource::kCli);
  params.apply_json_text(R"({"count": 2})");
  EXPECT_EQ(params.get_int("count"), 9);
}

TEST(ParamSet, EnvVariablesApplyAtEnvRank) {
  EXPECT_EQ(ParamSet::env_name("detector-margin"),
            "FTNAV_DETECTOR_MARGIN");
  ::setenv("FTNAV_COUNT", "42", 1);
  ::setenv("FTNAV_RATE", "", 1);  // empty means unset
  ParamSet params{test_schema()};
  params.set("mode", "slow", ParamSource::kCli);
  EXPECT_EQ(params.apply_env(), 1);
  EXPECT_EQ(params.get_int("count"), 42);
  EXPECT_EQ(params.get_double("rate"), 0.5);
  EXPECT_EQ(params.source_of("count"), ParamSource::kEnv);
  ::unsetenv("FTNAV_COUNT");
  ::unsetenv("FTNAV_RATE");
}

TEST(ParamSet, BadSchemaIsRejected) {
  EXPECT_THROW(ParamSet({ParamSpec::integer("dup", 1, ""),
                         ParamSpec::integer("dup", 2, "")}),
               ParamError);
  EXPECT_THROW(ParamSet({ParamSpec::choice("c", "z", "", {"a", "b"})}),
               ParamError);
}

// ---- env knob diagnosis ---------------------------------------------------

TEST(EnvDiagnosis, UnknownFtnavVarsAreFlagged) {
  ::setenv("FTNAV_TYPO_KNOB", "1", 1);
  ::setenv("FTNAV_THREADS", "2", 1);  // declared harness knob
  const auto unknown = unknown_ftnav_vars(
      ScenarioRegistry::instance().known_param_env_names());
  EXPECT_NE(std::find(unknown.begin(), unknown.end(), "FTNAV_TYPO_KNOB"),
            unknown.end());
  EXPECT_EQ(std::find(unknown.begin(), unknown.end(), "FTNAV_THREADS"),
            unknown.end());
  // Scenario parameters (FTNAV_BERS, FTNAV_POLICY, ...) are known.
  ::setenv("FTNAV_BERS", "0.01", 1);
  const auto unknown2 = unknown_ftnav_vars(
      ScenarioRegistry::instance().known_param_env_names());
  EXPECT_EQ(std::find(unknown2.begin(), unknown2.end(), "FTNAV_BERS"),
            unknown2.end());
  ::unsetenv("FTNAV_TYPO_KNOB");
  ::unsetenv("FTNAV_THREADS");
  ::unsetenv("FTNAV_BERS");
  // Retired knobs are typos too: sharding, streaming and checkpointing
  // are `fault_campaign run` flags, every shard keeps resident engines
  // (FTNAV_TRIAL_BATCH chose how often to rebuild them), and benches
  // write no perf records (FTNAV_PERF_DIR, FTNAV_GIT_SHA).
  for (const char* name :
       {"FTNAV_PROGRESS", "FTNAV_CHECKPOINT_DIR", "FTNAV_RESUME",
        "FTNAV_WORKERS", "FTNAV_QUEUE_ADDR", "FTNAV_LEASE_BATCH",
        "FTNAV_WORKER_ID", "FTNAV_TRIAL_BATCH", "FTNAV_PERF_DIR",
        "FTNAV_GIT_SHA"}) {
    ::setenv(name, "1", 1);
    const auto retired = unknown_ftnav_vars(
        ScenarioRegistry::instance().known_param_env_names());
    EXPECT_NE(std::find(retired.begin(), retired.end(), name), retired.end())
        << name;
    ::unsetenv(name);
  }
}

// ---- registry -------------------------------------------------------------

TEST(Registry, ListsAreSortedAndComplete) {
  const auto all = ScenarioRegistry::instance().all();
  ASSERT_GE(all.size(), 16u);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1]->name, all[i]->name);
  // Every campaign family from src/experiments/ is addressable.
  for (const char* name :
       {"grid-inference", "grid-inference-mitigation",
        "grid-training-transient", "grid-training-permanent",
        "grid-convergence-transient", "grid-convergence-permanent",
        "grid-exploration-study", "grid-reward-curves",
        "grid-value-histogram", "drone-training", "drone-environments",
        "drone-fault-locations", "drone-layers", "drone-data-types",
        "drone-mitigation", "ablation-detector-margin"})
    EXPECT_NE(ScenarioRegistry::instance().find(name), nullptr) << name;
  EXPECT_EQ(ScenarioRegistry::instance().find("no-such-scenario"),
            nullptr);
}

TEST(Registry, EverySpecBindsAndDescribes) {
  for (const ScenarioSpec* spec : ScenarioRegistry::instance().all()) {
    const ParamSet params = spec->make_params();  // defaults must parse
    EXPECT_FALSE(params.canonical().empty()) << spec->name;
    EXPECT_FALSE(describe_scenario(*spec, false).empty()) << spec->name;
    EXPECT_FALSE(describe_scenario(*spec, true).empty()) << spec->name;
    EXPECT_NE(spec->factory, nullptr) << spec->name;
  }
}

/// Pulls the value of `"key": "..."` out of one schema-dump line.
/// describe_scenario_json emits one param object per line with fixed
/// field order, which this test (and external tooling) relies on.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string marker = "\"" + key + "\": \"";
  const std::size_t start = line.find(marker);
  if (start == std::string::npos) return {};
  const std::size_t begin = start + marker.size();
  const std::size_t end = line.find('"', begin);
  return line.substr(begin, end - begin);
}

TEST(Registry, DescribeJsonSchemaRoundTripsToCanonicalParams) {
  // The machine-readable schema dump is a *contract*: a ParamSet built
  // by feeding every dumped default back through set() must re-parse
  // to the same canonical() string the scenario's own defaults yield.
  for (const ScenarioSpec* spec : ScenarioRegistry::instance().all()) {
    const std::string json = describe_scenario_json(*spec);
    EXPECT_NE(json.find("\"name\": \"" + spec->name + "\""),
              std::string::npos)
        << spec->name;
    EXPECT_NE(json.find("\"params\": ["), std::string::npos) << spec->name;

    ParamSet rebuilt = spec->make_params();
    std::size_t dumped = 0;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string param = json_field(line, "name");
      if (param.empty() || param == spec->name) continue;
      ASSERT_FALSE(json_field(line, "type").empty())
          << spec->name << "." << param;
      rebuilt.set(param, json_field(line, "default"), ParamSource::kCli);
      ++dumped;
    }
    EXPECT_EQ(dumped, spec->params.size()) << spec->name;
    EXPECT_EQ(rebuilt.canonical(), spec->make_params().canonical())
        << spec->name;
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "dup";
  spec.summary = "s";
  spec.factory = [](const ParamSet&) -> std::unique_ptr<Scenario> {
    return nullptr;
  };
  registry.add(spec);
  EXPECT_THROW(registry.add(spec), std::logic_error);
}

// ---- registry path == direct driver path ----------------------------------

struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("ftnav_scenario_" + name))
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

/// Runs a registry scenario with overrides at CLI rank.
ScenarioResult run_registry(const std::string& name,
                            const std::vector<std::pair<std::string,
                                                        std::string>>& kv,
                            ScenarioContext& context) {
  const ScenarioSpec* spec = ScenarioRegistry::instance().find(name);
  EXPECT_NE(spec, nullptr) << name;
  ParamSet params = spec->make_params();
  for (const auto& [key, value] : kv)
    params.set(key, value, ParamSource::kCli);
  return spec->factory(params)->run(context);
}

const std::vector<std::pair<std::string, std::string>> kInferenceKv = {
    {"policy", "tabular"}, {"train-episodes", "200"},
    {"bers", "0.005"},     {"repeats", "8"},
    {"seed", "11"}};

InferenceCampaignConfig small_inference_config() {
  InferenceCampaignConfig config;
  config.kind = GridPolicyKind::kTabular;
  config.train_episodes = 200;
  config.bers = {0.005};
  config.repeats = 8;
  config.seed = 11;
  return config;
}

/// Two threads, checkpointing to `checkpoint_path`.
ScenarioContext checkpoint_context(const std::string& checkpoint_path) {
  ScenarioContext context;
  context.threads = 2;
  context.stream.checkpoint_path = checkpoint_path;
  return context;
}

TEST(RegistryContract, GridInferenceMatchesDirectCallByteForByte) {
  ScratchDir scratch("inference");
  // Direct driver call with a checkpoint.
  const InferenceCampaignConfig config = small_inference_config();
  const InferenceCampaignResult direct = run_inference_campaign(
      config, checkpoint_context(scratch.path + "/direct.ckpt"));
  const std::string direct_json = inference_campaign_json(config, direct);

  // Same campaign through the registry.
  ScenarioContext context = checkpoint_context(scratch.path + "/registry.ckpt");
  const ScenarioResult result =
      run_registry("grid-inference", kInferenceKv, context);

  ASSERT_EQ(result.artifacts.size(), 1u);
  EXPECT_EQ(result.artifacts[0].first, "campaign");
  EXPECT_EQ(result.artifacts[0].second, direct_json);
  EXPECT_EQ(read_file(scratch.path + "/registry.ckpt"),
            read_file(scratch.path + "/direct.ckpt"));
}

TrainingHeatmapConfig small_training_config() {
  TrainingHeatmapConfig config;
  config.kind = GridPolicyKind::kTabular;
  config.episodes = 150;
  config.bers = {0.005, 0.01};
  config.injection_episodes = {0, 75};
  config.repeats = 2;
  config.seed = 7;
  return config;
}

const std::vector<std::pair<std::string, std::string>> kTrainingKv = {
    {"policy", "tabular"},          {"episodes", "150"},
    {"bers", "0.005,0.01"},         {"injection-episodes", "0,75"},
    {"repeats", "2"},               {"seed", "7"}};

/// kTrainingKv without the injection axis, which only the transient
/// heatmap has (the permanent sweep faults from episode 0).
const std::vector<std::pair<std::string, std::string>> kPermanentKv = {
    {"policy", "tabular"},  {"episodes", "150"}, {"bers", "0.005,0.01"},
    {"repeats", "2"},       {"seed", "7"}};

TEST(RegistryContract, TrainingTransientRejectsUnreachedInjectionEpisodes) {
  // Training runs episodes 0..episodes-1 and injects on an exact match:
  // the default axis (0,250,500,750,999) on a 500-episode run would
  // print three fault-free columns. Binding rejects it, before any
  // output, and the error names the value.
  const ScenarioSpec* spec =
      ScenarioRegistry::instance().find("grid-training-transient");
  ASSERT_NE(spec, nullptr);
  ParamSet params = spec->make_params();
  params.set("episodes", "500", ParamSource::kCli);
  try {
    (void)spec->factory(params);
    FAIL() << "an injection episode >= episodes was accepted";
  } catch (const ParamError& error) {
    EXPECT_NE(std::string(error.what()).find("500"), std::string::npos)
        << error.what();
  }
  params.set("injection-episodes", "0,250,499", ParamSource::kCli);
  EXPECT_NO_THROW((void)spec->factory(params));

  TrainingHeatmapConfig config = small_training_config();
  config.injection_episodes = {0, config.episodes};
  EXPECT_THROW(run_transient_training_heatmap(config), std::invalid_argument);
}

TEST(RegistryContract, TrainingTransientMatchesDirectCallByteForByte) {
  ScratchDir scratch("transient");
  const HeatmapGrid direct = run_transient_training_heatmap(
      small_training_config(),
      checkpoint_context(scratch.path + "/direct.ckpt"));

  ScenarioContext context = checkpoint_context(scratch.path + "/registry.ckpt");
  const ScenarioResult result =
      run_registry("grid-training-transient", kTrainingKv, context);

  ASSERT_EQ(result.artifacts.size(), 1u);
  EXPECT_EQ(result.artifacts[0].second, direct.to_json(6));
  // The driver checkpoints the transient grid to "<path>.transient".
  EXPECT_EQ(read_file(scratch.path + "/registry.ckpt.transient"),
            read_file(scratch.path + "/direct.ckpt.transient"));
}

TEST(RegistryContract, TrainingPermanentMatchesDirectCallByteForByte) {
  ScratchDir scratch("permanent");
  const PermanentTrainingSweep direct = run_permanent_training_sweep(
      small_training_config(),
      checkpoint_context(scratch.path + "/direct.ckpt"));

  ScenarioContext context = checkpoint_context(scratch.path + "/registry.ckpt");
  const ScenarioResult result =
      run_registry("grid-training-permanent", kPermanentKv, context);

  ASSERT_EQ(result.artifacts.size(), 1u);
  EXPECT_EQ(result.artifacts[0].second, permanent_sweep_json(direct));
  EXPECT_EQ(read_file(scratch.path + "/registry.ckpt.permanent"),
            read_file(scratch.path + "/direct.ckpt.permanent"));
}

// ---- distributed: 2 workers, mid-campaign kill, resume, merge -------------

#if !defined(_WIN32)

/// Every file in `dir`, keyed by name.
std::map<std::string, std::string> read_dir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files[entry.path().filename().string()] =
        read_file(entry.path().string());
  return files;
}

TEST(RegistryContract, TwoWorkersWithKillResumeMatchSingleProcess) {
  // grid-inference runs one trial grid; grid-inference-mitigation runs
  // two arms in one process, each a runner call with its own queue and
  // its own "<path>.baseline" / "<path>.mitigated" checkpoint, so the
  // role applies to each call on its own and the kill lands in the
  // first arm.
  for (const std::string name :
       {"grid-inference", "grid-inference-mitigation"}) {
    SCOPED_TRACE(name);
    ScratchDir scratch("dist-" + name);
    const std::string reference_dir = scratch.path + "/reference";
    const std::string merged_dir = scratch.path + "/merged";
    std::filesystem::create_directories(reference_dir);
    std::filesystem::create_directories(merged_dir);
    // Single-process registry reference (checkpoints + JSON).
    ScenarioContext reference_context =
        checkpoint_context(reference_dir + "/run.ckpt");
    const ScenarioResult reference =
        run_registry(name, kInferenceKv, reference_context);

    TcpWorkServer server("127.0.0.1:0");
    server.start();
    const auto worker_context = [&](int id) {
      ScenarioContext context;
      context.threads = 2;
      context.stream.dist.worker_id = id;
      context.stream.dist.queue_addr = server.address();
      context.stream.dist.lease_expiry_seconds = 1.0;
      context.stream.dist.poll_period_seconds = 0.01;
      return context;
    };

    // Worker 0 is killed (gracefully, in-process) right after
    // committing its 2nd shard — inside the claim->done crash window:
    // the shard is in its partial checkpoint but the lease was never
    // released.
    {
      ScenarioContext context = worker_context(0);
      context.stream.dist.worker_stop_after_shards = 2;
      EXPECT_THROW(run_registry(name, kInferenceKv, context),
                   CampaignInterrupted);
    }

    // The coordinator's waitpid path reclaims the dead life's leases;
    // worker 0 respawns (resuming its published partial) while worker
    // 1 races it for the remaining shards.
    TcpQueueClient(server.address()).reclaim(0, 0.0);
    std::thread other([&] {
      ScenarioContext context = worker_context(1);
      EXPECT_NO_THROW((void)run_registry(name, kInferenceKv, context));
    });
    {
      ScenarioContext context = worker_context(0);
      EXPECT_NO_THROW((void)run_registry(name, kInferenceKv, context));
    }
    other.join();

    // Coordinator finalize through the registry: merge the partials
    // and produce the standard result without re-running trials.
    ScenarioContext finalize_context =
        checkpoint_context(merged_dir + "/run.ckpt");
    finalize_context.stream.dist.workers = 2;
    finalize_context.stream.dist.queue_addr = server.address();
    const ScenarioResult merged =
        run_registry(name, kInferenceKv, finalize_context);

    EXPECT_EQ(merged.text, reference.text);
    EXPECT_EQ(merged.to_json(), reference.to_json());
    const std::map<std::string, std::string> reference_files =
        read_dir(reference_dir);
    const std::map<std::string, std::string> merged_files =
        read_dir(merged_dir);
    EXPECT_EQ(reference_files.size(),
              name == "grid-inference" ? 1u : 2u);
    ASSERT_EQ(merged_files.size(), reference_files.size());
    for (const auto& [file, bytes] : reference_files) {
      ASSERT_EQ(merged_files.count(file), 1u) << file;
      EXPECT_EQ(merged_files.at(file), bytes) << file;
    }
  }
}

#endif  // !defined(_WIN32)

}  // namespace
}  // namespace ftnav

// Whole-catalog golden digests: the repo's byte-identity promise,
// checked for every registered scenario on every run.
//
// Each point below is one small parameter set of one scenario (grid
// scenarios with a `policy` parameter get one point per policy). The
// test runs every point through the registry four times — scalar and
// native ("auto") kernel backends, 1 and 4 campaign threads — and
// hashes each run (io::fnv1a) twice: the outputs digest covers the
// canonical parameters, the stdout text and the JSON artifacts; the
// checkpoints digest covers every checkpoint file the run writes, in
// name order. Kept apart, a change that moves only checkpoint bytes on
// purpose (a new trial layout) still shows that no output byte moved.
// All four runs must agree on both, and on x86-64 they must equal the
// committed digests. Engine residency needs no setting of its own: a
// fault that leaked from one trial into the next would move these
// bytes.
//
// A change that moves bytes on purpose: run this test, paste the
// replacement table it prints over kGoldenPoints, and say in
// CHANGES.md which digests moved and why.
//
// The same points also check that every scenario backed by the
// campaign runner honors the execution context: asked to stop after
// one shard, it must checkpoint and throw CampaignInterrupted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "campaign/streaming.h"
#include "nn/kernels/kernels.h"
#include "scenario/scenario.h"
#include "util/binary_io.h"

namespace ftnav {
namespace {

struct GoldenPoint {
  const char* scenario;
  const char* params;  ///< "k=v ..." over the scenario's defaults
  std::uint64_t outputs;      ///< parameters, stdout and JSON
  std::uint64_t checkpoints;  ///< every checkpoint file, in name order
};

// clang-format off
const GoldenPoint kGoldenPoints[] = {
    {"ablation-detector-margin", "margins=0,0.1 ber=0.002 train-episodes=300 repeats=32 seed=3", 0xd1da6c0e6448f6d3ULL, 0xd23c5894014af174ULL},
    {"drone-data-types", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0.01 repeats=3 seed=5", 0xab0a380e33d68bd5ULL, 0x9ad99868f9ab4318ULL},
    {"drone-data-types", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0xca56bebf5ca3a2c7ULL, 0xd29973ad130f02d0ULL},
    {"drone-environments", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0x5232530d62a8804dULL, 0xcee488a92969f550ULL},
    {"drone-fault-locations", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0.01 repeats=3 seed=5", 0x896c31f4fad1e0e1ULL, 0x2a623c53fcb9e645ULL},
    {"drone-fault-locations", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0xe2183cdd96bfa4bfULL, 0x3cc0d4a25aa3fd1aULL},
    {"drone-layers", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0.01 repeats=3 seed=5", 0xb11ed147e25e6fbbULL, 0x83fba81af85e5f50ULL},
    {"drone-layers", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0x901e8eb3900eac1bULL, 0xdb91e9eb6733d992ULL},
    {"drone-mitigation", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0x3f6aee9dbf27b4b7ULL, 0xc70a42a0f951d765ULL},
    {"drone-training", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0.01 injection-points=0.5 fine-tune-episodes=1 eval-repeats=1 seed=5", 0x1f89441a97527eccULL, 0xe458196ebeea922cULL},
    {"grid-convergence-permanent", "policy=tabular bers=0.005,0.01 early-episode=100 late-episode=300 extra-episodes=200 repeats=2 seed=3", 0x21a469eebde9a4aaULL, 0x1cf42a55c8fca0bfULL},
    {"grid-convergence-permanent", "policy=nn bers=0.001 early-episode=100 late-episode=300 extra-episodes=100 repeats=1 seed=3", 0x391dd4a312028f19ULL, 0x3317bee0da22c430ULL},
    {"grid-convergence-transient", "policy=tabular bers=0.005,0.01 fault-episode=200 max-extra-episodes=300 repeats=2 seed=3", 0xe10f7e8fd9540631ULL, 0xe276c669cc45598fULL},
    {"grid-convergence-transient", "policy=nn bers=0.005 fault-episode=200 max-extra-episodes=300 repeats=2 seed=3", 0xd3394debfe297fafULL, 0x57a6baf75074581fULL},
    {"grid-exploration-study", "policy=tabular bers=0.005,0.01 episodes=300 repeats=2 seed=3", 0xb86105e7ceb95a3aULL, 0xdec2f62b8f33496fULL},
    {"grid-exploration-study", "policy=nn bers=0.005 episodes=300 repeats=1 seed=3", 0xc61f37e59f536ca9ULL, 0x0985134d7fb93409ULL},
    {"grid-inference", "policy=tabular train-episodes=300 bers=0,0.01 repeats=16 seed=3", 0xaf1a744227761b95ULL, 0xee10001de82d7322ULL},
    {"grid-inference", "policy=nn train-episodes=300 bers=0,0.01 repeats=16 seed=3", 0x375b910c0a947a18ULL, 0xeb4d3478a9036efaULL},
    {"grid-inference-mitigation", "policy=tabular train-episodes=300 bers=0,0.01 repeats=16 seed=3", 0xb232b1c90e5fe8a2ULL, 0xc8fb7302f04a7f3bULL},
    {"grid-inference-mitigation", "policy=nn train-episodes=300 bers=0,0.01 repeats=16 seed=3", 0x96558443b78d5143ULL, 0x327cd638a89d99a9ULL},
    {"grid-reward-curves", "policy=tabular episodes=300 seed=3", 0xf483b3bba97d4804ULL, 0xcbf29ce484222325ULL},
    {"grid-reward-curves", "policy=nn episodes=200 seed=4", 0x9dc962a424479e9dULL, 0xcbf29ce484222325ULL},
    {"grid-training-permanent", "policy=tabular episodes=400 bers=0.001,0.01 repeats=4 seed=3", 0xd221688f30a14fd5ULL, 0xa3246edec5c69643ULL},
    {"grid-training-permanent", "policy=nn episodes=400 bers=0.001 repeats=1 seed=3", 0x4e6ff8e272e0d38dULL, 0x38a9ce16d42538faULL},
    {"grid-training-transient", "policy=tabular episodes=400 bers=0.005,0.01 injection-episodes=0,200,399 repeats=4 mitigate=true seed=3", 0xf17291e55a970f9aULL, 0x5804823fc6d81e7aULL},
    {"grid-training-transient", "policy=nn episodes=400 bers=0.001 injection-episodes=0,200 repeats=1 seed=1", 0x32452fa5e4f57189ULL, 0xbd97dbc9aa35989dULL},
    {"grid-value-histogram", "policy=tabular episodes=300 seed=3", 0x12c830da136cbb36ULL, 0xcbf29ce484222325ULL},
    {"grid-value-histogram", "policy=nn episodes=300 seed=3", 0x6a7f8e9208023a0eULL, 0xcbf29ce484222325ULL},
};
// clang-format on

#if defined(__x86_64__) || defined(_M_X64)
constexpr bool kDigestsApply = true;
#else
constexpr bool kDigestsApply = false;
#endif

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

struct RunDigests {
  std::uint64_t outputs = 0;
  std::uint64_t checkpoints = 0;

  bool operator==(const RunDigests&) const = default;
};

/// Runs one point under the current backend and `threads`, and hashes
/// everything it produced. Checkpoints land in a fresh directory so
/// the checkpoints digest covers exactly the files this run wrote.
RunDigests run_digests(const ScenarioSpec& spec, const ParamSet& params,
                       int threads) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ftnav_golden_digests_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScenarioContext context;
  context.threads = threads;
  context.stream.checkpoint_path = (dir / "run.ckpt").string();
  const ScenarioResult result = spec.factory(params)->run(context);

  const std::string outputs = params.canonical() + '\0' + result.text +
                              '\0' + result.to_json() + '\0';
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  std::string checkpoints;
  for (const std::filesystem::path& file : files)
    checkpoints += file.filename().string() + '\0' + read_bytes(file) + '\0';
  std::filesystem::remove_all(dir);
  return {io::fnv1a(outputs), io::fnv1a(checkpoints)};
}

std::string point_label(const GoldenPoint& point) {
  return std::string(point.scenario) + " " + point.params;
}

TEST(GoldenDigests, EveryScenarioMatchesItsCommittedDigest) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();

  // Coverage: one point per scenario, and per policy where a scenario
  // chooses between policies.
  std::set<std::pair<std::string, std::string>> covered;
  for (const GoldenPoint& point : kGoldenPoints) {
    const ScenarioSpec* spec = registry.find(point.scenario);
    ASSERT_NE(spec, nullptr) << "unregistered scenario " << point.scenario;
    ParamSet params = spec->make_params();
    params.apply_kv_text(point.params, ParamSource::kCli);
    bool has_policy = false;
    for (const ParamSpec& param : spec->params)
      has_policy = has_policy || param.name == "policy";
    covered.emplace(point.scenario,
                    has_policy ? params.get_string("policy") : "");
  }
  for (const ScenarioSpec* spec : registry.all()) {
    std::vector<std::string> variants = {""};
    for (const ParamSpec& param : spec->params)
      if (param.name == "policy") variants = param.choices;
    for (const std::string& variant : variants)
      EXPECT_TRUE(covered.count({spec->name, variant}))
          << "scenario " << spec->name
          << (variant.empty() ? "" : " policy=" + variant)
          << " has no golden point";
  }

  const kernels::KernelOps& native = kernels::resolve_backend("auto");
  const struct {
    const char* name;
    const kernels::KernelOps* ops;
  } backends[] = {{"scalar", &kernels::scalar_ops()}, {"auto", &native}};

  std::string table;
  bool any_mismatch = false;
  for (const GoldenPoint& point : kGoldenPoints) {
    const ScenarioSpec& spec = *registry.find(point.scenario);
    ParamSet params = spec.make_params();
    params.apply_kv_text(point.params, ParamSource::kCli);
    RunDigests reference;
    bool first = true;
    for (const auto& backend : backends) {
      const kernels::ScopedKernelBackend pin(*backend.ops);
      for (int threads : {1, 4}) {
        const RunDigests digests = run_digests(spec, params, threads);
        if (first) reference = digests;
        first = false;
        EXPECT_TRUE(digests == reference)
            << point_label(point) << ": backend " << backend.name
            << " threads " << threads
            << " differs from backend scalar threads 1";
      }
    }
    if (kDigestsApply && reference.outputs != point.outputs) {
      any_mismatch = true;
      ADD_FAILURE() << point_label(point) << ": outputs digest 0x"
                    << std::hex << reference.outputs << ", committed 0x"
                    << point.outputs;
    }
    if (kDigestsApply && reference.checkpoints != point.checkpoints) {
      any_mismatch = true;
      ADD_FAILURE() << point_label(point) << ": checkpoints digest 0x"
                    << std::hex << reference.checkpoints << ", committed 0x"
                    << point.checkpoints;
    }
    char line[64];
    std::snprintf(line, sizeof line,
                  "0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL",
                  reference.outputs, reference.checkpoints);
    table += "    {\"" + std::string(point.scenario) + "\", \"" +
             point.params + "\", " + line + "},\n";
  }
  if (any_mismatch)
    ADD_FAILURE() << "replacement table for kGoldenPoints:\n" << table;
  if (!kDigestsApply)
    std::printf(
        "note: committed digests are x86-64 values; skipped them and "
        "checked only that backends and thread counts agree\n");
}

TEST(GoldenDigests, EveryRunnerBackedScenarioStopsOnRequest) {
  // The only scenarios that run no streamed campaign: grid-reward-curves
  // trains its five curves as a set-up loop (CampaignRunner::for_each;
  // per-episode return traces are not trivially copyable, so there is
  // no checkpoint payload), and grid-value-histogram is a single
  // training run.
  const std::set<std::string> not_streamed = {"grid-reward-curves",
                                              "grid-value-histogram"};
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ftnav_golden_stop_" + std::to_string(::getpid()));
  for (const GoldenPoint& point : kGoldenPoints) {
    const ScenarioSpec& spec = *registry.find(point.scenario);
    ParamSet params = spec.make_params();
    params.apply_kv_text(point.params, ParamSource::kCli);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ScenarioContext context;
    context.threads = 1;
    context.stream.checkpoint_path = (dir / "run.ckpt").string();
    context.stream.stop_after_shards = 1;
    bool interrupted = false;
    try {
      (void)spec.factory(params)->run(context);
    } catch (const CampaignInterrupted&) {
      interrupted = true;
    }
    bool checkpointed = false;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      checkpointed = checkpointed || entry.path().extension() != ".tmp";
    if (not_streamed.count(point.scenario)) {
      EXPECT_FALSE(interrupted) << point_label(point);
      EXPECT_FALSE(checkpointed) << point_label(point);
    } else {
      EXPECT_TRUE(interrupted)
          << point_label(point) << ": ran past stop_after_shards = 1";
      EXPECT_TRUE(checkpointed)
          << point_label(point) << ": left no checkpoint";
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ftnav

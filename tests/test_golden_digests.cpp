// Whole-catalog golden digests: the repo's byte-identity promise,
// checked for every registered scenario on every run.
//
// Each point below is one small parameter set of one scenario (grid
// scenarios with a `policy` parameter get one point per policy). The
// test runs every point through the registry four times — scalar and
// native ("auto") kernel backends, 1 and 4 campaign threads — and
// hashes each run (io::fnv1a) over the canonical parameters, the
// stdout text, the JSON artifacts and every checkpoint file the run
// writes, in name order. All four runs must agree, and on x86-64 they
// must equal the committed digest. Engine residency needs no setting
// of its own: a fault that leaked from one trial into the next would
// move these bytes.
//
// A change that moves bytes on purpose: run this test, paste the
// replacement table it prints over kGoldenPoints, and say in
// CHANGES.md why the bytes moved.
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
  std::uint64_t digest;
};

// clang-format off
const GoldenPoint kGoldenPoints[] = {
    {"ablation-detector-margin", "margins=0,0.1 ber=0.002 train-episodes=300 repeats=32 seed=3", 0x1bd3b4df7ab5e77eULL},
    {"drone-data-types", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0.01 repeats=3 seed=5", 0x363a6c5156c7454bULL},
    {"drone-data-types", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0xe2699d1d41f1bf1cULL},
    {"drone-environments", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0xd22a842afc35d93bULL},
    {"drone-fault-locations", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0.01 repeats=3 seed=5", 0x4925204e60a035a9ULL},
    {"drone-fault-locations", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0xe05ca6f2881d0586ULL},
    {"drone-layers", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0.01 repeats=3 seed=5", 0xa683d2c07c6ab608ULL},
    {"drone-layers", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0x3eba95d2cece8c83ULL},
    {"drone-mitigation", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0,0.01 repeats=3 seed=5", 0xd39d952d7165daf2ULL},
    {"drone-training", "imitation-episodes=2 ddqn-episodes=1 env-max-steps=40 env-max-distance=30 bers=0.01 injection-points=0.5 fine-tune-episodes=1 eval-repeats=1 seed=5", 0x5d873abe6e21a2d3ULL},
    {"grid-convergence-permanent", "policy=tabular bers=0.005,0.01 early-episode=100 late-episode=300 extra-episodes=200 repeats=2 seed=3", 0xec8be933f7c28220ULL},
    {"grid-convergence-permanent", "policy=nn bers=0.001 early-episode=100 late-episode=300 extra-episodes=100 repeats=1 seed=3", 0x0ae3eff38c43ceccULL},
    {"grid-convergence-transient", "policy=tabular bers=0.005,0.01 fault-episode=200 max-extra-episodes=300 repeats=2 seed=3", 0xb5c54b1b45f81d4bULL},
    {"grid-convergence-transient", "policy=nn bers=0.005 fault-episode=200 max-extra-episodes=300 repeats=2 seed=3", 0x3bfcef01f8148d41ULL},
    {"grid-exploration-study", "policy=tabular bers=0.005,0.01 episodes=300 repeats=2 seed=3", 0xfa04621e655ca168ULL},
    {"grid-exploration-study", "policy=nn bers=0.005 episodes=300 repeats=1 seed=3", 0x191c8c4b0d8fb465ULL},
    {"grid-inference", "policy=tabular train-episodes=300 bers=0,0.01 repeats=16 seed=3", 0x458670f846c5ead2ULL},
    {"grid-inference", "policy=nn train-episodes=300 bers=0,0.01 repeats=16 seed=3", 0xb688960dbc9634c7ULL},
    {"grid-inference-mitigation", "policy=tabular train-episodes=300 bers=0,0.01 repeats=16 seed=3", 0x1c2829e70a8c97f6ULL},
    {"grid-inference-mitigation", "policy=nn train-episodes=300 bers=0,0.01 repeats=16 seed=3", 0xf3d39b698c094317ULL},
    {"grid-reward-curves", "policy=tabular episodes=300 seed=3", 0xf483b3bba97d4804ULL},
    {"grid-reward-curves", "policy=nn episodes=200 seed=4", 0x9dc962a424479e9dULL},
    {"grid-training-permanent", "policy=tabular episodes=400 bers=0.001,0.01 repeats=4 seed=3", 0x3c39d7c33715f0b3ULL},
    {"grid-training-permanent", "policy=nn episodes=400 bers=0.001 repeats=1 seed=3", 0x451e4e87f50b3672ULL},
    {"grid-training-transient", "policy=tabular episodes=400 bers=0.005,0.01 injection-episodes=0,200,399 repeats=4 mitigate=true seed=3", 0xc088352e2be0eac9ULL},
    {"grid-training-transient", "policy=nn episodes=400 bers=0.001 injection-episodes=0,200 repeats=1 seed=1", 0xbc648fdc3d2d5c69ULL},
    {"grid-value-histogram", "policy=tabular episodes=300 seed=3", 0x12c830da136cbb36ULL},
    {"grid-value-histogram", "policy=nn episodes=300 seed=3", 0x6a7f8e9208023a0eULL},
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

/// Runs one point under the current backend and `threads`, and hashes
/// everything it produced. Checkpoints land in a fresh directory so
/// the digest covers exactly the files this run wrote.
std::uint64_t run_digest(const ScenarioSpec& spec, const ParamSet& params,
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

  std::string bytes = params.canonical() + '\0' + result.text + '\0' +
                      result.to_json() + '\0';
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& file : files)
    bytes += file.filename().string() + '\0' + read_bytes(file) + '\0';
  std::filesystem::remove_all(dir);
  return io::fnv1a(bytes);
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
    std::uint64_t reference = 0;
    bool first = true;
    for (const auto& backend : backends) {
      const kernels::ScopedKernelBackend pin(*backend.ops);
      for (int threads : {1, 4}) {
        const std::uint64_t digest = run_digest(spec, params, threads);
        if (first) reference = digest;
        first = false;
        EXPECT_EQ(digest, reference)
            << point_label(point) << ": backend " << backend.name
            << " threads " << threads
            << " differs from backend scalar threads 1";
      }
    }
    if (kDigestsApply && reference != point.digest) {
      any_mismatch = true;
      ADD_FAILURE() << point_label(point) << ": digest 0x" << std::hex
                    << reference << ", committed 0x" << point.digest;
    }
    char line[32];
    std::snprintf(line, sizeof line, "0x%016" PRIx64 "ULL", reference);
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

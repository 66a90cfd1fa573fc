#pragma once
// Shard-resident engines for campaign fault trials.
//
// A campaign shard builds each QuantizedInferenceEngine it needs once
// and reuses it for every trial it runs: faults are armed via
// inject_* and undone by reset_faults()'s golden-image word restore,
// so construction (float re-encode of every parameter, program
// compilation) is paid once per shard instead of once per trial.
//
// Residency is bit-transparent by construction: reset_faults()
// restores the golden weight words and clears every dynamic fault
// knob, so trial N+1 on a resident engine starts from exactly the
// state a fresh engine would have (see
// QuantizedEngine.PersistentEngineMatchesFreshEngine in
// tests/test_quantized_engine.cpp; a leak between trials would also
// move the whole-catalog digests in tests/test_golden_digests.cpp).
// The one observable difference — a resident detector's detections()
// counter accumulates across trials — is the caller's to handle by
// reading per-trial deltas.
//
// Engines and caches live in the campaign runner's per-shard scratch
// (campaign_runner.h), never in accumulators or checkpointed state:
// they are runtime-only, and merged campaign artifacts never depend on
// them.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "nn/quantized_engine.h"

namespace ftnav {

/// Always 0, the resident-engine policy every campaign uses. Kept so
/// callers that record the policy (perfbench's workload fingerprint)
/// still compile.
inline int resolve_trial_batch(int /*config_value*/) { return 0; }

/// Resident engines keyed by row configuration. Keys are the caller's
/// notion of "rows that need distinct engines" (sweep row for a
/// QFormat sweep, environment index, mitigated flag, ...) and are
/// expected to be small and dense.
class EngineCache {
 public:
  /// The engine at `key`, built via `build` (which returns a
  /// unique_ptr) on first use.
  template <typename BuildFn>
  QuantizedInferenceEngine& acquire(std::size_t key, BuildFn&& build) {
    if (key >= engines_.size()) engines_.resize(key + 1);
    if (!engines_[key]) engines_[key] = std::forward<BuildFn>(build)();
    return *engines_[key];
  }

 private:
  std::vector<std::unique_ptr<QuantizedInferenceEngine>> engines_;
};

}  // namespace ftnav

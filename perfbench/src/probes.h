#pragma once
// Layer probes of the campaign benchmark: a fixed sample of a
// workload's own work, replayed by calling each ftnav module's public
// functions from benchmark code under obs::TraceSpan. Nothing here is
// instrumentation inside src/; the spans sit around the public calls.
//
// Span names are "<layer>.<what>" (rl.mlp_episode, nn.kernels.conv1,
// envs.drone_step, ...). A span may carry an integer arg "n": the
// number of calls (or words) it covers, so per-call cost is the span's
// self time divided by the summed n. run.py turns the trace plus the
// counts returned here into the benchmark's per-layer metrics.

#include <string>

#include "scenario/param_set.h"
#include "scenario/scenario.h"

namespace perfbench {

struct ProbeRequest {
  const ftnav::ScenarioSpec& spec;
  const ftnav::ParamSet& params;
  int threads = 1;
};

/// Runs every probe group (each on its own thread, so each gets a full
/// trace buffer) and returns the JSON members `"counts": {...},
/// "work": {...}, "trace_dropped": n` — counts recorded at the span
/// boundaries and the computed MACs / bytes per call of the NN probes.
std::string run_probes(const ProbeRequest& request);

}  // namespace perfbench

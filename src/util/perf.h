#pragma once
// Process-global perf-section sink: library code reports how long a
// measured phase took (e.g. the fault-injection trial grid, excluding
// policy training). Two readers drain it: perfbench/ derives a run's
// setup_s and trials_per_s from the sections, and tests/test_cost.cpp
// joins them with the cost model's campaign labels.
//
// Reporting is unconditional and costs one mutexed append per campaign
// (not per trial); when nothing drains the sink the entries are simply
// dropped at exit. Nothing here ever reaches stdout or the diffed
// FTNAV_JSON_DIR artifacts, so perf timing can never break
// byte-for-byte output equivalence checks.

#include <cstdint>
#include <string>
#include <vector>

namespace ftnav::perf {

struct Section {
  std::string name;
  std::uint64_t ops = 0;
  double seconds = 0.0;
};

/// Monotonic wall clock in seconds (steady_clock).
double now();

/// Accumulates `ops` and `seconds` into the section `name` (sections
/// with the same name merge; a campaign run twice reports once with
/// the summed totals). Thread-safe.
void add_section(const std::string& name, std::uint64_t ops, double seconds);

/// Returns all accumulated sections in first-report order and clears
/// the sink. Thread-safe.
std::vector<Section> drain_sections();

}  // namespace ftnav::perf

#include "cost/cost_model.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "campaign/campaign_runner.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "nn/tensor.h"
#include "util/table.h"

namespace ftnav::cost {
namespace {

std::string g17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Short human figure: "519.0k", "1.23G" -- describe --cost only.
std::string human(double value) {
  const char* suffix = "";
  if (value >= 1e9) {
    value /= 1e9;
    suffix = "G";
  } else if (value >= 1e6) {
    value /= 1e6;
    suffix = "M";
  } else if (value >= 1e3) {
    value /= 1e3;
    suffix = "k";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.3g%s", value, suffix);
  return buffer;
}

std::string seconds_text(double seconds) {
  char buffer[64];
  if (seconds >= 100.0)
    std::snprintf(buffer, sizeof buffer, "%.0f s", seconds);
  else if (seconds >= 0.1)
    std::snprintf(buffer, sizeof buffer, "%.2f s", seconds);
  else
    std::snprintf(buffer, sizeof buffer, "%.2f ms", seconds * 1e3);
  return buffer;
}

void json_escape_into(std::ostringstream& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

// ---- Work ---------------------------------------------------------------

Work& Work::operator+=(const Work& other) noexcept {
  macs += other.macs;
  bytes += other.bytes;
  grid_steps += other.grid_steps;
  drone_steps += other.drone_steps;
  return *this;
}

Work Work::scaled(double factor) const noexcept {
  return Work{macs * factor, bytes * factor, grid_steps * factor,
              drone_steps * factor};
}

double Work::seconds(const MachineProfile& profile) const noexcept {
  return macs / profile.mac_rate + bytes / profile.byte_rate +
         grid_steps / profile.grid_step_rate +
         drone_steps / profile.drone_step_rate;
}

bool Work::finite() const noexcept {
  return std::isfinite(macs) && std::isfinite(bytes) &&
         std::isfinite(grid_steps) && std::isfinite(drone_steps) &&
         macs >= 0.0 && bytes >= 0.0 && grid_steps >= 0.0 &&
         drone_steps >= 0.0;
}

// ---- CampaignCost -------------------------------------------------------

std::size_t CampaignCost::shard_count() const noexcept {
  return trials == 0 ? 0 : stream_shard_count(trials);
}

double CampaignCost::seconds(const MachineProfile& profile) const noexcept {
  const double count = static_cast<double>(trials);
  return per_trial.seconds(profile) * count +
         profile.trial_overhead_seconds * count;
}

double CampaignCost::mean_shard_seconds(
    const MachineProfile& profile) const noexcept {
  const std::size_t shards = shard_count();
  if (shards == 0) return 0.0;
  return seconds(profile) / static_cast<double>(shards);
}

// ---- CostEstimate -------------------------------------------------------

std::size_t CostEstimate::total_trials() const noexcept {
  std::size_t total = 0;
  for (const CampaignCost& campaign : campaigns) total += campaign.trials;
  return total;
}

Work CostEstimate::total_work() const noexcept {
  Work total = setup;
  for (const CampaignCost& campaign : campaigns)
    total += campaign.per_trial.scaled(static_cast<double>(campaign.trials));
  return total;
}

double CostEstimate::setup_seconds(
    const MachineProfile& profile) const noexcept {
  return setup.seconds(profile);
}

double CostEstimate::total_seconds(
    const MachineProfile& profile) const noexcept {
  double total = setup_seconds(profile);
  for (const CampaignCost& campaign : campaigns)
    total += campaign.seconds(profile);
  return total;
}

double CostEstimate::mean_shard_seconds(
    const MachineProfile& profile) const noexcept {
  double seconds = 0.0;
  double weight = 0.0;
  for (const CampaignCost& campaign : campaigns) {
    if (campaign.trials == 0) continue;
    const double trials = static_cast<double>(campaign.trials);
    seconds += campaign.mean_shard_seconds(profile) * trials;
    weight += trials;
  }
  return weight > 0.0 ? seconds / weight : 0.0;
}

bool CostEstimate::finite() const noexcept {
  if (!setup.finite()) return false;
  for (const CampaignCost& campaign : campaigns)
    if (!campaign.per_trial.finite()) return false;
  return true;
}

// ---- NN accounting ------------------------------------------------------

Work network_forward_work(const Network& net, const Shape& input,
                          double word_bytes) {
  Work work;
  Shape shape = input;
  work.bytes += static_cast<double>(shape.element_count()) * word_bytes;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const Layer& layer = net.layer(i);
    const Shape out = layer.output_shape(shape);
    const double out_elements = static_cast<double>(out.element_count());
    switch (layer.kind()) {
      case LayerKind::kConv2D: {
        const auto& conv = static_cast<const Conv2D&>(layer);
        const double taps = static_cast<double>(conv.in_channels()) *
                            conv.kernel() * conv.kernel();
        work.macs += out_elements * taps;
        break;
      }
      case LayerKind::kDense: {
        const auto& dense = static_cast<const Dense&>(layer);
        work.macs += static_cast<double>(dense.in_features()) *
                     static_cast<double>(dense.out_features());
        break;
      }
      case LayerKind::kMaxPool2D:
      case LayerKind::kReLU:
      case LayerKind::kFlatten:
        break;  // element-wise / reshaping: bytes only
    }
    work.bytes += out_elements * word_bytes;
    shape = out;
  }
  // Weights stream through once per forward.
  work.bytes += static_cast<double>(net.parameter_count()) * word_bytes;
  return work;
}

Work network_update_work(const Network& net, const Shape& input,
                         double word_bytes) {
  return network_forward_work(net, input, word_bytes).scaled(3.0);
}

double inject_restore_bytes(std::size_t parameter_count,
                            double word_bytes) noexcept {
  return 2.0 * static_cast<double>(parameter_count) * word_bytes;
}

// ---- rendering ----------------------------------------------------------

std::string describe_cost_text(const CostReportEntry& entry,
                               const MachineProfile& profile) {
  std::ostringstream out;
  const CostEstimate& est = entry.estimate;
  const Work total = est.total_work();
  out << "cost (" << entry.scenario << ")\n";
  out << "  params: " << entry.params << "\n";
  out << "  trials: " << est.total_trials() << "   macs: "
      << human(total.macs) << "   bytes: " << human(total.bytes)
      << "   env steps: " << human(total.grid_steps + total.drone_steps)
      << "\n";
  out << "  predicted: " << seconds_text(est.total_seconds(profile))
      << " single-thread (setup "
      << seconds_text(est.setup_seconds(profile)) << " + trials "
      << seconds_text(est.total_seconds(profile) -
                      est.setup_seconds(profile))
      << ")\n";
  if (!est.campaigns.empty()) {
    Table table({"campaign", "trials", "shards", "macs/trial",
                 "predicted", "per shard"});
    for (const CampaignCost& campaign : est.campaigns) {
      table.add_row({campaign.label, std::to_string(campaign.trials),
                     std::to_string(campaign.shard_count()),
                     human(campaign.per_trial.macs),
                     seconds_text(campaign.seconds(profile)),
                     seconds_text(campaign.mean_shard_seconds(profile))});
    }
    std::istringstream lines(table.render());
    for (std::string line; std::getline(lines, line);)
      out << "    " << line << "\n";
  }
  return out.str();
}

std::string cost_report_json(const std::vector<CostReportEntry>& entries,
                             const MachineProfile& profile) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"ftnav-cost-report-v1\",\n";
  out << "  \"profile\": {\"mac_rate\": " << g17(profile.mac_rate)
      << ", \"byte_rate\": " << g17(profile.byte_rate)
      << ", \"grid_step_rate\": " << g17(profile.grid_step_rate)
      << ", \"drone_step_rate\": " << g17(profile.drone_step_rate)
      << ", \"trial_overhead_seconds\": "
      << g17(profile.trial_overhead_seconds) << "},\n";
  out << "  \"scenarios\": [";
  bool first_scenario = true;
  for (const CostReportEntry& entry : entries) {
    if (!first_scenario) out << ",";
    first_scenario = false;
    const CostEstimate& est = entry.estimate;
    const Work total = est.total_work();
    out << "\n    {\"name\": \"";
    json_escape_into(out, entry.scenario);
    out << "\", \"params\": \"";
    json_escape_into(out, entry.params);
    out << "\",\n     \"trials\": " << est.total_trials()
        << ", \"macs\": " << g17(total.macs) << ", \"bytes\": "
        << g17(total.bytes) << ", \"grid_steps\": " << g17(total.grid_steps)
        << ", \"drone_steps\": " << g17(total.drone_steps)
        << ",\n     \"setup_seconds\": " << g17(est.setup_seconds(profile))
        << ", \"predicted_seconds\": " << g17(est.total_seconds(profile))
        << ", \"mean_shard_seconds\": "
        << g17(est.mean_shard_seconds(profile)) << ",\n     \"campaigns\": [";
    bool first_campaign = true;
    for (const CampaignCost& campaign : est.campaigns) {
      if (!first_campaign) out << ",";
      first_campaign = false;
      const double seconds = campaign.seconds(profile);
      out << "\n       {\"label\": \"";
      json_escape_into(out, campaign.label);
      out << "\", \"trials\": " << campaign.trials
          << ", \"shards\": " << campaign.shard_count()
          << ", \"macs_per_trial\": " << g17(campaign.per_trial.macs)
          << ", \"bytes_per_trial\": " << g17(campaign.per_trial.bytes)
          << ", \"predicted_seconds\": " << g17(seconds)
          << ", \"mean_shard_seconds\": "
          << g17(campaign.mean_shard_seconds(profile))
          << ", \"predicted_trials_per_sec\": "
          << g17(seconds > 0.0
                     ? static_cast<double>(campaign.perf_trial_count()) /
                           seconds
                     : 0.0)
          << "}";
    }
    out << "\n     ]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace ftnav::cost

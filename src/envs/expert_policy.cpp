#include "envs/expert_policy.h"

#include <algorithm>
#include <cmath>

namespace ftnav {
namespace {
constexpr double kPi = 3.14159265358979323846;

double deg(double d) { return d * kPi / 180.0; }

/// Distance a disc of radius `r` can travel along `heading` before
/// colliding, sampled in 0.1 m steps up to `range`. Unlike a center
/// ray, this sees corner clips of the drone's body.
double swept_clearance(const DroneWorld& world, double x, double y,
                       double heading, double range, double r) {
  const double dx = std::cos(heading);
  const double dy = std::sin(heading);
  for (double d = 0.1; d <= range; d += 0.1) {
    if (world.collides(x + d * dx, y + d * dy, r)) return d - 0.1;
  }
  return range;
}
}  // namespace

Tensor ExpertPolicy::action_targets() const {
  const DroneEnvConfig& config = env_->config();
  const Pose2D& pose = env_->pose();
  const DroneWorld& world = env_->world();
  const double range = config.camera.max_range;
  const double radius = config.drone_radius;

  Tensor targets(static_cast<std::size_t>(DroneEnvConfig::action_count()));
  for (int yaw_index = 0; yaw_index < DroneEnvConfig::kYawBins; ++yaw_index) {
    const double heading =
        pose.heading +
        deg(DroneEnvConfig::yaw_options_deg()
                [static_cast<std::size_t>(yaw_index)]);
    // Swept-disc clearance at an inflated radius: rays alone miss
    // corner clips of the drone's body.
    const double clearance =
        swept_clearance(world, pose.x, pose.y, heading, range, radius + 0.2);
    for (int extent_index = 0; extent_index < DroneEnvConfig::kExtentBins;
         ++extent_index) {
      const double extent = DroneEnvConfig::extent_options_m()
          [static_cast<std::size_t>(extent_index)];
      const int action = extent_index * DroneEnvConfig::kYawBins + yaw_index;
      const double margin = clearance - extent - 0.4;
      if (margin <= 0.0) {
        // Unsafe stride: negative score proportional to the overshoot.
        targets[static_cast<std::size_t>(action)] = static_cast<float>(
            std::clamp(std::min(margin, -0.1) / range, -1.0, 0.0));
        continue;
      }
      // One-step lookahead: openness of the position the stride reaches,
      // measured over the headings reachable on the *next* step. Dead-end
      // pockets score low here even when the immediate stride is safe.
      const double nx = pose.x + extent * std::cos(heading);
      const double ny = pose.y + extent * std::sin(heading);
      double openness = 0.0;
      for (double next_yaw : DroneEnvConfig::yaw_options_deg()) {
        openness = std::max(
            openness, world.raycast(nx, ny, heading + deg(next_yaw), range));
      }
      // Treat cramped destinations as hazards: even a collision-free
      // stride is a trap when every follow-up heading is short.
      const double score =
          std::min(margin, 1.5 * (openness - 2.0)) / range;
      targets[static_cast<std::size_t>(action)] =
          static_cast<float>(std::clamp(score, -1.0, 1.0));
    }
  }
  return targets;
}

int ExpertPolicy::act() const { return best_action(action_targets()); }

int ExpertPolicy::best_action(const Tensor& targets) {
  int best = 2;  // straight, shortest stride
  double best_score = -1e9;
  for (int action = 0; action < DroneEnvConfig::action_count(); ++action) {
    const auto [yaw_index, extent_index] =
        DroneEnvConfig::decode_action(action);
    double score = targets[static_cast<std::size_t>(action)];
    if (score > 0.02) {
      // Safe: prefer longer strides (progress) with a mild preference
      // for flying straight over zig-zagging.
      score += 0.03 * extent_index - 0.01 * std::abs(yaw_index - 2);
    }
    if (score > best_score) {
      best_score = score;
      best = action;
    }
  }
  return best;
}

}  // namespace ftnav

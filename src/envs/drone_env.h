#pragma once
// Drone autonomous navigation environment (paper §4.2).
//
// The drone starts at the world's start pose and must fly as far as it
// can without colliding -- there is no destination. The policy observes
// the monocular camera image and picks one of 25 actions arranged as a
// 5 x 5 grid over (yaw change, forward extent), the paper's
// "perception-based probabilistic action space". The reward encourages
// keeping frontal clearance; a collision ends the episode. Flight
// quality is measured as Mean Safe Flight (MSF): the average distance
// traveled before collision (capped at `max_distance` for policies that
// simply never crash).

#include <array>
#include <utility>
#include <vector>

#include "envs/drone_camera.h"
#include "envs/drone_world.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace ftnav {

struct DroneEnvConfig {
  CameraConfig camera{};
  double drone_radius = 0.3;   ///< collision disc radius (m)
  int max_steps = 400;         ///< episode cap in decision steps
  double max_distance = 150.0; ///< distance cap counted as full success
  double safe_distance = 3.0;  ///< clearance for full shaping reward
  double crash_penalty = 2.0;  ///< subtracted on collision
  double start_jitter = 0.5;   ///< uniform start-position jitter (m)
  /// Circling detection: a faulty policy that spins in a tight circle
  /// would otherwise accrue "safe flight" distance forever. If the net
  /// signed heading change over the last `stall_window` steps reaches
  /// `stall_turns` full revolutions, the episode ends (MSF stops
  /// accruing). Legitimate navigation -- including U-turns at corridor
  /// ends -- never accumulates multiple same-direction revolutions in a
  /// short window. 0 disables the check.
  int stall_window = 40;
  double stall_turns = 2.0;

  static constexpr int kYawBins = 5;
  static constexpr int kExtentBins = 5;
  static constexpr int action_count() noexcept {
    return kYawBins * kExtentBins;
  }
  /// Yaw change per action column (degrees).
  static const std::array<double, kYawBins>& yaw_options_deg();
  /// Forward extent per action row (meters).
  static const std::array<double, kExtentBins>& extent_options_m();
  /// Decomposes an action id into (yaw index, extent index).
  static std::pair<int, int> decode_action(int action);
};

class DroneEnv {
 public:
  DroneEnv(const DroneWorld& world, DroneEnvConfig config);
  /// The env keeps a pointer to the world; forbid binding a temporary.
  DroneEnv(DroneWorld&&, DroneEnvConfig) = delete;

  const DroneWorld& world() const noexcept { return *world_; }
  const DroneEnvConfig& config() const noexcept { return config_; }
  const Pose2D& pose() const noexcept { return pose_; }
  bool done() const noexcept { return done_; }
  bool crashed() const noexcept { return crashed_; }
  /// Episode ended by the circling detector.
  bool stalled() const noexcept { return stalled_; }
  double flight_distance() const noexcept { return distance_; }
  int steps() const noexcept { return steps_; }

  /// Resets to the world's start pose with positional jitter from `rng`
  /// and returns the first observation.
  Tensor reset(Rng& rng);

  /// Current camera observation.
  Tensor observe() const;

  struct StepResult {
    double reward = 0.0;
    bool done = false;
    bool crashed = false;
  };

  /// Applies an action; movement is swept in small increments so fast
  /// actions cannot tunnel through thin obstacles. Throws
  /// std::invalid_argument for out-of-range actions and std::logic_error
  /// when stepping a finished episode.
  StepResult step(int action);

  /// The one evaluation flight every MSF runs: resets from `rng`, then
  /// steps with `policy(observation)` (the action for the current
  /// camera image) until the episode ends. Returns the flight distance.
  template <typename Policy>
  double fly(Policy&& policy, Rng& rng) {
    Tensor observation = reset(rng);
    while (!done_) {
      (void)step(policy(observation));
      observation = observe();
    }
    return distance_;
  }

  /// Frontal clearance (min over a small fan of forward rays).
  double frontal_clearance() const noexcept;

 private:
  const DroneWorld* world_;
  DroneEnvConfig config_;
  Pose2D pose_{};
  double distance_ = 0.0;
  int steps_ = 0;
  bool done_ = false;
  bool crashed_ = false;
  bool stalled_ = false;
  std::vector<double> yaw_history_;  // signed yaw per step (radians)
};

}  // namespace ftnav

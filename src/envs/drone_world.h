#pragma once
// 2.5-D drone world: the PEDRA/Unreal substitute (see "Known
// deviations from the paper" in README.md).
//
// The world is a bounded rectangle populated with axis-aligned box
// obstacles (pillars, interior walls). It supports the two queries the
// navigation stack needs:
//   * raycast  -- distance from a point along a heading to the nearest
//                 obstacle or boundary (the synthetic camera and the
//                 expert policy are built on this);
//   * collides -- whether a disc of the drone's radius intersects any
//                 obstacle or leaves the domain.
//
// Two layouts mirror the paper's PEDRA environments: `indoor_long`
// (a long pillar-slalom corridor) and `indoor_vanleer` (rooms joined by
// door gaps).

#include <cstdint>
#include <string>
#include <vector>

namespace ftnav {

/// Axis-aligned box obstacle.
struct Box {
  double x_min = 0.0;
  double y_min = 0.0;
  double x_max = 0.0;
  double y_max = 0.0;

  bool contains(double x, double y) const noexcept {
    return x >= x_min && x <= x_max && y >= y_min && y <= y_max;
  }
  /// Box grown by `r` on every side (for disc collision tests).
  Box inflated(double r) const noexcept {
    return Box{x_min - r, y_min - r, x_max + r, y_max + r};
  }
};

/// 2-D pose: position plus heading (radians, CCW from +x).
struct Pose2D {
  double x = 0.0;
  double y = 0.0;
  double heading = 0.0;
};

class DroneWorld {
 public:
  /// Rectangular domain [0,width] x [0,height] with obstacles.
  DroneWorld(double width, double height, std::vector<Box> obstacles,
             Pose2D start, std::string name);

  /// Paper environment: long corridor with staggered pillars.
  static DroneWorld indoor_long();
  /// Paper environment: rooms connected by door gaps.
  static DroneWorld indoor_vanleer();

  /// Randomized open hall with `pillar_count` pillars, guaranteed to
  /// leave the start pose clear and at least a 2 m-wide free band around
  /// the walls. Used for generalization/property tests.
  static DroneWorld random_clutter(double width, double height,
                                   int pillar_count, std::uint64_t seed);

  double width() const noexcept { return width_; }
  double height() const noexcept { return height_; }
  const std::string& name() const noexcept { return name_; }
  const Pose2D& start_pose() const noexcept { return start_; }
  const std::vector<Box>& obstacles() const noexcept { return obstacles_; }

  /// Distance from (x, y) along `heading` to the first obstacle or the
  /// domain boundary, capped at `max_range`.
  double raycast(double x, double y, double heading,
                 double max_range) const noexcept;

  /// True when a disc of radius `radius` centered at (x, y) overlaps an
  /// obstacle or pokes outside the domain.
  bool collides(double x, double y, double radius) const noexcept;

  /// Coarse ASCII map (debugging / examples).
  std::string render(int cols = 60, int rows = 16) const;

 private:
  double width_;
  double height_;
  std::vector<Box> obstacles_;
  Pose2D start_;
  std::string name_;
};

}  // namespace ftnav

#include "envs/drone_camera.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ftnav {
namespace {
constexpr double kPi = 3.14159265358979323846;
}

std::vector<double> depth_profile(const DroneWorld& world, const Pose2D& pose,
                                  const CameraConfig& config) {
  if (config.image_hw < 2)
    throw std::invalid_argument("depth_profile: image too small");
  const double fov = config.fov_deg * kPi / 180.0;
  std::vector<double> depths(static_cast<std::size_t>(config.image_hw));
  for (int col = 0; col < config.image_hw; ++col) {
    // Leftmost column looks left of heading (image x grows rightward,
    // world angle grows CCW).
    const double frac =
        static_cast<double>(col) / static_cast<double>(config.image_hw - 1);
    const double angle = pose.heading + fov * (0.5 - frac);
    depths[static_cast<std::size_t>(col)] =
        world.raycast(pose.x, pose.y, angle, config.max_range);
  }
  return depths;
}

Tensor render_camera(const DroneWorld& world, const Pose2D& pose,
                     const CameraConfig& config) {
  const std::vector<double> depths = depth_profile(world, pose, config);
  const int hw = config.image_hw;
  Tensor image(Shape{3, hw, hw});
  const double vfov = config.fov_deg * kPi / 180.0;  // square pixels

  // Everything but the wall test depends on the row alone, so each
  // row's elevation, wall gradient term and floor or ceiling colour
  // are computed once per frame. Each is the expression a per-pixel
  // evaluation would use, so every pixel gets the same float.
  struct RowShade {
    double abs_phi = 0.0;
    double wall_term = 0.0;  ///< the wall pixel's green gradient term
    float r = 0.0f, g = 0.0f, b = 0.0f;  ///< floor or ceiling colour
  };
  std::vector<RowShade> rows(static_cast<std::size_t>(hw));
  for (int row = 0; row < hw; ++row) {
    const double frac =
        static_cast<double>(row) / static_cast<double>(hw - 1);
    const double phi = vfov * (0.5 - frac);  // +up, -down
    RowShade& shade_row = rows[static_cast<std::size_t>(row)];
    shade_row.abs_phi = std::abs(phi);
    shade_row.wall_term = 0.2 * (1.0 - shade_row.abs_phi / (vfov * 0.5));
    if (phi < 0.0) {
      // Floor pixel: implied ground distance at this declination.
      const double floor_d =
          std::min(config.camera_height / std::tan(-phi), config.max_range);
      const double shade =
          0.5 * std::clamp(1.0 - floor_d / config.max_range, 0.0, 1.0);
      shade_row.r = static_cast<float>(shade);
      shade_row.g = static_cast<float>(0.6 * shade);
      shade_row.b = static_cast<float>(0.3 + 0.4 * shade);
    } else if (phi > 0.0) {
      // Ceiling pixel: constant-height ceiling shading.
      const double ceil_d =
          std::min(config.camera_height / std::tan(phi), config.max_range);
      const double shade =
          0.35 * std::clamp(1.0 - ceil_d / config.max_range, 0.0, 1.0);
      shade_row.r = static_cast<float>(0.2 + shade);
      shade_row.g = static_cast<float>(0.2 + shade);
      shade_row.b = static_cast<float>(0.25 + shade);
    }
    // phi == 0 (the middle row of an odd image) is always wall: every
    // column's wall_angle = atan2(wall_half_height, d) is >= 0.
  }

  for (int col = 0; col < hw; ++col) {
    const double d = std::max(depths[static_cast<std::size_t>(col)], 0.05);
    // Vertical angular half-extent of the wall band at this depth.
    const double wall_angle = std::atan2(config.wall_half_height, d);
    const double wall_shade =
        std::clamp(1.0 - d / config.max_range, 0.0, 1.0);
    // Wall pixel: brightness encodes proximity.
    const float wall_r = static_cast<float>(wall_shade);
    const double wall_g = 0.8 * wall_shade;
    const float wall_b = static_cast<float>(1.0 - wall_shade);
    for (int row = 0; row < hw; ++row) {
      const RowShade& shade_row = rows[static_cast<std::size_t>(row)];
      float r = shade_row.r, g = shade_row.g, b = shade_row.b;
      if (shade_row.abs_phi <= wall_angle) {
        r = wall_r;
        g = static_cast<float>(wall_g + shade_row.wall_term);
        b = wall_b;
      }
      image.ref(0, row, col) = r;
      image.ref(1, row, col) = g;
      image.ref(2, row, col) = b;
    }
  }
  return image;
}

}  // namespace ftnav

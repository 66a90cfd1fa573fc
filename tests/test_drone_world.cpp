// Tests for the drone world geometry, raycaster and camera.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "envs/drone_camera.h"
#include "envs/drone_world.h"
#include "util/rng.h"

namespace ftnav {
namespace {

constexpr double kPi = 3.14159265358979323846;

DroneWorld empty_room() {
  return DroneWorld(10.0, 10.0, {}, Pose2D{5.0, 5.0, 0.0}, "empty");
}

TEST(DroneWorld, RejectsBadConstruction) {
  EXPECT_THROW(DroneWorld(0.0, 10.0, {}, Pose2D{}, "x"),
               std::invalid_argument);
  EXPECT_THROW(DroneWorld(10.0, 10.0, {Box{3, 3, 2, 4}}, Pose2D{1, 1, 0}, "x"),
               std::invalid_argument);  // degenerate box
  EXPECT_THROW(
      DroneWorld(10.0, 10.0, {Box{4, 4, 6, 6}}, Pose2D{5, 5, 0}, "x"),
      std::invalid_argument);  // start inside obstacle
}

TEST(DroneWorld, RaycastHitsBoundary) {
  const DroneWorld world = empty_room();
  EXPECT_NEAR(world.raycast(5.0, 5.0, 0.0, 100.0), 5.0, 1e-9);
  EXPECT_NEAR(world.raycast(5.0, 5.0, kPi, 100.0), 5.0, 1e-9);
  EXPECT_NEAR(world.raycast(5.0, 5.0, kPi / 2.0, 100.0), 5.0, 1e-9);
  EXPECT_NEAR(world.raycast(5.0, 5.0, -kPi / 2.0, 100.0), 5.0, 1e-9);
}

TEST(DroneWorld, RaycastCapsAtMaxRange) {
  const DroneWorld world = empty_room();
  EXPECT_DOUBLE_EQ(world.raycast(5.0, 5.0, 0.0, 2.0), 2.0);
}

TEST(DroneWorld, RaycastHitsObstacle) {
  DroneWorld world(20.0, 10.0, {Box{8.0, 4.0, 9.0, 6.0}},
                   Pose2D{2.0, 5.0, 0.0}, "one-box");
  EXPECT_NEAR(world.raycast(2.0, 5.0, 0.0, 100.0), 6.0, 1e-9);
  // Ray pointing away from the box hits the boundary instead.
  EXPECT_NEAR(world.raycast(2.0, 5.0, kPi, 100.0), 2.0, 1e-9);
}

TEST(DroneWorld, RaycastDiagonal) {
  const DroneWorld world = empty_room();
  const double d = world.raycast(5.0, 5.0, kPi / 4.0, 100.0);
  EXPECT_NEAR(d, 5.0 * std::sqrt(2.0), 1e-9);
}

TEST(DroneWorld, RaycastFromInsideObstacleIsZero) {
  DroneWorld world(20.0, 10.0, {Box{8.0, 4.0, 9.0, 6.0}},
                   Pose2D{2.0, 5.0, 0.0}, "one-box");
  EXPECT_DOUBLE_EQ(world.raycast(8.5, 5.0, 0.0, 100.0), 0.0);
}

TEST(DroneWorld, CollisionWithWallsAndBoxes) {
  DroneWorld world(20.0, 10.0, {Box{8.0, 4.0, 9.0, 6.0}},
                   Pose2D{2.0, 5.0, 0.0}, "one-box");
  EXPECT_TRUE(world.collides(0.1, 5.0, 0.3));    // left wall
  EXPECT_TRUE(world.collides(8.5, 5.0, 0.3));    // inside the box
  EXPECT_TRUE(world.collides(7.8, 5.0, 0.3));    // within radius of box
  EXPECT_FALSE(world.collides(5.0, 5.0, 0.3));   // open space
  EXPECT_FALSE(world.collides(7.5, 5.0, 0.1));   // thin drone squeezes by
}

TEST(DroneWorld, PresetLayoutsAreUsable) {
  for (const DroneWorld& world :
       {DroneWorld::indoor_long(), DroneWorld::indoor_vanleer()}) {
    EXPECT_FALSE(world.obstacles().empty());
    EXPECT_FALSE(
        world.collides(world.start_pose().x, world.start_pose().y, 0.3));
    // Some forward clearance from the start.
    EXPECT_GT(world.raycast(world.start_pose().x, world.start_pose().y,
                            world.start_pose().heading, 10.0),
              1.0);
  }
  EXPECT_EQ(DroneWorld::indoor_long().name(), "indoor-long");
  EXPECT_EQ(DroneWorld::indoor_vanleer().name(), "indoor-vanleer");
}

TEST(DroneWorld, RenderMarksObstaclesAndStart) {
  const std::string art = DroneWorld::indoor_long().render();
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('S'), std::string::npos);
}

// ------------------------------------------------------------- camera

TEST(Camera, DepthProfileMatchesGeometry) {
  DroneWorld world(20.0, 10.0, {Box{8.0, 4.0, 9.0, 6.0}},
                   Pose2D{2.0, 5.0, 0.0}, "one-box");
  CameraConfig config;
  config.image_hw = 21;
  const auto depths = depth_profile(world, world.start_pose(), config);
  ASSERT_EQ(depths.size(), 21u);
  // Center column looks straight ahead at the box face 6 m away.
  EXPECT_NEAR(depths[10], 6.0, 1e-9);
}

TEST(Camera, ImageShapeAndRange) {
  const DroneWorld world = DroneWorld::indoor_long();
  CameraConfig config;
  config.image_hw = 39;
  const Tensor image = render_camera(world, world.start_pose(), config);
  EXPECT_EQ(image.shape(), (Shape{3, 39, 39}));
  for (std::size_t i = 0; i < image.size(); ++i) {
    EXPECT_GE(image[i], 0.0f);
    EXPECT_LE(image[i], 1.0f);
  }
}

TEST(Camera, CloserObstacleBrightensWallBand) {
  DroneWorld world(40.0, 10.0, {Box{20.0, 0.0, 21.0, 10.0}},
                   Pose2D{2.0, 5.0, 0.0}, "wall");
  CameraConfig config;
  config.image_hw = 21;
  const Tensor far_view = render_camera(world, Pose2D{2.0, 5.0, 0.0}, config);
  const Tensor near_view =
      render_camera(world, Pose2D{15.0, 5.0, 0.0}, config);
  const int mid = config.image_hw / 2;
  EXPECT_GT(near_view.get(0, mid, mid), far_view.get(0, mid, mid));
}

TEST(Camera, RejectsTinyImage) {
  const DroneWorld world = empty_room();
  CameraConfig config;
  config.image_hw = 1;
  EXPECT_THROW(depth_profile(world, world.start_pose(), config),
               std::invalid_argument);
}

TEST(Camera, ImageIsDeterministic) {
  const DroneWorld world = DroneWorld::indoor_vanleer();
  CameraConfig config;
  config.image_hw = 15;
  const Tensor a = render_camera(world, world.start_pose(), config);
  const Tensor b = render_camera(world, world.start_pose(), config);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

/// The camera's per-pixel shading before rows were tabulated, kept as
/// the oracle: every row's elevation, floor or ceiling colour and wall
/// gradient are recomputed for every pixel.
Tensor render_per_pixel(const DroneWorld& world, const Pose2D& pose,
                        const CameraConfig& config) {
  const std::vector<double> depths = depth_profile(world, pose, config);
  const int hw = config.image_hw;
  Tensor image(Shape{3, hw, hw});
  const double vfov = config.fov_deg * kPi / 180.0;
  for (int col = 0; col < hw; ++col) {
    const double d = std::max(depths[static_cast<std::size_t>(col)], 0.05);
    const double wall_angle = std::atan2(config.wall_half_height, d);
    const double wall_shade =
        std::clamp(1.0 - d / config.max_range, 0.0, 1.0);
    for (int row = 0; row < hw; ++row) {
      const double frac =
          static_cast<double>(row) / static_cast<double>(hw - 1);
      const double phi = vfov * (0.5 - frac);
      double r, g, b;
      if (std::abs(phi) <= wall_angle) {
        r = wall_shade;
        g = 0.8 * wall_shade + 0.2 * (1.0 - std::abs(phi) / (vfov * 0.5));
        b = 1.0 - wall_shade;
      } else if (phi < 0.0) {
        const double floor_d =
            std::min(config.camera_height / std::tan(-phi), config.max_range);
        const double shade =
            0.5 * std::clamp(1.0 - floor_d / config.max_range, 0.0, 1.0);
        r = shade;
        g = 0.6 * shade;
        b = 0.3 + 0.4 * shade;
      } else {
        const double ceil_d =
            std::min(config.camera_height / std::tan(phi), config.max_range);
        const double shade =
            0.35 * std::clamp(1.0 - ceil_d / config.max_range, 0.0, 1.0);
        r = 0.2 + shade;
        g = 0.2 + shade;
        b = 0.25 + shade;
      }
      image.ref(0, row, col) = static_cast<float>(r);
      image.ref(1, row, col) = static_cast<float>(g);
      image.ref(2, row, col) = static_cast<float>(b);
    }
  }
  return image;
}

TEST(DroneCamera, RowTablesMatchPerPixelShading) {
  // Odd sizes have a phi == 0 middle row; 2 is the smallest image.
  const int sizes[] = {2, 3, 39, 40, 103};
  Rng rng(2024);
  for (const DroneWorld& world :
       {DroneWorld::indoor_long(), DroneWorld::indoor_vanleer()}) {
    for (int pose_index = 0; pose_index < 120; ++pose_index) {
      const Pose2D pose{rng.uniform(0.0, world.width()),
                        rng.uniform(0.0, world.height()),
                        rng.uniform(-kPi, kPi)};
      for (int hw : sizes) {
        CameraConfig config;
        config.image_hw = hw;
        const Tensor image = render_camera(world, pose, config);
        const Tensor oracle = render_per_pixel(world, pose, config);
        ASSERT_EQ(image.shape(), oracle.shape());
        ASSERT_EQ(std::memcmp(image.data(), oracle.data(),
                              image.size() * sizeof(float)),
                  0)
            << world.name() << " pose " << pose_index << " image_hw " << hw;
      }
    }
  }
}

}  // namespace
}  // namespace ftnav

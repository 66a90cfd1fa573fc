// Scalar-vs-SIMD bit-identity tests for the dispatched compute kernels
// (src/nn/kernels/). The SIMD backends claim *exact* equality with the
// scalar chain — not tolerance-based closeness — so every comparison
// here is on the float bit pattern. Inputs are genuine Q-format values
// (round-tripped through encode/decode) including the saturation
// edges, and the geometry sweeps deliberately cross both the 4-lane
// (NEON) and 8-lane (AVX2) boundaries to exercise remainder handling.
// The float layers call the same kernels, so one case also trains a
// float network on each backend and compares the results bit for bit.
// Each SIMD backend runs the same matrix through its own fixture and
// GTEST_SKIPs on hosts that cannot execute it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "core/injector.h"
#include "envs/drone_world.h"
#include "fixed/qvector.h"
#include "nn/c3f2.h"
#include "nn/kernels/kernels.h"
#include "rl/dqn.h"
#include "util/rng.h"

namespace ftnav {
namespace {

using kernels::ConvShape;
using kernels::KernelOps;

std::uint32_t bits_of(float v) {
  std::uint32_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

/// Random values already on the Q-format grid (as every buffer the
/// engine hands a kernel is), with the saturation edges spliced in.
std::vector<float> quantized_randoms(const QFormat& fmt, std::size_t count,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(count);
  for (float& v : values)
    v = static_cast<float>(
        fmt.decode(fmt.encode(rng.normal(0.0, fmt.max_value() / 2))));
  if (count >= 2) {
    values[0] = static_cast<float>(fmt.max_value());
    values[1] = static_cast<float>(fmt.min_value());
  }
  return values;
}

void expect_bit_identical(const std::vector<float>& scalar,
                          const std::vector<float>& simd,
                          const char* what) {
  ASSERT_EQ(scalar.size(), simd.size());
  for (std::size_t i = 0; i < scalar.size(); ++i)
    ASSERT_EQ(bits_of(scalar[i]), bits_of(simd[i]))
        << what << " element " << i << ": scalar=" << scalar[i]
        << " simd=" << simd[i];
}

// ---- Backend-agnostic bit-identity matrices ------------------------------
// Each helper compares one SIMD backend against the scalar chain; the
// per-backend fixtures below run every matrix through both compiled-in
// backends.

void run_conv_shape_matrix(const KernelOps& simd) {
  const QFormat fmt = QFormat::q_1_4_11();
  const struct { int in_c, out_c, kernel, stride, out_h, out_w; } shapes[] = {
      {1, 1, 1, 1, 1, 1},    // degenerate
      {1, 2, 3, 1, 3, 3},    // out_w < 4: pure remainder for both widths
      {1, 2, 3, 1, 3, 7},    // out_w < 8: remainder for AVX2, 4+3 for NEON
      {2, 3, 3, 1, 4, 8},    // one AVX2 vector; two NEON vectors
      {3, 2, 3, 1, 5, 9},    // full vector(s) + 1 remainder column
      {2, 2, 5, 1, 2, 17},   // several vectors + 1 remainder
      {1, 2, 3, 2, 3, 7},    // strided gather + remainder
      {2, 2, 3, 2, 4, 9},    // strided gather + remainder
      {3, 4, 5, 2, 3, 16},   // strided; NEON channel path, AVX2 columns
      {2, 8, 3, 1, 2, 2},    // tiny feature map: one AVX2 channel vector
      {3, 12, 3, 2, 3, 3},   // strided channel path + 4-channel remainder
      {2, 19, 5, 1, 4, 5},   // channel vectors + odd channel remainder
      {1, 16, 1, 1, 6, 6},   // 1x1 kernel, pure channel vectorization
  };
  for (const auto& g : shapes) {
    ConvShape s;
    s.in_c = g.in_c;
    s.out_c = g.out_c;
    s.kernel = g.kernel;
    s.stride = g.stride;
    s.out_h = g.out_h;
    s.out_w = g.out_w;
    s.in_h = (g.out_h - 1) * g.stride + g.kernel;
    s.in_w = (g.out_w - 1) * g.stride + g.kernel;
    const std::size_t wn = static_cast<std::size_t>(g.out_c) * g.in_c *
                           g.kernel * g.kernel;
    const std::size_t xn =
        static_cast<std::size_t>(g.in_c) * s.in_h * s.in_w;
    const std::size_t yn =
        static_cast<std::size_t>(g.out_c) * g.out_h * g.out_w;
    const auto w = quantized_randoms(fmt, wn, 100 + wn);
    const auto b = quantized_randoms(fmt, g.out_c, 200 + wn);
    const auto x = quantized_randoms(fmt, xn, 300 + xn);
    std::vector<float> wt(wn);  // wt[ic][kh][kw][oc]
    kernels::transpose(w.data(), wt.data(), g.out_c,
                       g.in_c * g.kernel * g.kernel);
    std::vector<float> y_scalar(yn, -1.0f), y_simd(yn, -2.0f);
    kernels::scalar_ops().conv2d(w.data(), nullptr, b.data(), x.data(),
                                 y_scalar.data(), s);
    simd.conv2d(w.data(), simd.conv_wants_transposed ? wt.data() : nullptr,
                b.data(), x.data(), y_simd.data(), s);
    expect_bit_identical(y_scalar, y_simd, "conv2d");
  }
}

void run_dense_width_matrix(const KernelOps& simd) {
  const QFormat fmt(3, 4);  // coarse grid: saturating sums
  for (const int in_f : {1, 5, 48}) {
    for (const int out_f : {1, 3, 4, 7, 8, 9, 16, 25}) {
      const std::size_t wn = static_cast<std::size_t>(out_f) * in_f;
      const auto w = quantized_randoms(fmt, wn, 400 + wn);
      const auto b = quantized_randoms(fmt, out_f, 500 + wn);
      const auto x = quantized_randoms(fmt, in_f, 600 + in_f);
      std::vector<float> wt(wn);
      kernels::transpose(w.data(), wt.data(), out_f, in_f);
      std::vector<float> y_scalar(out_f, -1.0f), y_simd(out_f, -2.0f);
      kernels::scalar_ops().dense(w.data(), nullptr, b.data(), x.data(),
                                  y_scalar.data(), in_f, out_f);
      simd.dense(w.data(),
                 simd.dense_wants_transposed ? wt.data() : nullptr, b.data(),
                 x.data(), y_simd.data(), in_f, out_f);
      expect_bit_identical(y_scalar, y_simd, "dense");
    }
  }
}

void run_relu_matrix(const KernelOps& simd) {
  for (const std::size_t n : {1u, 3u, 4u, 7u, 8u, 17u, 64u}) {
    std::vector<float> values = quantized_randoms(QFormat::q_1_4_11(), n, n);
    values[0] = -0.0f;  // scalar path yields +0.0 here; SIMD must too
    std::vector<float> scalar = values, simd_vals = values;
    kernels::scalar_ops().relu(scalar.data(), scalar.size());
    simd.relu(simd_vals.data(), simd_vals.size());
    expect_bit_identical(scalar, simd_vals, "relu");
    for (float v : scalar) EXPECT_GE(v, 0.0f);
    EXPECT_EQ(bits_of(scalar[0]), bits_of(0.0f));  // not -0.0
  }
}

void run_faulted_dense(const KernelOps& simd) {
  // Faulted weights leave the "nice" trained distribution: bit flips
  // produce saturated magnitudes and sign flips. The backends must
  // still agree exactly.
  const QFormat fmt = QFormat::q_1_4_11();
  const int in_f = 19, out_f = 11;
  QVector image(fmt, quantized_randoms(fmt, static_cast<std::size_t>(in_f) *
                                                out_f,
                                       7));
  Rng fault_rng(8);
  FaultMap map = FaultMap::sample(FaultType::kTransientFlip, 0.05,
                                  image.size(), fmt.total_bits(), fault_rng);
  map.apply_once(image.words());
  // Stuck-at-1 on top, compiled exactly like the engine applies it.
  FaultMap stuck = FaultMap::sample(FaultType::kStuckAt1, 0.03, image.size(),
                                    fmt.total_bits(), fault_rng);
  StuckAtMask::compile(stuck).apply(image);

  std::vector<float> w(image.size());
  image.decode_into(w);
  std::vector<float> wt(w.size());
  kernels::transpose(w.data(), wt.data(), out_f, in_f);
  const auto b = quantized_randoms(fmt, out_f, 9);
  const auto x = quantized_randoms(fmt, in_f, 10);
  std::vector<float> y_scalar(out_f), y_simd(out_f);
  kernels::scalar_ops().dense(w.data(), nullptr, b.data(), x.data(),
                              y_scalar.data(), in_f, out_f);
  simd.dense(w.data(), simd.dense_wants_transposed ? wt.data() : nullptr,
             b.data(), x.data(), y_simd.data(), in_f, out_f);
  expect_bit_identical(y_scalar, y_simd, "faulted dense");
}

/// Float layers on the active backend: C3F2 (fast preset) and the Grid
/// World MLP (100 -> 48 -> 4) forward a fixed input, then one imitation
/// episode trains the C3F2. Returns both outputs and the trained
/// parameters.
std::vector<float> float_forward_and_train() {
  Rng rng(21);
  const C3F2Config c3f2 = C3F2Config::preset(C3F2Preset::kFast);
  Network drone = make_c3f2(c3f2, rng);
  Network mlp;
  mlp.add(std::make_unique<Dense>(100, 48, rng));
  mlp.add(std::make_unique<ReLU>());
  mlp.add(std::make_unique<Dense>(48, 4, rng));

  Tensor image(c3f2.input_shape());
  for (std::size_t i = 0; i < image.size(); ++i)
    image[i] = static_cast<float>(rng.uniform());
  Tensor state(std::size_t{100});
  state[37] = 1.0f;  // one-hot Grid World state
  std::vector<float> out;
  const auto append = [&out](std::span<const float> values) {
    out.insert(out.end(), values.begin(), values.end());
  };
  append(drone.forward(image).values());
  append(mlp.forward(state).values());

  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnvConfig env_config;
  env_config.max_steps = 30;
  DroneEnv env(world, env_config);
  (void)pretrain_imitation(drone, env, 1, 0.02, 0.1, rng);
  append(drone.snapshot_parameters());
  return out;
}

void run_float_layers(const KernelOps& simd) {
  std::vector<float> scalar, vectorized;
  {
    kernels::ScopedKernelBackend pin(kernels::scalar_ops());
    scalar = float_forward_and_train();
  }
  {
    kernels::ScopedKernelBackend pin(simd);
    vectorized = float_forward_and_train();
  }
  expect_bit_identical(scalar, vectorized, "float layers");
}

// ---- AVX2 ----------------------------------------------------------------

class Avx2BitIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::avx2_supported())
      GTEST_SKIP() << "AVX2 backend unavailable on this host";
    simd_ = kernels::avx2_ops();
    ASSERT_NE(simd_, nullptr);
  }
  const KernelOps* simd_ = nullptr;
};

TEST_F(Avx2BitIdentity, ConvAcrossShapesAndRemainderLanes) {
  run_conv_shape_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, DenseAcrossWidthsAndRemainderLanes) {
  run_dense_width_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, ReluIncludingSignedZeroAndRemainder) {
  run_relu_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, FaultedWeightImagesStayBitIdentical) {
  run_faulted_dense(*simd_);
}

TEST_F(Avx2BitIdentity, FloatForwardAndTrainingStayBitIdentical) {
  run_float_layers(*simd_);
}

// ---- NEON ----------------------------------------------------------------

class NeonBitIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::neon_supported())
      GTEST_SKIP() << "NEON backend unavailable on this host";
    simd_ = kernels::neon_ops();
    ASSERT_NE(simd_, nullptr);
  }
  const KernelOps* simd_ = nullptr;
};

TEST_F(NeonBitIdentity, ConvAcrossShapesAndRemainderLanes) {
  run_conv_shape_matrix(*simd_);
}

TEST_F(NeonBitIdentity, DenseAcrossWidthsAndRemainderLanes) {
  run_dense_width_matrix(*simd_);
}

TEST_F(NeonBitIdentity, ReluIncludingSignedZeroAndRemainder) {
  run_relu_matrix(*simd_);
}

TEST_F(NeonBitIdentity, FaultedWeightImagesStayBitIdentical) {
  run_faulted_dense(*simd_);
}

TEST_F(NeonBitIdentity, FloatForwardAndTrainingStayBitIdentical) {
  run_float_layers(*simd_);
}

// ---- Dispatch ------------------------------------------------------------

TEST(Kernels, ResolveBackendNamesAndErrors) {
  EXPECT_STREQ(kernels::resolve_backend("scalar").name, "scalar");
  EXPECT_THROW(kernels::resolve_backend("sve"), std::invalid_argument);
  if (kernels::avx2_supported())
    EXPECT_STREQ(kernels::resolve_backend("avx2").name, "avx2");
  else
    EXPECT_THROW(kernels::resolve_backend("avx2"), std::runtime_error);
  if (kernels::neon_supported())
    EXPECT_STREQ(kernels::resolve_backend("neon").name, "neon");
  else
    EXPECT_THROW(kernels::resolve_backend("neon"), std::runtime_error);
  const KernelOps& resolved = kernels::resolve_backend("auto");
  if (kernels::avx2_supported())
    EXPECT_STREQ(resolved.name, "avx2");
  else if (kernels::neon_supported())
    EXPECT_STREQ(resolved.name, "neon");
  else
    EXPECT_STREQ(resolved.name, "scalar");
}

TEST(Kernels, ScopedBackendOverridesActive) {
  {
    kernels::ScopedKernelBackend pin(kernels::scalar_ops());
    EXPECT_STREQ(kernels::active().name, "scalar");
  }
  if (kernels::avx2_supported()) {
    kernels::ScopedKernelBackend pin(*kernels::avx2_ops());
    EXPECT_STREQ(kernels::active().name, "avx2");
  }
  if (kernels::neon_supported()) {
    kernels::ScopedKernelBackend pin(*kernels::neon_ops());
    EXPECT_STREQ(kernels::active().name, "neon");
  }
}

TEST(Kernels, MaxPoolSelectsFirstOfEqualMaxima) {
  // 2x2 windows over one channel; ties must resolve to the first
  // element in scan order (strict > comparison).
  const std::vector<float> x = {
      1.0f, 1.0f, -2.0f, 0.5f,  //
      0.0f, 1.0f, 0.5f,  0.5f,  //
      -1.f, -1.f, -0.5f, -4.f,  //
      -1.f, -1.f, -8.0f, -0.5f,
  };
  std::vector<float> y(4);
  std::vector<std::size_t> argmax(4);
  kernels::maxpool2d(x.data(), y.data(), 1, 4, 4, 2, argmax.data());
  EXPECT_EQ(y[0], 1.0f);
  EXPECT_EQ(y[1], 0.5f);
  EXPECT_EQ(y[2], -1.0f);
  EXPECT_EQ(y[3], -0.5f);
  EXPECT_EQ(argmax, (std::vector<std::size_t>{0, 3, 8, 10}));
}

}  // namespace
}  // namespace ftnav

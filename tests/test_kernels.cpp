// Scalar-vs-SIMD bit-identity tests for the dispatched compute kernels
// (src/nn/kernels/). The SIMD backends claim *exact* equality with the
// scalar chain — not tolerance-based closeness — so every comparison
// here is on the float bit pattern. Inputs are genuine Q-format values
// (round-tripped through encode/decode) including the saturation
// edges, and the geometry sweeps deliberately cross both the 4-lane
// (NEON) and 8-lane (AVX2) boundaries to exercise remainder handling.
// The float layers call the same kernels, so one case also trains a
// float network on each backend and compares the results bit for bit.
// The SGD commit's matrix compares masters, words and decoded outputs.
// The codec oracle runs quantize and sgd_commit over every format of
// 2-24 bits (float lanes on AVX2) and of 25, 28 and 32 bits (scalar
// entries) on specials, ties, bound neighbours and a sweep of float
// bit patterns. Each SIMD backend runs the same matrix through its own
// fixture and GTEST_SKIPs on hosts that cannot execute it.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/injector.h"
#include "envs/drone_world.h"
#include "envs/expert_policy.h"
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

std::vector<std::uint32_t> bits_of(const std::vector<float>& values) {
  std::vector<std::uint32_t> out;
  for (const float v : values) out.push_back(bits_of(v));
  return out;
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

struct ConvGeometry {
  int in_c, out_c, kernel, stride, out_h, out_w;
};

ConvShape shape_of(const ConvGeometry& g) {
  ConvShape s;
  s.in_c = g.in_c;
  s.out_c = g.out_c;
  s.kernel = g.kernel;
  s.stride = g.stride;
  s.out_h = g.out_h;
  s.out_w = g.out_w;
  s.in_h = (g.out_h - 1) * g.stride + g.kernel;
  s.in_w = (g.out_w - 1) * g.stride + g.kernel;
  return s;
}

void run_conv_shape_matrix(const KernelOps& simd) {
  const QFormat fmt = QFormat::q_1_4_11();
  const ConvGeometry shapes[] = {
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
      // C3F2 layers, fast preset (conv1, conv2, conv3) ...
      {3, 16, 5, 2, 18, 18},
      {16, 32, 3, 2, 4, 4},
      {32, 32, 3, 1, 2, 2},
      // ... and paper preset.
      {3, 96, 7, 4, 25, 25},
      {96, 64, 5, 1, 8, 8},
      {64, 64, 3, 1, 6, 6},
  };
  std::vector<ConvGeometry> cases(std::begin(shapes), std::end(shapes));
  // Several channel blocks per pass plus a lone block (24, 40), over
  // output widths 1..7 and two heights, so the last pass of
  // consecutive output positions holds every count from 1 to 4.
  for (const int out_c : {24, 32, 40})
    for (const int out_h : {1, 3})
      for (int out_w = 1; out_w <= 7; ++out_w)
        cases.push_back({3, out_c, 3, 1 + out_w % 2, out_h, out_w});
  for (const auto& g : cases) {
    const ConvShape s = shape_of(g);
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
    kernels::scalar_ops().transpose(w.data(), wt.data(), g.out_c,
                       g.in_c * g.kernel * g.kernel);
    std::vector<float> y_scalar(yn, -1.0f), y_simd(yn, -2.0f);
    kernels::scalar_ops().conv2d(w.data(), nullptr, b.data(), x.data(),
                                 y_scalar.data(), s);
    simd.conv2d(w.data(), simd.conv_wants_transposed ? wt.data() : nullptr,
                b.data(), x.data(), y_simd.data(), s);
    expect_bit_identical(y_scalar, y_simd, "conv2d");
  }
}

/// Float specials the float layers' kernels must pass through exactly
/// as the scalar chains do. An operation on two NaNs returns one of
/// them, and which one depends on the order the compiler gives the
/// operands of a commutative instruction, which no backend fixes; so
/// the one NaN here is the one this host's invalid operations return
/// (inf - inf), and every NaN a chain meets has the same bits.
std::vector<float> float_specials() {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  const float tiny = std::numeric_limits<float>::denorm_min();
  return {0.0f, -0.0f, inf, -inf, nan, tiny, -tiny, 1e-40f, -3e-39f};
}

/// The dense slot, scalar against `simd`: through the transposed copy
/// (built by the slot's transpose, which must copy exactly what the
/// scalar transpose copies) on Q-format values, and from the row-major
/// weights alone (a null wt, which every backend accepts) on random
/// floats with +-0, +-inf, NaN and subnormals spliced into w, x and the
/// bias. The widths cross every tile and lane boundary of both. The
/// null-wt shapes run twice: with float_specials' one NaN, where every
/// output must match bit for bit, and with the negated NaN also spliced
/// into w and the bias, where the outputs whose chain reads it may meet
/// two different NaNs (kernels.h) and must only both be NaN, and every
/// other output must still match bit for bit.
void run_dense_width_matrix(const KernelOps& simd) {
  const QFormat fmt(3, 4);  // coarse grid: saturating sums
  for (const int in_f : {1, 5, 27, 48, 128}) {
    for (const int out_f : {1, 3, 4, 7, 8, 9, 16, 25, 32, 33, 40, 128}) {
      const std::size_t wn = static_cast<std::size_t>(out_f) * in_f;
      const auto w = quantized_randoms(fmt, wn, 400 + wn);
      const auto b = quantized_randoms(fmt, out_f, 500 + wn);
      const auto x = quantized_randoms(fmt, in_f, 600 + in_f);
      std::vector<float> wt(wn), wt_simd(wn, -3.0f);
      kernels::scalar_ops().transpose(w.data(), wt.data(), out_f, in_f);
      simd.transpose(w.data(), wt_simd.data(), out_f, in_f);
      expect_bit_identical(wt, wt_simd, "transpose");
      std::vector<float> y_scalar(out_f, -1.0f), y_simd(out_f, -2.0f);
      kernels::scalar_ops().dense(w.data(), nullptr, b.data(), x.data(),
                                  y_scalar.data(), in_f, out_f);
      simd.dense(w.data(),
                 simd.dense_wants_transposed ? wt.data() : nullptr, b.data(),
                 x.data(), y_simd.data(), in_f, out_f);
      expect_bit_identical(y_scalar, y_simd, "dense");
    }
  }
  const std::vector<float> specials = float_specials();
  const float other_nan = -*std::find_if(
      specials.begin(), specials.end(), [](float v) { return std::isnan(v); });
  std::vector<float> two_nans = specials;
  two_nans.push_back(other_nan);
  const auto is_other_nan = [&](float v) {
    return bits_of(v) == bits_of(other_nan);
  };
  Rng rng(61);
  const auto values = [&](const std::vector<float>& pool, std::size_t n,
                          std::size_t every) {
    std::vector<float> out(n);
    for (float& v : out) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (std::size_t i = 0; i < n; i += every)
      out[i] = pool[rng.below(pool.size())];
    return out;
  };
  std::size_t two_nan_outputs = 0;
  for (const int in_f : {1, 7, 8, 9, 127, 128, 129}) {
    for (const int out_f : {1, 7, 8, 9, 25, 31, 32, 33, 128}) {
      for (const bool mixed : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "null wt, in_f " << in_f << " out_f " << out_f
                     << (mixed ? ", two NaNs" : ""));
        const std::size_t wn = static_cast<std::size_t>(out_f) * in_f;
        const auto& pool = mixed ? two_nans : specials;
        // Specials sparse enough that most outputs stay finite.
        const auto w = values(pool, wn, mixed ? 13 : 97);
        const auto b = values(pool, static_cast<std::size_t>(out_f), 11);
        const auto x = values(specials, static_cast<std::size_t>(in_f), 29);
        std::vector<float> y_scalar(out_f, -1.0f), y_simd(out_f, -2.0f);
        kernels::scalar_ops().dense(w.data(), nullptr, b.data(), x.data(),
                                    y_scalar.data(), in_f, out_f);
        simd.dense(w.data(), nullptr, b.data(), x.data(), y_simd.data(),
                   in_f, out_f);
        for (int o = 0; o < out_f; ++o) {
          const float* row = w.data() + static_cast<std::size_t>(o) * in_f;
          if (is_other_nan(b[o]) ||
              std::any_of(row, row + in_f, is_other_nan)) {
            ++two_nan_outputs;
            ASSERT_TRUE(std::isnan(y_scalar[o])) << "output " << o;
            ASSERT_TRUE(std::isnan(y_simd[o])) << "output " << o;
          } else {
            ASSERT_EQ(bits_of(y_scalar[o]), bits_of(y_simd[o]))
                << "output " << o;
          }
        }
      }
    }
  }
  EXPECT_GT(two_nan_outputs, 0u);
}

/// relu, and relu_backward over every length 0..17 and conv1's 5,184
/// outputs: the forward input mixes +-0, +-inf, NaN and subnormals
/// into random values, and the output gradient -0.0 and NaN, so a
/// select on x >= 0 or one that keeps a masked -0.0 shows.
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
  const std::vector<float> specials = float_specials();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(71);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(5184);
  for (const std::size_t n : lengths) {
    SCOPED_TRACE(testing::Message() << "relu_backward length " << n);
    std::vector<float> x(n), gy(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = i % 3 == 0 ? specials[(i / 3) % specials.size()]
                        : static_cast<float>(rng.normal(0.0, 1.0));
      gy[i] = i % 4 == 1   ? -0.0f
              : i % 4 == 2 ? (i % 8 == 2 ? nan : -nan)
                           : static_cast<float>(rng.normal(0.0, 1.0));
    }
    std::vector<float> gx_scalar(n, 1.0f), gx_simd(n, 2.0f);
    kernels::scalar_ops().relu_backward(x.data(), gy.data(), gx_scalar.data(),
                                        n);
    simd.relu_backward(x.data(), gy.data(), gx_simd.data(), n);
    ASSERT_TRUE(n == 0 || std::memcmp(gx_scalar.data(), gx_simd.data(),
                                      n * sizeof(float)) == 0);
    for (std::size_t i = 0; i < n; ++i)
      if (!(x[i] > 0.0f)) {
        ASSERT_EQ(bits_of(gx_scalar[i]), bits_of(0.0f));
      }
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
  kernels::scalar_ops().transpose(w.data(), wt.data(), out_f, in_f);
  const auto b = quantized_randoms(fmt, out_f, 9);
  const auto x = quantized_randoms(fmt, in_f, 10);
  std::vector<float> y_scalar(out_f), y_simd(out_f);
  kernels::scalar_ops().dense(w.data(), nullptr, b.data(), x.data(),
                              y_scalar.data(), in_f, out_f);
  simd.dense(w.data(), simd.dense_wants_transposed ? wt.data() : nullptr,
             b.data(), x.data(), y_simd.data(), in_f, out_f);
  expect_bit_identical(y_scalar, y_simd, "faulted dense");
}

/// conv2d_backward, scalar against `simd`, bit for bit on gw, gb and
/// gx. Gradients mix +0, -0 and one NaN (channel out_c / 2 at
/// (nan_oh, nan_ow), a window clear of gx[0] and of the last input
/// element) into nonzero values; gw and gb start nonzero, with -0
/// entries that a zero gradient must not touch (-0 + +0 is +0). The
/// last input element and output channel 0's first weight are +inf but
/// read only by zero gradients, so a dropped skip turns gw or gx into
/// NaN (0 * inf). Channel 1's first weight is -inf in a live channel:
/// its output (0, 1) carries it into gx, while the zero gradient at
/// (0, 0) must not carry it into gx[0].
void check_conv_backward_specials(const KernelOps& simd, const ConvGeometry& g,
                                  int nan_oh, int nan_ow) {
  const QFormat fmt = QFormat::q_1_4_11();
  const ConvShape s = shape_of(g);
  SCOPED_TRACE(testing::Message()
               << "in_c " << g.in_c << " out_c " << g.out_c << " kernel "
               << g.kernel << " stride " << g.stride << " out " << g.out_h
               << "x" << g.out_w);
  const std::size_t wn =
      static_cast<std::size_t>(g.out_c) * g.in_c * g.kernel * g.kernel;
  const std::size_t xn = static_cast<std::size_t>(g.in_c) * s.in_h * s.in_w;
  const std::size_t yn = static_cast<std::size_t>(g.out_c) * s.out_h * s.out_w;
  auto w = quantized_randoms(fmt, wn, 700 + wn);
  w[0] = std::numeric_limits<float>::infinity();
  auto x = quantized_randoms(fmt, xn, 800 + xn);
  x.back() = std::numeric_limits<float>::infinity();
  auto gy = quantized_randoms(fmt, yn, 900 + yn);
  for (std::size_t i = 0; i < yn; i += 3) gy[i] = 0.0f;
  for (std::size_t i = 1; i < yn; i += 5) gy[i] = -0.0f;
  gy[(static_cast<std::size_t>(g.out_c / 2) * s.out_h + nan_oh) * s.out_w +
     nan_ow] = std::numeric_limits<float>::quiet_NaN();
  // All of channel 0, and every output whose window covers the last
  // input element.
  for (int oc = 0; oc < g.out_c; ++oc)
    for (int oh = 0; oh < s.out_h; ++oh)
      for (int ow = 0; ow < s.out_w; ++ow)
        if (oc == 0 || (oh * g.stride + g.kernel >= s.in_h &&
                        ow * g.stride + g.kernel >= s.in_w))
          gy[(static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w + ow] =
              (oc + oh + ow) % 2 == 0 ? 0.0f : -0.0f;
  w[static_cast<std::size_t>(g.in_c) * g.kernel * g.kernel] =
      -std::numeric_limits<float>::infinity();
  gy[static_cast<std::size_t>(s.out_h) * s.out_w] = 0.0f;
  gy[static_cast<std::size_t>(s.out_h) * s.out_w + 1] = 0.5f;
  auto params = quantized_randoms(fmt, wn + g.out_c, 1000 + wn);
  for (std::size_t i = 2; i < params.size(); i += 7) params[i] = -0.0f;
  std::vector<float> scratch(kernels::conv2d_backward_scratch(s));
  std::vector<float> grads_scalar = params, grads_simd = params;
  std::vector<float> gx_scalar(xn, 1.0f), gx_simd(xn, 2.0f);
  kernels::scalar_ops().conv2d_backward(
      w.data(), x.data(), gy.data(), grads_scalar.data(),
      grads_scalar.data() + wn, gx_scalar.data(), scratch.data(), s);
  simd.conv2d_backward(w.data(), x.data(), gy.data(), grads_simd.data(),
                       grads_simd.data() + wn, gx_simd.data(), scratch.data(),
                       s);
  expect_bit_identical(grads_scalar, grads_simd, "conv2d_backward gw/gb");
  expect_bit_identical(gx_scalar, gx_simd, "conv2d_backward gx");
  // The infs are live: what they feed would be NaN had a zero gradient
  // been applied, and it is not. The NaN is live too.
  EXPECT_FALSE(std::isnan(grads_scalar[wn - 1]));
  EXPECT_FALSE(std::isnan(gx_scalar[0]));
  EXPECT_TRUE(std::isnan(grads_scalar[wn + g.out_c / 2]));
}

void run_conv_backward_matrix(const KernelOps& simd) {
  const QFormat fmt = QFormat::q_1_4_11();
  for (const int in_c : {3, 8, 16})
    for (const int out_c : {8, 12, 16, 32})
      for (const int kernel : {1, 3, 5, 9})  // 9: rows wider than a vector
        for (const int stride : {1, 2})
          check_conv_backward_specials(
              simd, {in_c, out_c, kernel, stride, 3, 5}, 1, 2);
  // The fast C3F2's conv2 and conv3, whose input gradients the imitation
  // step computes (conv3's NaN window is clear of the last input
  // element only in the top row).
  check_conv_backward_specials(simd, {16, 32, 3, 2, 4, 4}, 1, 2);
  check_conv_backward_specials(simd, {32, 32, 3, 1, 2, 2}, 0, 1);
  // The fast C3F2's three conv shapes with gradients as max-pool and
  // ReLU leave them, about 75% zero with +0 and -0 mixed, with and
  // without an input gradient. gw and gb start with -0 entries, which
  // a -0 gradient times a negative input (+0) would turn into +0.
  const ConvGeometry c3f2_shapes[] = {
      {3, 16, 5, 2, 18, 18}, {16, 32, 3, 2, 4, 4}, {32, 32, 3, 1, 2, 2}};
  Rng rng(81);
  for (const ConvGeometry& g : c3f2_shapes) {
    const ConvShape s = shape_of(g);
    const std::size_t wn =
        static_cast<std::size_t>(g.out_c) * g.in_c * g.kernel * g.kernel;
    const std::size_t xn = static_cast<std::size_t>(g.in_c) * s.in_h * s.in_w;
    const std::size_t yn =
        static_cast<std::size_t>(g.out_c) * g.out_h * g.out_w;
    const auto w = quantized_randoms(fmt, wn, 1500 + wn);
    const auto x = quantized_randoms(fmt, xn, 1600 + xn);
    std::vector<float> gy(yn);
    for (float& v : gy) {
      const std::uint64_t pick = rng.below(8);
      v = pick < 6 ? (pick % 2 == 0 ? 0.0f : -0.0f)
                   : static_cast<float>(rng.normal(0.0, 0.01));
    }
    auto params = quantized_randoms(fmt, wn + g.out_c, 1700 + wn);
    for (std::size_t i = 0; i < params.size(); i += 3) params[i] = -0.0f;
    std::vector<float> scratch(kernels::conv2d_backward_scratch(s));
    for (const bool with_gx : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "C3F2 shape in_c " << g.in_c << " out_c " << g.out_c
                   << (with_gx ? " with gx" : " without gx"));
      std::vector<float> grads_scalar = params, grads_simd = params;
      std::vector<float> gx_scalar(xn, 1.0f), gx_simd(xn, 2.0f);
      kernels::scalar_ops().conv2d_backward(
          w.data(), x.data(), gy.data(), grads_scalar.data(),
          grads_scalar.data() + wn, with_gx ? gx_scalar.data() : nullptr,
          scratch.data(), s);
      simd.conv2d_backward(w.data(), x.data(), gy.data(), grads_simd.data(),
                           grads_simd.data() + wn,
                           with_gx ? gx_simd.data() : nullptr,
                           scratch.data(), s);
      ASSERT_EQ(std::memcmp(grads_scalar.data(), grads_simd.data(),
                            grads_scalar.size() * sizeof(float)),
                0);
      if (with_gx) {
        ASSERT_EQ(std::memcmp(gx_scalar.data(), gx_simd.data(),
                              xn * sizeof(float)),
                  0);
      }
    }
  }
}

/// conv2d_backward with gx == nullptr against the full call on the same
/// backend: gw and gb bit-equal, over Conv2D.GradientCheckParams'
/// shapes and C3F2 conv1 (fast preset), with zero and -0 gradients
/// mixed in.
void run_conv_backward_without_input_gradient(const KernelOps& ops) {
  const QFormat fmt = QFormat::q_1_4_11();
  const ConvGeometry shapes[] = {
      {2, 3, 3, 2, 3, 3}, {2, 9, 3, 2, 3, 3}, {3, 16, 5, 2, 18, 18}};
  for (const ConvGeometry& g : shapes) {
    const ConvShape s = shape_of(g);
    SCOPED_TRACE(testing::Message() << "in_c " << g.in_c << " out_c "
                                    << g.out_c << " kernel " << g.kernel);
    const std::size_t wn =
        static_cast<std::size_t>(g.out_c) * g.in_c * g.kernel * g.kernel;
    const std::size_t xn = static_cast<std::size_t>(g.in_c) * s.in_h * s.in_w;
    const std::size_t yn = static_cast<std::size_t>(g.out_c) * g.out_h * g.out_w;
    const auto w = quantized_randoms(fmt, wn, 1100 + wn);
    const auto x = quantized_randoms(fmt, xn, 1200 + xn);
    auto gy = quantized_randoms(fmt, yn, 1300 + yn);
    for (std::size_t i = 0; i < yn; i += 3) gy[i] = 0.0f;
    for (std::size_t i = 1; i < yn; i += 5) gy[i] = -0.0f;
    auto params = quantized_randoms(fmt, wn + g.out_c, 1400 + wn);
    for (std::size_t i = 2; i < params.size(); i += 7) params[i] = -0.0f;
    std::vector<float> scratch(kernels::conv2d_backward_scratch(s));
    std::vector<float> full = params, partial = params;
    std::vector<float> gx(xn);
    ops.conv2d_backward(w.data(), x.data(), gy.data(), full.data(),
                        full.data() + wn, gx.data(), scratch.data(), s);
    ops.conv2d_backward(w.data(), x.data(), gy.data(), partial.data(),
                        partial.data() + wn, nullptr, scratch.data(), s);
    expect_bit_identical(full, partial, "conv2d_backward gw/gb, gx null");
  }
}

/// The quantize slot against the scalar entry, memcmp over every
/// length 0..19 (all tails of both vector widths) and one long run, in
/// four formats and both encodings. Inputs: +-0, +-inf, NaN,
/// subnormals, exact half-resolution ties, values either side of each
/// saturation bound, and random floats.
void run_quantize_matrix(const KernelOps& simd) {
  Rng rng(31);
  for (const QFormat base :
       {QFormat(3, 4), QFormat(4, 11), QFormat(7, 8), QFormat(10, 5)}) {
    for (const Encoding encoding :
         {Encoding::kTwosComplement, Encoding::kSignMagnitude}) {
      const QFormat fmt = base.with_encoding(encoding);
      SCOPED_TRACE(fmt.name());
      const float inf = std::numeric_limits<float>::infinity();
      const auto res = static_cast<float>(fmt.resolution());
      const auto top = static_cast<float>(fmt.max_value());
      const auto bottom = static_cast<float>(fmt.min_value());
      std::vector<float> pool = {
          0.0f, -0.0f, inf, -inf, std::numeric_limits<float>::quiet_NaN(),
          -std::numeric_limits<float>::quiet_NaN(),
          std::numeric_limits<float>::denorm_min(),
          -std::numeric_limits<float>::denorm_min(), 1e-40f, -3e-39f,
          0.5f * res, -0.5f * res, 1.5f * res, -1.5f * res, 2.5f * res,
          -2.5f * res, 7.5f * res,
          top, std::nextafter(top, inf), std::nextafter(top, -inf),
          top + 0.5f * res, top + res,
          bottom, std::nextafter(bottom, inf), std::nextafter(bottom, -inf),
          bottom - 0.5f * res, bottom - res, -top - 0.5f * res};
      for (int i = 0; i < 100; ++i)
        pool.push_back(static_cast<float>(rng.normal(0.0, 1.5 * top)));
      for (int i = 0; i < 20; ++i)
        pool.push_back(static_cast<float>(rng.uniform(-1e6, 1e6)));
      const auto check = [&](std::size_t start, std::size_t n) {
        std::vector<float> scalar(n), vectorized(n);
        for (std::size_t i = 0; i < n; ++i)
          scalar[i] = vectorized[i] = pool[(start + i) % pool.size()];
        kernels::scalar_ops().quantize(scalar.data(), n, fmt);
        simd.quantize(vectorized.data(), n, fmt);
        // An empty vector's data() may be null, which memcmp rejects.
        ASSERT_TRUE(n == 0 || std::memcmp(scalar.data(), vectorized.data(),
                                          n * sizeof(float)) == 0)
            << "start " << start << " length " << n;
      };
      for (std::size_t n = 0; n <= 19; ++n)
        for (std::size_t start = 0; start < pool.size(); start += 5)
          check(start, n);
      check(0, pool.size());
    }
  }
}

/// The maxpool2d slot against the scalar entry: values and argmax
/// indices, for windows 1, 2 and 3 over shapes with odd heights and
/// widths. Inputs come from a coarse grid, so equal maxima are common,
/// with NaN, +-0 and -inf spliced in (and one all-NaN window).
void run_maxpool_matrix(const KernelOps& simd) {
  struct Geometry {
    int channels, height, width;
  };
  const Geometry shapes[] = {{1, 5, 5},   {3, 9, 17}, {16, 18, 18},
                             {1, 2, 2},   {2, 4, 16}, {2, 7, 35},
                             {1, 3, 31}, {4, 6, 33}};
  Rng rng(41);
  for (const Geometry& g : shapes) {
    const std::size_t n =
        static_cast<std::size_t>(g.channels) * g.height * g.width;
    std::vector<float> x(n);
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(), 0.0f,
                              -0.0f, -std::numeric_limits<float>::infinity()};
    for (float& v : x) {
      const std::uint64_t pick = rng.below(16);
      v = pick < 4 ? specials[pick]
                   : static_cast<float>(static_cast<int>(pick) - 10) * 0.5f;
    }
    x[0] = x[1] = x[static_cast<std::size_t>(g.width)] =
        x[static_cast<std::size_t>(g.width) + 1] =
            std::numeric_limits<float>::quiet_NaN();
    for (const int window : {1, 2, 3}) {
      if (g.height < window || g.width < window) continue;
      SCOPED_TRACE(testing::Message()
                   << g.channels << "x" << g.height << "x" << g.width
                   << " window " << window);
      const std::size_t out = static_cast<std::size_t>(g.channels) *
                              (g.height / window) * (g.width / window);
      for (const bool with_argmax : {false, true}) {
        std::vector<float> y_scalar(out, 1.0f), y_simd(out, 2.0f);
        std::vector<std::size_t> arg_scalar(out, 1), arg_simd(out, 2);
        kernels::scalar_ops().maxpool2d(
            x.data(), y_scalar.data(), g.channels, g.height, g.width, window,
            with_argmax ? arg_scalar.data() : nullptr);
        simd.maxpool2d(x.data(), y_simd.data(), g.channels, g.height,
                       g.width, window,
                       with_argmax ? arg_simd.data() : nullptr);
        expect_bit_identical(y_scalar, y_simd, "maxpool2d");
        if (with_argmax) {
          EXPECT_EQ(arg_scalar, arg_simd);
        }
      }
    }
  }
}

/// The sgd_commit slot against the scalar entry, memcmp over masters,
/// words and both decoded outputs (untouched slots included), for
/// every format of at most 16 bits in both encodings (Q(1,4,11) among
/// them), word strides 1, 4 and 100, runs with and without stuck
/// masks, and every length 0..17. Entries pair a master with a
/// gradient: rounding ties and values around both saturation bounds
/// under a +0 gradient (which leaves the master as it is), +-inf and
/// NaN gradients, signed zeros, and random values.
void run_sgd_commit_matrix(const KernelOps& simd) {
  constexpr float kRate = 0.05f;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(51);
  for (int total = 2; total <= 16; ++total) {
    for (int integer = 0; integer < total; ++integer) {
      for (const Encoding encoding :
           {Encoding::kTwosComplement, Encoding::kSignMagnitude}) {
        const QFormat fmt(integer, total - 1 - integer, encoding);
        SCOPED_TRACE(fmt.name());
        const auto res = static_cast<float>(fmt.resolution());
        const auto top = static_cast<float>(fmt.max_value());
        const auto bottom = static_cast<float>(fmt.min_value());
        std::vector<std::pair<float, float>> pool = {
            {-0.0f, -0.0f}, {-0.0f, 0.0f},  {0.0f, -0.0f},
            {0.5f * res, 0.0f}, {-0.5f * res, 0.0f}, {1.5f * res, 0.0f},
            {-1.5f * res, 0.0f}, {2.5f * res, 0.0f}, {-2.5f * res, 0.0f},
            {top, 0.0f}, {std::nextafter(top, inf), 0.0f},
            {top + 0.5f * res, 0.0f}, {top - 0.5f * res, 0.0f},
            {bottom, 0.0f}, {std::nextafter(bottom, -inf), 0.0f},
            {bottom - 0.5f * res, 0.0f}, {bottom + 0.5f * res, 0.0f},
            {1e6f, 0.0f}, {-1e6f, 0.0f},
            {0.25f, inf}, {0.25f, -inf}, {-1.0f, nan}, {1.0f, -nan},
            {std::numeric_limits<float>::denorm_min(), -0.0f}};
        for (int i = 0; i < 24; ++i)
          pool.emplace_back(static_cast<float>(rng.normal(0.0, top)),
                            static_cast<float>(rng.normal(0.0, 4.0 * res)));
        for (const std::size_t stride : {1u, 4u, 100u}) {
          const std::size_t copy_stride = stride == 1 ? 4 : 1;
          const std::size_t slots = 17 * stride;
          std::vector<std::uint32_t> and_mask(slots, ~std::uint32_t{0});
          std::vector<std::uint32_t> or_mask(slots, 0);
          for (std::size_t k = 0; k < slots; ++k) {
            const auto bit = std::uint32_t{1} << rng.below(fmt.total_bits());
            const std::uint64_t kind = rng.below(3);
            if (kind == 0) and_mask[k] &= ~bit;
            if (kind == 1) or_mask[k] |= bit;
          }
          for (const bool stuck : {false, true}) {
            for (std::size_t n = 0; n <= 17; ++n) {
              for (std::size_t start = 0; start < pool.size(); start += 7) {
                std::vector<float> master(n), grad(n);
                for (std::size_t i = 0; i < n; ++i)
                  std::tie(master[i], grad[i]) =
                      pool[(start + i) % pool.size()];
                struct Outputs {
                  std::vector<float> master;
                  std::vector<std::uint32_t> words;
                  std::vector<float> param, copy;
                };
                const auto commit = [&](const KernelOps& ops) {
                  Outputs out{master,
                              std::vector<std::uint32_t>(slots, 0xdeadbeefu),
                              std::vector<float>(slots, -7.0f),
                              std::vector<float>(17 * copy_stride, -9.0f)};
                  kernels::CommitRun run;
                  run.master = out.master.data();
                  run.grad = grad.data();
                  run.words = out.words.data();
                  if (stuck) {
                    run.and_mask = and_mask.data();
                    run.or_mask = or_mask.data();
                  }
                  run.word_stride = stride;
                  run.param = out.param.data();
                  run.param_stride = stride;
                  run.copy = out.copy.data();
                  run.copy_stride = copy_stride;
                  run.n = n;
                  ops.sgd_commit(run, kRate, fmt);
                  return out;
                };
                const Outputs scalar = commit(kernels::scalar_ops());
                const Outputs vectorized = commit(simd);
                SCOPED_TRACE(testing::Message()
                             << "stride " << stride << " stuck " << stuck
                             << " n " << n << " start " << start);
                ASSERT_TRUE(n == 0 ||
                            std::memcmp(scalar.master.data(),
                                        vectorized.master.data(),
                                        n * sizeof(float)) == 0);
                ASSERT_EQ(scalar.words, vectorized.words);
                ASSERT_EQ(0, std::memcmp(scalar.param.data(),
                                         vectorized.param.data(),
                                         slots * sizeof(float)));
                ASSERT_EQ(0, std::memcmp(scalar.copy.data(),
                                         vectorized.copy.data(),
                                         scalar.copy.size() * sizeof(float)));
                // The stored gradient is 0.0f + term: a -0.0 master
                // under a -0.0 term stays -0.0.
                for (std::size_t i = 0; i < n; ++i) {
                  if (std::signbit(master[i]) && master[i] == 0.0f &&
                      std::signbit(grad[i]) && grad[i] == 0.0f) {
                    ASSERT_EQ(bits_of(scalar.master[i]), bits_of(-0.0f));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

/// Floats that probe a format's codec: +-0, +-inf, +-NaN and
/// subnormals; the ties (k + 1/2) * resolution for |k| <= 64 around 0
/// and around both raw bounds (as far as a float holds them); the
/// nextafter neighbours of each bound and of the ties just past it; and
/// a fixed-stride sweep of float bit patterns over the whole 32-bit
/// space (an odd stride, so every bit position varies).
std::vector<float> codec_probes(const QFormat& fmt) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const auto largest_denorm = std::bit_cast<float>(std::uint32_t{0x007fffff});
  std::vector<float> probes = {0.0f,   -0.0f,   inf,    -inf,
                               nan,    -nan,    denorm, -denorm,
                               1e-40f, -3e-39f, largest_denorm,
                               -largest_denorm};
  const double res = fmt.resolution();
  const double raw_max = fmt.max_value() / res;
  const double raw_min = fmt.min_value() / res;
  for (const double center : {0.0, raw_min, raw_max})
    for (int k = -64; k <= 64; ++k)
      probes.push_back(static_cast<float>((center + k + 0.5) * res));
  for (const double edge : {fmt.max_value(), fmt.min_value(),
                            fmt.max_value() + 0.5 * res,
                            fmt.min_value() - 0.5 * res}) {
    const auto v = static_cast<float>(edge);
    probes.insert(probes.end(),
                  {v, std::nextafter(v, inf), std::nextafter(v, -inf)});
  }
  constexpr std::uint64_t kStride = 131071;  // 2^17 - 1: 32,769 patterns
  for (std::uint64_t bits = 0; bits <= 0xffffffffu; bits += kStride)
    probes.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  return probes;
}

/// Every format of 2-24 bits (every integer/fraction split, both
/// encodings), where the AVX2 entries run float lanes, and of 25, 28
/// and 32 bits, which take the scalar entries: the quantize and
/// sgd_commit slots against the scalar entries, memcmp over
/// codec_probes(). The commit runs each probe as a master under a +0
/// gradient, which leaves it as it is, so its words are encode(probe);
/// once plainly and once under random stuck-at masks, whose words
/// reach every decode path.
void run_codec_exactness(const KernelOps& simd) {
  Rng rng(61);
  std::vector<int> totals;
  for (int total = 2; total <= 24; ++total) totals.push_back(total);
  totals.insert(totals.end(), {25, 28, 32});
  for (const int total : totals) {
    for (int integer = 0; integer < total; ++integer) {
      for (const Encoding encoding :
           {Encoding::kTwosComplement, Encoding::kSignMagnitude}) {
        const QFormat fmt(integer, total - 1 - integer, encoding);
        SCOPED_TRACE(fmt.name());
        const std::vector<float> probes = codec_probes(fmt);
        const std::size_t n = probes.size();
        std::vector<float> scalar = probes, vectorized = probes;
        kernels::scalar_ops().quantize(scalar.data(), n, fmt);
        simd.quantize(vectorized.data(), n, fmt);
        ASSERT_EQ(0, std::memcmp(scalar.data(), vectorized.data(),
                                 n * sizeof(float)));

        const std::vector<float> zeros(n, 0.0f);
        std::vector<std::uint32_t> and_mask(n, ~std::uint32_t{0});
        std::vector<std::uint32_t> or_mask(n, 0);
        for (std::size_t k = 0; k < n; ++k) {
          const auto bit = std::uint32_t{1} << rng.below(fmt.total_bits());
          const std::uint64_t kind = rng.below(3);
          if (kind == 0) and_mask[k] &= ~bit;
          if (kind == 1) or_mask[k] |= bit;
        }
        for (const bool stuck : {false, true}) {
          SCOPED_TRACE(stuck ? "stuck masks" : "no masks");
          struct Outputs {
            std::vector<float> master;
            std::vector<std::uint32_t> words;
            std::vector<float> param, copy;
          };
          const auto commit = [&](const KernelOps& ops) {
            Outputs out{probes, std::vector<std::uint32_t>(n, 0xdeadbeefu),
                        std::vector<float>(n, -7.0f),
                        std::vector<float>(n, -9.0f)};
            kernels::CommitRun run;
            run.master = out.master.data();
            run.grad = zeros.data();
            run.words = out.words.data();
            if (stuck) {
              run.and_mask = and_mask.data();
              run.or_mask = or_mask.data();
            }
            run.param = out.param.data();
            run.copy = out.copy.data();
            run.n = n;
            ops.sgd_commit(run, 0.05f, fmt);
            return out;
          };
          const Outputs want = commit(kernels::scalar_ops());
          const Outputs got = commit(simd);
          ASSERT_EQ(0, std::memcmp(want.master.data(), got.master.data(),
                                   n * sizeof(float)));
          ASSERT_EQ(want.words, got.words);
          ASSERT_EQ(0, std::memcmp(want.param.data(), got.param.data(),
                                   n * sizeof(float)));
          ASSERT_EQ(0, std::memcmp(want.copy.data(), got.copy.data(),
                                   n * sizeof(float)));
        }
      }
    }
  }
}

/// sgd_commit with a null `param` against the same run with a
/// parameter output, on one backend: masters, words and the copy must
/// be equal (and nothing may be written through the null pointer, which
/// the sanitizer builds would report). Word strides 1 and 100, with and
/// without stuck masks, over every length 0..17 and a 48-entry run (a
/// TD step's FC1 column).
void run_sgd_commit_without_param(const KernelOps& ops) {
  Rng rng(67);
  const QFormat fmt = QFormat::grid_world_weights();
  for (const std::size_t stride : {1u, 100u}) {
    for (const bool stuck : {false, true}) {
      for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                  10u, 11u, 12u, 13u, 14u, 15u, 16u, 17u,
                                  48u}) {
        SCOPED_TRACE(testing::Message() << "stride " << stride << " stuck "
                                        << stuck << " n " << n);
        const std::size_t slots = std::max<std::size_t>(n, 1) * stride;
        std::vector<float> master(n), grad(n);
        for (std::size_t i = 0; i < n; ++i) {
          master[i] = static_cast<float>(rng.normal(0.0, fmt.max_value()));
          grad[i] = static_cast<float>(rng.normal(0.0, 1.0));
        }
        std::vector<std::uint32_t> and_mask(slots, ~std::uint32_t{0});
        std::vector<std::uint32_t> or_mask(slots, 0);
        for (std::size_t k = 0; k < slots; ++k)
          or_mask[k] = std::uint32_t{1} << rng.below(fmt.total_bits());
        struct Outputs {
          std::vector<float> master;
          std::vector<std::uint32_t> words;
          std::vector<float> copy;
        };
        const auto commit = [&](std::vector<float>* param) {
          Outputs out{master, std::vector<std::uint32_t>(slots, 0xdeadbeefu),
                      std::vector<float>(slots, -9.0f)};
          kernels::CommitRun run;
          run.master = out.master.data();
          run.grad = grad.data();
          run.words = out.words.data();
          if (stuck) {
            run.and_mask = and_mask.data();
            run.or_mask = or_mask.data();
          }
          run.word_stride = stride;
          if (param != nullptr) {
            run.param = param->data();
            run.param_stride = stride;
          }
          run.copy = out.copy.data();
          run.copy_stride = stride;
          run.n = n;
          ops.sgd_commit(run, 0.05f, fmt);
          return out;
        };
        std::vector<float> param(slots, -9.0f);
        const Outputs with = commit(&param);
        const Outputs without = commit(nullptr);
        ASSERT_EQ(bits_of(with.master), bits_of(without.master));
        ASSERT_EQ(with.words, without.words);
        ASSERT_EQ(bits_of(with.copy), bits_of(without.copy));
        ASSERT_EQ(bits_of(param), bits_of(with.copy));
      }
    }
  }
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

/// The fast C3F2 after 20 imitation-shaped steps (forward, the mean
/// squared error's gradient against the expert's targets, backward,
/// apply_gradients) on observations rendered along an expert flight:
/// its parameters on the active backend.
std::vector<float> c3f2_after_imitation_steps() {
  Rng rng(23);
  const C3F2Config c3f2 = C3F2Config::preset(C3F2Preset::kFast);
  Network net = make_c3f2(c3f2, rng);
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnv env(world, DroneEnvConfig{});
  const ExpertPolicy expert(env);
  (void)env.reset(rng);
  Tensor grad(Shape{c3f2.actions, 1, 1});
  for (int step = 0; step < 20; ++step) {
    if (env.done()) (void)env.reset(rng);
    const Tensor targets = expert.action_targets();
    const Tensor& q = net.forward(env.observe());
    for (std::size_t i = 0; i < q.size(); ++i)
      grad[i] = (q[i] - targets[i]) / static_cast<float>(q.size());
    net.backward(grad);
    net.apply_gradients(0.02f);
    (void)env.step(ExpertPolicy::best_action(targets));
  }
  return net.snapshot_parameters();
}

/// Float layers on both backends: float_forward_and_train's outputs
/// and the C3F2's parameters after 20 imitation steps (memcmp).
void run_float_layers(const KernelOps& simd) {
  std::vector<float> scalar, vectorized, scalar_steps, vectorized_steps;
  {
    kernels::ScopedKernelBackend pin(kernels::scalar_ops());
    scalar = float_forward_and_train();
    scalar_steps = c3f2_after_imitation_steps();
  }
  {
    kernels::ScopedKernelBackend pin(simd);
    vectorized = float_forward_and_train();
    vectorized_steps = c3f2_after_imitation_steps();
  }
  expect_bit_identical(scalar, vectorized, "float layers");
  ASSERT_EQ(scalar_steps.size(), vectorized_steps.size());
  ASSERT_EQ(std::memcmp(scalar_steps.data(), vectorized_steps.data(),
                        scalar_steps.size() * sizeof(float)),
            0);
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

TEST_F(Avx2BitIdentity, ConvBackwardAcrossShapesAndSpecialGradients) {
  run_conv_backward_matrix(*simd_);
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

TEST_F(Avx2BitIdentity, ConvBackwardWithoutInputGradient) {
  run_conv_backward_without_input_gradient(*simd_);
}

TEST_F(Avx2BitIdentity, QuantizeAcrossFormatsSpecialsAndTails) {
  run_quantize_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, MaxPoolAcrossWindowsShapesAndSpecials) {
  run_maxpool_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, SgdCommitAcrossFormatsStridesMasksAndTails) {
  run_sgd_commit_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, CodecExactOnEveryFormatUpTo32Bits) {
  run_codec_exactness(*simd_);
}

TEST_F(Avx2BitIdentity, SgdCommitWithoutParamMatchesWithParam) {
  run_sgd_commit_without_param(*simd_);
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

TEST_F(NeonBitIdentity, ConvBackwardAcrossShapesAndSpecialGradients) {
  run_conv_backward_matrix(*simd_);
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

TEST_F(NeonBitIdentity, ConvBackwardWithoutInputGradient) {
  run_conv_backward_without_input_gradient(*simd_);
}

TEST_F(NeonBitIdentity, QuantizeAcrossFormatsSpecialsAndTails) {
  run_quantize_matrix(*simd_);
}

TEST_F(NeonBitIdentity, MaxPoolAcrossWindowsShapesAndSpecials) {
  run_maxpool_matrix(*simd_);
}

TEST_F(NeonBitIdentity, SgdCommitAcrossFormatsStridesMasksAndTails) {
  run_sgd_commit_matrix(*simd_);
}

TEST_F(NeonBitIdentity, CodecExactOnEveryFormatUpTo32Bits) {
  run_codec_exactness(*simd_);
}

TEST_F(NeonBitIdentity, SgdCommitWithoutParamMatchesWithParam) {
  run_sgd_commit_without_param(*simd_);
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

TEST(Kernels, ScalarConvBackwardWithoutInputGradient) {
  run_conv_backward_without_input_gradient(kernels::scalar_ops());
}

TEST(Kernels, ScalarSgdCommitWithoutParamMatchesWithParam) {
  run_sgd_commit_without_param(kernels::scalar_ops());
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
  kernels::scalar_ops().maxpool2d(x.data(), y.data(), 1, 4, 4, 2,
                                  argmax.data());
  EXPECT_EQ(y[0], 1.0f);
  EXPECT_EQ(y[1], 0.5f);
  EXPECT_EQ(y[2], -1.0f);
  EXPECT_EQ(y[3], -0.5f);
  EXPECT_EQ(argmax, (std::vector<std::size_t>{0, 3, 8, 10}));
}

}  // namespace
}  // namespace ftnav

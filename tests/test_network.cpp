// Tests for the sequential network container and C3F2 builder.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "envs/gridworld.h"
#include "nn/c3f2.h"
#include "nn/kernels/kernels.h"
#include "nn/network.h"
#include "rl/mlp_q.h"

namespace ftnav {
namespace {

Network small_mlp(Rng& rng) {
  Network net;
  net.add(std::make_unique<Dense>(4, 6, rng)).set_label("FC1");
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(6, 3, rng)).set_label("FC2");
  return net;
}

TEST(Network, AddRejectsNull) {
  Network net;
  EXPECT_THROW(net.add(nullptr), std::invalid_argument);
}

TEST(Network, OutputShapePropagates) {
  Rng rng(1);
  Network net = small_mlp(rng);
  EXPECT_EQ(net.output_shape(Shape{4, 1, 1}), (Shape{3, 1, 1}));
}

TEST(Network, ForwardMatchesManualComposition) {
  Rng rng(2);
  Network net = small_mlp(rng);
  Tensor input(Shape{4, 1, 1}, {1.0f, -1.0f, 0.5f, 2.0f});
  const Tensor out = net.forward(input);
  Tensor manual = input;
  for (std::size_t i = 0; i < net.layer_count(); ++i)
    manual = net.layer(i).forward(manual);
  ASSERT_EQ(out.size(), manual.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_FLOAT_EQ(out[i], manual[i]);
}

TEST(Network, SnapshotRestoreRoundTrip) {
  Rng rng(3);
  Network net = small_mlp(rng);
  const auto params = net.snapshot_parameters();
  EXPECT_EQ(params.size(), net.parameter_count());
  auto perturbed = params;
  for (auto& p : perturbed) p += 1.0f;
  net.restore_parameters(perturbed);
  const auto after = net.snapshot_parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_FLOAT_EQ(after[i], params[i] + 1.0f);
  EXPECT_THROW(net.restore_parameters(std::vector<float>(3)),
               std::invalid_argument);
}

TEST(Network, CopyIsDeep) {
  Rng rng(4);
  Network net = small_mlp(rng);
  Network copy = net;
  copy.layer(0).parameters()[0] = 999.0f;
  EXPECT_NE(net.layer(0).parameters()[0], 999.0f);
}

TEST(Network, ParameteredLayersAndRanges) {
  Rng rng(5);
  Network net = small_mlp(rng);
  const auto indices = net.parametered_layers();
  ASSERT_EQ(indices.size(), 2u);
  EXPECT_EQ(indices[0], 0u);
  EXPECT_EQ(indices[1], 2u);
  const auto [b0, e0] = net.parameter_range(0);
  const auto [b1, e1] = net.parameter_range(1);
  EXPECT_EQ(b0, 0u);
  EXPECT_EQ(e0, 4u * 6u + 6u);
  EXPECT_EQ(b1, e0);
  EXPECT_EQ(e1, net.parameter_count());
  EXPECT_THROW(net.parameter_range(2), std::out_of_range);
}

TEST(Network, ParameteredLabels) {
  Rng rng(6);
  Network net = small_mlp(rng);
  const auto labels = net.parametered_labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], "FC1");
  EXPECT_EQ(labels[1], "FC2");
}

TEST(Network, GradientSnapshotLayout) {
  Rng rng(7);
  Network net = small_mlp(rng);
  Tensor input(Shape{4, 1, 1}, {1.0f, 1.0f, 1.0f, 1.0f});
  Tensor out = net.forward(input);
  Tensor grad(out.shape());
  grad.fill(1.0f);
  net.backward(grad);
  const auto grads = net.snapshot_gradients();
  EXPECT_EQ(grads.size(), net.parameter_count());
  bool any_nonzero = false;
  for (float g : grads) any_nonzero |= g != 0.0f;
  EXPECT_TRUE(any_nonzero);
  net.zero_gradients();
  for (float g : net.snapshot_gradients()) EXPECT_EQ(g, 0.0f);
}

TEST(Network, TrainingReducesLossOnRegression) {
  // End-to-end sanity: SGD on a fixed input-target pair converges.
  Rng rng(8);
  Network net = small_mlp(rng);
  Tensor input(Shape{4, 1, 1}, {0.5f, -0.25f, 1.0f, 0.0f});
  const std::vector<float> target = {1.0f, -1.0f, 0.5f};
  double first_loss = 0.0, last_loss = 0.0;
  for (int iter = 0; iter < 200; ++iter) {
    const Tensor out = net.forward(input);
    Tensor grad(out.shape());
    double loss = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const float diff = out[i] - target[i];
      grad[i] = diff;
      loss += 0.5 * diff * diff;
    }
    net.backward(grad);
    net.apply_gradients(0.05f);
    if (iter == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.01);
}

// ------------------------------------------------------------------ C3F2

TEST(C3F2, FastPresetShapes) {
  Rng rng(9);
  const C3F2Config config = C3F2Config::preset(C3F2Preset::kFast);
  Network net = make_c3f2(config, rng);
  EXPECT_EQ(net.output_shape(config.input_shape()), (Shape{25, 1, 1}));
  EXPECT_EQ(net.parametered_layers().size(), kC3F2ParameteredLayers);
}

TEST(C3F2, PaperPresetShapes) {
  Rng rng(10);
  const C3F2Config config = C3F2Config::preset(C3F2Preset::kPaper);
  Network net = make_c3f2(config, rng);
  EXPECT_EQ(net.output_shape(config.input_shape()), (Shape{25, 1, 1}));
  const auto labels = net.parametered_labels();
  ASSERT_EQ(labels.size(), 5u);
  EXPECT_EQ(labels[0], "Conv1");
  EXPECT_EQ(labels[4], "FC2");
}

/// One step of Network::backward() against every layer's backward()
/// run by hand, back to front, on a copy of `net`: the parameter
/// gradients must be bit-equal, and backward() must return the
/// gradient the chain hands to the first layer.
void expect_backward_matches_layer_chain(const Network& net,
                                         const Tensor& input, Rng& rng) {
  Network chained = net;
  Network trained = net;
  const Tensor out = chained.forward(input);
  (void)trained.forward(input);
  Tensor grad(out.shape());
  for (std::size_t i = 0; i < grad.size(); ++i)
    grad[i] = static_cast<float>(rng.normal(0.0, 0.1));
  Tensor to_first = grad;
  for (std::size_t i = chained.layer_count(); i > 1; --i)
    to_first = chained.layer(i - 1).backward(to_first);
  (void)chained.layer(0).backward(to_first);
  const Tensor returned = trained.backward(grad);
  ASSERT_EQ(returned.shape(), to_first.shape());
  for (std::size_t i = 0; i < returned.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(to_first[i]),
              std::bit_cast<std::uint32_t>(returned[i]))
        << "returned gradient word " << i;
  const std::vector<float> expected = chained.snapshot_gradients();
  const std::vector<float> actual = trained.snapshot_gradients();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(expected[i]),
              std::bit_cast<std::uint32_t>(actual[i]))
        << "gradient word " << i;
  // The first layer's gradients are live, so the comparison covers the
  // layer that skips its input gradient.
  const auto [begin, end] = chained.parameter_range(0);
  bool first_live = false;
  for (std::size_t i = begin; i < end; ++i) first_live |= expected[i] != 0.0f;
  EXPECT_TRUE(first_live);
}

TEST(Network, BackwardMatchesLayerChain) {
  // C3F2 fast (Conv2D first: no input gradient) on the scalar and the
  // active backend, and an MLP (Dense first: the default path).
  const C3F2Config config = C3F2Config::preset(C3F2Preset::kFast);
  Rng rng(12);
  const Network c3f2 = make_c3f2(config, rng);
  Tensor image(config.input_shape());
  for (std::size_t i = 0; i < image.size(); ++i)
    image[i] = static_cast<float>(rng.uniform());
  {
    kernels::ScopedKernelBackend pin(kernels::scalar_ops());
    expect_backward_matches_layer_chain(c3f2, image, rng);
  }
  expect_backward_matches_layer_chain(c3f2, image, rng);
  const Network mlp = small_mlp(rng);
  expect_backward_matches_layer_chain(
      mlp, Tensor(Shape{4, 1, 1}, {0.5f, -0.25f, 1.0f, 0.0f}), rng);
}

/// Bit patterns of floats, so comparisons tell -0.0 from +0.0.
std::vector<std::uint32_t> bits_of(std::span<const float> values) {
  std::vector<std::uint32_t> bits;
  for (const float v : values) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

/// Network::infer() against forward() on copies of `net`: infer(b) must
/// equal forward(b) bit for bit, and forward(a); infer(b); backward(g)
/// must return the gradient, and leave the parameter gradients, of
/// forward(a); backward(g) on a fresh copy. The probe copy runs three
/// rounds, so its reused buffers carry each round into the next.
void expect_network_infer_matches_forward(const Network& net,
                                          const Tensor& a, const Tensor& b,
                                          Rng& rng) {
  Network probe = net;
  for (int round = 0; round < 3; ++round) {
    Network reference = net;
    const Tensor out_b = reference.forward(b);
    probe.zero_gradients();
    (void)probe.forward(a);
    ASSERT_EQ(bits_of(probe.infer(b).values()), bits_of(out_b.values()))
        << "round " << round;
    Tensor grad(out_b.shape());
    for (std::size_t i = 0; i < grad.size(); ++i)
      grad[i] = static_cast<float>(rng.normal(0.0, 0.1));
    const Tensor returned = probe.backward(grad);
    (void)reference.forward(a);
    const Tensor expected = reference.backward(grad);
    ASSERT_EQ(returned.shape(), expected.shape());
    ASSERT_EQ(bits_of(returned.values()), bits_of(expected.values()))
        << "round " << round;
    ASSERT_EQ(bits_of(probe.snapshot_gradients()),
              bits_of(reference.snapshot_gradients()))
        << "round " << round;
  }
}

TEST(Network, InferMatchesForwardAndLeavesItsCaches) {
  // C3F2 fast on the scalar and the active backend, and the Grid World
  // MLP of a briefly trained agent on one-hot states.
  const C3F2Config config = C3F2Config::preset(C3F2Preset::kFast);
  Rng rng(13);
  const Network c3f2 = make_c3f2(config, rng);
  const auto image = [&] {
    Tensor t(config.input_shape());
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<float>(rng.uniform());
    return t;
  };
  const Tensor a = image();
  const Tensor b = image();
  {
    kernels::ScopedKernelBackend pin(kernels::scalar_ops());
    expect_network_infer_matches_forward(c3f2, a, b, rng);
  }
  expect_network_infer_matches_forward(c3f2, a, b, rng);

  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  for (int episode = 0; episode < 30; ++episode)
    agent.run_training_episode(0.5, rng);
  expect_network_infer_matches_forward(agent.network(), agent.encode_state(3),
                                       agent.encode_state(42), rng);
}

TEST(C3F2, ForwardRunsOnFastPreset) {
  Rng rng(11);
  const C3F2Config config = C3F2Config::preset(C3F2Preset::kFast);
  Network net = make_c3f2(config, rng);
  Tensor input(config.input_shape());
  input.fill(0.5f);
  const Tensor out = net.forward(input);
  EXPECT_EQ(out.size(), 25u);
}

}  // namespace
}  // namespace ftnav

// Tests for NN layers, including numerical gradient checks -- the
// backbone correctness argument for every training experiment.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/layers.h"

namespace ftnav {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double scale = 1.0) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

/// Scalar loss L = sum(out * loss_weights); returns dL/dinput via
/// backward and checks it against central finite differences.
void check_input_gradient(Layer& layer, const Tensor& input,
                          double tolerance = 2e-2) {
  Rng rng(99);
  Tensor out = layer.forward(input);
  Tensor loss_weights = random_tensor(out.shape(), rng);
  Tensor grad_out(out.shape());
  for (std::size_t i = 0; i < out.size(); ++i)
    grad_out[i] = loss_weights[i];
  const Tensor grad_in = layer.backward(grad_out);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < input.size(); i += 7) {  // sample positions
    Tensor plus = input, minus = input;
    plus[i] += eps;
    minus[i] -= eps;
    double loss_plus = 0.0, loss_minus = 0.0;
    const Tensor out_plus = layer.forward(plus);
    for (std::size_t k = 0; k < out_plus.size(); ++k)
      loss_plus += static_cast<double>(out_plus[k]) * loss_weights[k];
    const Tensor out_minus = layer.forward(minus);
    for (std::size_t k = 0; k < out_minus.size(); ++k)
      loss_minus += static_cast<double>(out_minus[k]) * loss_weights[k];
    const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    EXPECT_NEAR(grad_in[i], numeric, tolerance) << "input index " << i;
  }
  // Restore caches for the caller.
  (void)layer.forward(input);
}

/// Checks parameter gradients against finite differences.
void check_param_gradient(Layer& layer, const Tensor& input,
                          double tolerance = 2e-2) {
  Rng rng(98);
  layer.zero_gradients();
  Tensor out = layer.forward(input);
  Tensor loss_weights = random_tensor(out.shape(), rng);
  Tensor grad_out(out.shape());
  for (std::size_t i = 0; i < out.size(); ++i) grad_out[i] = loss_weights[i];
  (void)layer.backward(grad_out);
  auto params = layer.parameters();
  auto grads = layer.gradients();
  ASSERT_EQ(params.size(), grads.size());

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < params.size(); i += 11) {
    const float saved = params[i];
    params[i] = saved + eps;
    double loss_plus = 0.0;
    const Tensor out_plus = layer.forward(input);
    for (std::size_t k = 0; k < out_plus.size(); ++k)
      loss_plus += static_cast<double>(out_plus[k]) * loss_weights[k];
    params[i] = saved - eps;
    double loss_minus = 0.0;
    const Tensor out_minus = layer.forward(input);
    for (std::size_t k = 0; k < out_minus.size(); ++k)
      loss_minus += static_cast<double>(out_minus[k]) * loss_weights[k];
    params[i] = saved;
    const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    EXPECT_NEAR(grads[i], numeric, tolerance) << "param index " << i;
  }
}

// ------------------------------------------------------------------ Conv

TEST(Conv2D, RejectsBadConfig) {
  Rng rng(1);
  EXPECT_THROW(Conv2D(0, 1, 3, 1, rng), std::invalid_argument);
  EXPECT_THROW(Conv2D(1, 0, 3, 1, rng), std::invalid_argument);
  EXPECT_THROW(Conv2D(1, 1, 0, 1, rng), std::invalid_argument);
  EXPECT_THROW(Conv2D(1, 1, 3, 0, rng), std::invalid_argument);
}

TEST(Conv2D, OutputShape) {
  Rng rng(2);
  Conv2D conv(3, 8, 5, 2, rng);
  const Shape out = conv.output_shape(Shape{3, 39, 39});
  EXPECT_EQ(out, (Shape{8, 18, 18}));
  EXPECT_THROW(conv.output_shape(Shape{2, 39, 39}), std::invalid_argument);
  EXPECT_THROW(conv.output_shape(Shape{3, 4, 4}), std::invalid_argument);
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  Rng rng(3);
  Conv2D conv(1, 1, 1, 1, rng);
  auto params = conv.parameters();
  params[0] = 1.0f;  // single 1x1 weight
  params[1] = 0.0f;  // bias
  Tensor input = random_tensor(Shape{1, 4, 4}, rng);
  const Tensor out = conv.forward(input);
  for (std::size_t i = 0; i < input.size(); ++i)
    EXPECT_FLOAT_EQ(out[i], input[i]);
}

TEST(Conv2D, KnownConvolution) {
  Rng rng(4);
  Conv2D conv(1, 1, 2, 1, rng);
  auto params = conv.parameters();
  // Kernel [[1,2],[3,4]], bias 10.
  params[0] = 1.0f; params[1] = 2.0f; params[2] = 3.0f; params[3] = 4.0f;
  params[4] = 10.0f;
  Tensor input(Shape{1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const Tensor out = conv.forward(input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0], 1 + 4 + 9 + 16 + 10);
}

TEST(Conv2D, GradientCheckInput) {
  Rng rng(5);
  Conv2D conv(2, 3, 3, 1, rng);
  check_input_gradient(conv, random_tensor(Shape{2, 6, 6}, rng));
}

TEST(Conv2D, GradientCheckParams) {
  Rng rng(6);
  Conv2D conv(2, 3, 3, 2, rng);
  check_param_gradient(conv, random_tensor(Shape{2, 7, 7}, rng));
  // 9 output channels: wide enough for the SIMD backends' transposed-
  // weight path, plus a remainder channel.
  Conv2D wide(2, 9, 3, 2, rng);
  check_param_gradient(wide, random_tensor(Shape{2, 7, 7}, rng));
}

TEST(Conv2D, ApplyGradientsMovesParamsAndClears) {
  Rng rng(7);
  Conv2D conv(1, 1, 2, 1, rng);
  Tensor input = random_tensor(Shape{1, 3, 3}, rng);
  Tensor out = conv.forward(input);
  Tensor grad(out.shape());
  grad.fill(1.0f);
  conv.backward(grad);
  const float before = conv.parameters()[0];
  const float g = conv.gradients()[0];
  conv.apply_gradients(0.1f);
  EXPECT_FLOAT_EQ(conv.parameters()[0], before - 0.1f * g);
  EXPECT_FLOAT_EQ(conv.gradients()[0], 0.0f);
}

TEST(Conv2D, BackwardBeforeForwardThrows) {
  Rng rng(8);
  Conv2D conv(1, 1, 2, 1, rng);
  Tensor grad(Shape{1, 2, 2});
  EXPECT_THROW(conv.backward(grad), std::logic_error);
}

TEST(Conv2D, BackwardRejectsMismatchedGradShape) {
  Rng rng(9);
  Conv2D conv(1, 1, 2, 1, rng);
  (void)conv.forward(random_tensor(Shape{1, 3, 3}, rng));  // out 1x2x2
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 3, 3})), std::invalid_argument);
}

// ------------------------------------------------------------------ ReLU

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor input(Shape{1, 1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor out = relu.forward(input);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(ReLU, GradientMasksNegativeInputs) {
  ReLU relu;
  Tensor input(Shape{1, 1, 3}, {-1.0f, 1.0f, 2.0f});
  (void)relu.forward(input);
  Tensor grad(Shape{1, 1, 3}, {5.0f, 5.0f, 5.0f});
  const Tensor gin = relu.backward(grad);
  EXPECT_FLOAT_EQ(gin[0], 0.0f);
  EXPECT_FLOAT_EQ(gin[1], 5.0f);
  EXPECT_FLOAT_EQ(gin[2], 5.0f);
}

TEST(ReLU, BackwardRejectsMismatchedGradShape) {
  ReLU relu;
  (void)relu.forward(Tensor(Shape{1, 1, 3}, {-1.0f, 1.0f, 2.0f}));
  EXPECT_THROW(relu.backward(Tensor(Shape{1, 1, 64})), std::invalid_argument);
}

// -------------------------------------------------------------- MaxPool

TEST(MaxPool2D, SelectsWindowMaxima) {
  MaxPool2D pool(2);
  Tensor input(Shape{1, 2, 4},
               {1.0f, 5.0f, 2.0f, 0.0f, 3.0f, 4.0f, -1.0f, 7.0f});
  const Tensor out = pool.forward(input);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2}));
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D pool(2);
  Tensor input(Shape{1, 2, 2}, {1.0f, 9.0f, 3.0f, 4.0f});
  (void)pool.forward(input);
  Tensor grad(Shape{1, 1, 1}, {2.0f});
  const Tensor gin = pool.backward(grad);
  EXPECT_FLOAT_EQ(gin[0], 0.0f);
  EXPECT_FLOAT_EQ(gin[1], 2.0f);
  EXPECT_FLOAT_EQ(gin[2], 0.0f);
  EXPECT_FLOAT_EQ(gin[3], 0.0f);
}

TEST(MaxPool2D, BackwardRejectsMismatchedGradShape) {
  MaxPool2D pool(2);
  (void)pool.forward(Tensor(Shape{1, 2, 2}, {1.0f, 9.0f, 3.0f, 4.0f}));
  EXPECT_THROW(pool.backward(Tensor(Shape{1, 1, 4})), std::invalid_argument);
}

TEST(MaxPool2D, MasksFaultyNegativeSpikes) {
  // The masking effect the paper credits for Conv1/Conv2 resilience: a
  // large *negative* faulty value in a pooling window disappears.
  MaxPool2D pool(2);
  Tensor clean(Shape{1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor faulty = clean;
  faulty[0] = -100.0f;
  EXPECT_FLOAT_EQ(pool.forward(clean)[0], pool.forward(faulty)[0]);
}

TEST(MaxPool2D, RejectsTooSmallInput) {
  MaxPool2D pool(4);
  EXPECT_THROW(pool.output_shape(Shape{1, 3, 3}), std::invalid_argument);
}

// -------------------------------------------------------------- Flatten

TEST(Flatten, ReshapesAndRestores) {
  Flatten flatten;
  Rng rng(12);
  Tensor input = random_tensor(Shape{2, 3, 4}, rng);
  const Tensor out = flatten.forward(input);
  EXPECT_EQ(out.shape(), (Shape{24, 1, 1}));
  const Tensor back = flatten.backward(out);
  EXPECT_EQ(back.shape(), input.shape());
  for (std::size_t i = 0; i < input.size(); ++i)
    EXPECT_FLOAT_EQ(back[i], out[i]);
}

// ---------------------------------------------------------------- Dense

TEST(Dense, KnownMatVec) {
  Rng rng(13);
  Dense dense(2, 2, rng);
  auto params = dense.parameters();
  // W = [[1,2],[3,4]], b = [10, 20].
  params[0] = 1.0f; params[1] = 2.0f; params[2] = 3.0f; params[3] = 4.0f;
  params[4] = 10.0f; params[5] = 20.0f;
  Tensor input(Shape{2, 1, 1}, {1.0f, 1.0f});
  const Tensor out = dense.forward(input);
  EXPECT_FLOAT_EQ(out[0], 13.0f);
  EXPECT_FLOAT_EQ(out[1], 27.0f);
}

TEST(Dense, RejectsWrongInputSize) {
  Rng rng(14);
  Dense dense(4, 2, rng);
  EXPECT_THROW(dense.output_shape(Shape{5, 1, 1}), std::invalid_argument);
}

TEST(Dense, BackwardRejectsMismatchedGradShape) {
  Rng rng(19);
  Dense dense(4, 3, rng);
  (void)dense.forward(random_tensor(Shape{4, 1, 1}, rng));
  EXPECT_THROW(dense.backward(Tensor(std::size_t{1})), std::invalid_argument);
}

TEST(Dense, GradientCheckInput) {
  Rng rng(15);
  Dense dense(6, 4, rng);
  check_input_gradient(dense, random_tensor(Shape{6, 1, 1}, rng));
}

TEST(Dense, GradientCheckParams) {
  Rng rng(16);
  Dense dense(5, 3, rng);
  check_param_gradient(dense, random_tensor(Shape{5, 1, 1}, rng));
}

TEST(Layers, CloneIsDeepForParams) {
  Rng rng(17);
  Dense dense(2, 2, rng);
  auto clone = dense.clone();
  clone->parameters()[0] = 123.0f;
  EXPECT_NE(dense.parameters()[0], 123.0f);
}

TEST(Layers, KindNamesAndLabels) {
  Rng rng(18);
  Dense dense(1, 1, rng);
  EXPECT_EQ(to_string(dense.kind()), "Dense");
  dense.set_label("FC2");
  EXPECT_EQ(dense.label(), "FC2");
}

}  // namespace
}  // namespace ftnav

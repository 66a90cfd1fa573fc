// Tests for the quantized inference engine: buffer semantics, fault
// hooks, and the anomaly-detection hardening path.

#include <gtest/gtest.h>

#include <cstring>

#include "nn/kernels/kernels.h"
#include "nn/quantized_engine.h"

namespace ftnav {
namespace {

Network tiny_net(Rng& rng) {
  Network net;
  net.add(std::make_unique<Dense>(4, 8, rng)).set_label("FC1");
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(8, 3, rng)).set_label("FC2");
  return net;
}

Tensor test_input() {
  return Tensor(Shape{4, 1, 1}, {0.5f, -0.25f, 1.0f, 0.125f});
}

TEST(QuantizedEngine, FaultFreeMatchesQuantizedNetwork) {
  Rng rng(1);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  Rng run(2);
  const Tensor engine_out = engine.infer(test_input(), run);
  // High-resolution 16-bit quantization: engine output must agree with
  // the float network to within a few LSBs accumulated across layers.
  const Tensor float_out = net.forward(test_input());
  for (std::size_t i = 0; i < engine_out.size(); ++i)
    EXPECT_NEAR(engine_out[i], float_out[i], 0.02) << "output " << i;
}

TEST(QuantizedEngine, RejectsWrongInputShape) {
  Rng rng(3);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  Rng run(4);
  EXPECT_THROW(engine.infer(Tensor(Shape{3, 1, 1}), run),
               std::invalid_argument);
}

TEST(QuantizedEngine, GoldenNetworkIsNotMutated) {
  Rng rng(5);
  Network net = tiny_net(rng);
  const auto before = net.snapshot_parameters();
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  Rng run(6);
  FaultMap map = FaultMap::sample(FaultType::kTransientFlip, 0.1,
                                  engine.weight_word_count(), 16, run);
  engine.inject_weight_faults(map);
  (void)engine.infer(test_input(), run);
  EXPECT_EQ(net.snapshot_parameters(), before);
}

TEST(QuantizedEngine, WeightFaultsChangeOutputAndResetRestores) {
  Rng rng(7);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  Rng run(8);
  const Tensor clean = engine.infer(test_input(), run);

  Rng fault_rng(9);
  FaultMap map = FaultMap::sample(FaultType::kTransientFlip, 0.05,
                                  engine.weight_word_count(), 16, fault_rng);
  engine.inject_weight_faults(map);
  const Tensor faulty = engine.infer(test_input(), run);
  double delta = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i)
    delta += std::abs(clean[i] - faulty[i]);
  EXPECT_GT(delta, 1e-6);

  engine.reset_faults();
  const Tensor restored = engine.infer(test_input(), run);
  for (std::size_t i = 0; i < clean.size(); ++i)
    EXPECT_FLOAT_EQ(restored[i], clean[i]);
}

TEST(QuantizedEngine, InjectWeightFaultsRejectsPermanentMap) {
  Rng rng(10);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  FaultMap map(FaultType::kStuckAt0, {FaultSite{0, 0}});
  EXPECT_THROW(engine.inject_weight_faults(map), std::invalid_argument);
}

TEST(QuantizedEngine, StuckAt1WeightsDistortMoreThanStuckAt0) {
  // The paper's core asymmetry (Fig. 2d discussion): sparse weights
  // have far more 0 bits, so stuck-at-1 injects many more faulty bits.
  Rng rng(11);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  Rng run(12);
  const Tensor clean = engine.infer(test_input(), run);

  auto distortion = [&](FaultType type) {
    Rng fault_rng(13);  // same sites for both types
    engine.reset_faults();
    FaultMap map = FaultMap::sample(type, 0.02, engine.weight_word_count(),
                                    16, fault_rng);
    engine.set_weight_stuck(StuckAtMask::compile(map));
    const Tensor out = engine.infer(test_input(), run);
    double total = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      total += std::abs(out[i] - clean[i]);
    return total;
  };
  EXPECT_GT(distortion(FaultType::kStuckAt1),
            distortion(FaultType::kStuckAt0));
}

TEST(QuantizedEngine, LayerTargetedFaultsStayInLayer) {
  Rng rng(14);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  ASSERT_EQ(engine.parametered_layer_count(), 2u);
  const auto [b0, e0] = engine.layer_range(0);
  const auto [b1, e1] = engine.layer_range(1);
  EXPECT_EQ(e0, b1);
  EXPECT_EQ(e1, engine.weight_word_count());
  EXPECT_GT(e0, b0);
}

TEST(QuantizedEngine, DynamicActivationFaultsAreStochastic) {
  Rng rng(15);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  engine.set_activation_transient_ber(0.05);
  Rng run(16);
  const Tensor a = engine.infer(test_input(), run);
  const Tensor b = engine.infer(test_input(), run);
  double delta = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    delta += std::abs(a[i] - b[i]);
  EXPECT_GT(delta, 0.0);  // different dynamic fault draws
}

TEST(QuantizedEngine, ActivationBufferSizeIsMaxLayerOutput) {
  Rng rng(17);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  EXPECT_EQ(engine.activation_buffer_size(), 8u);
}

TEST(QuantizedEngine, WeightProtectionFiltersInjectedOutliers) {
  Rng rng(18);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_10_5(), Shape{4, 1, 1});
  Rng run(19);
  const Tensor clean = engine.infer(test_input(), run);

  // Flip high bits of many weights: huge outliers under Q(1,10,5).
  Rng fault_rng(20);
  FaultMap map = FaultMap::sample(FaultType::kTransientFlip, 0.05,
                                  engine.weight_word_count(), 16, fault_rng);
  engine.inject_weight_faults(map);
  const Tensor unprotected = engine.infer(test_input(), run);

  engine.enable_weight_protection(0.1);
  const Tensor protected_out = engine.infer(test_input(), run);
  ASSERT_NE(engine.weight_detector(), nullptr);
  EXPECT_GT(engine.weight_detector()->detections(), 0u);

  double err_unprotected = 0.0, err_protected = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    err_unprotected += std::abs(unprotected[i] - clean[i]);
    err_protected += std::abs(protected_out[i] - clean[i]);
  }
  EXPECT_LT(err_protected, err_unprotected);
}


TEST(QuantizedEngine, ActivationFaultsOnlyHitReluOutputs) {
  // A network without ReLU layers has no activation-buffer residents,
  // so dynamic activation faults must be no-ops.
  Rng rng(30);
  Network net;
  net.add(std::make_unique<Dense>(4, 6, rng));
  net.add(std::make_unique<Dense>(6, 3, rng));
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  Rng run(31);
  const Tensor clean = engine.infer(test_input(), run);
  engine.set_activation_transient_ber(0.2);
  const Tensor faulty = engine.infer(test_input(), run);
  for (std::size_t i = 0; i < clean.size(); ++i)
    EXPECT_FLOAT_EQ(faulty[i], clean[i]);
}

TEST(QuantizedEngine, ActMatchesArgmaxOfInfer) {
  Rng rng(21);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  Rng run_a(22), run_b(22);
  const Tensor out = engine.infer(test_input(), run_a);
  EXPECT_EQ(engine.act(test_input(), run_b), out.argmax());
}

TEST(QuantizedEngine, BackendsBitIdentical) {
  // The whole point of the kernel layer: scalar and SIMD engines give
  // the same bits, under faults included. Conv + pool + flatten +
  // dense exercises every dispatched kernel.
  if (!kernels::avx2_supported())
    GTEST_SKIP() << "AVX2 backend unavailable on this host";
  Rng rng(40);
  Network net;
  net.add(std::make_unique<Conv2D>(2, 4, 3, 1, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<MaxPool2D>(2));
  net.add(std::make_unique<Flatten>());
  net.add(std::make_unique<Dense>(4 * 4 * 4, 5, rng));
  const Shape input_shape{2, 10, 10};
  Tensor input(input_shape);
  Rng fill(41);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(fill.normal(0.0, 1.0));

  auto run = [&](const kernels::KernelOps& ops) {
    kernels::ScopedKernelBackend pin(ops);
    QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), input_shape);
    EXPECT_STREQ(engine.backend_name(), ops.name);
    Rng fault_rng(42);
    engine.inject_weight_faults(FaultMap::sample(
        FaultType::kTransientFlip, 0.02, engine.weight_word_count(),
        engine.format().total_bits(), fault_rng));
    engine.set_weight_stuck(StuckAtMask::compile(FaultMap::sample(
        FaultType::kStuckAt1, 0.01, engine.weight_word_count(),
        engine.format().total_bits(), fault_rng)));
    Rng run_rng(43);
    return engine.infer(input, run_rng);
  };
  const Tensor scalar_out = run(kernels::scalar_ops());
  const Tensor avx2_out = run(*kernels::avx2_ops());
  ASSERT_EQ(scalar_out.size(), avx2_out.size());
  for (std::size_t i = 0; i < scalar_out.size(); ++i) {
    const float sv = scalar_out[i], av = avx2_out[i];
    std::uint32_t a, b;
    std::memcpy(&a, &sv, sizeof(a));
    std::memcpy(&b, &av, sizeof(b));
    EXPECT_EQ(a, b) << "output " << i;
  }
}

TEST(QuantizedEngine, PersistentEngineMatchesFreshEngine) {
  // A campaign shard keeps one engine and restores its golden
  // weight image between trials; a fresh engine per trial must be
  // indistinguishable, fault history and detector state included.
  Rng rng(50);
  Network net = tiny_net(rng);
  const QFormat fmt = QFormat::q_1_4_11();
  QuantizedInferenceEngine resident(net, fmt, Shape{4, 1, 1});
  resident.enable_weight_protection(0.1);
  for (int trial = 0; trial < 8; ++trial) {
    QuantizedInferenceEngine fresh(net, fmt, Shape{4, 1, 1});
    fresh.enable_weight_protection(0.1);
    const std::uint64_t before = resident.weight_detector()->detections();

    resident.reset_faults();
    Rng fault_a(60 + trial), fault_b(60 + trial);
    resident.inject_weight_faults(
        FaultMap::sample(FaultType::kTransientFlip, 0.03,
                         resident.weight_word_count(), 16, fault_a));
    fresh.inject_weight_faults(
        FaultMap::sample(FaultType::kTransientFlip, 0.03,
                         fresh.weight_word_count(), 16, fault_b));
    Rng run_a(70 + trial), run_b(70 + trial);
    const Tensor out_resident = resident.infer(test_input(), run_a);
    const Tensor out_fresh = fresh.infer(test_input(), run_b);
    for (std::size_t i = 0; i < out_fresh.size(); ++i)
      EXPECT_FLOAT_EQ(out_resident[i], out_fresh[i])
          << "trial " << trial << " output " << i;
    // Per-trial detections read as a delta off the resident counter.
    EXPECT_EQ(resident.weight_detector()->detections() - before,
              fresh.weight_detector()->detections())
        << "trial " << trial;
  }
}

TEST(QuantizedEngine, InputStuckFaultsApplyEveryInference) {
  Rng rng(23);
  Network net = tiny_net(rng);
  QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(), Shape{4, 1, 1});
  Rng run(24);
  const Tensor clean = engine.infer(test_input(), run);
  // Stick the sign bit of input word 2 (value 1.0 -> large negative).
  const QFormat fmt = QFormat::q_1_4_11();
  StuckAtMask mask = StuckAtMask::compile(FaultMap(
      FaultType::kStuckAt1,
      {FaultSite{2, static_cast<std::uint8_t>(fmt.sign_bit())}}));
  engine.set_input_stuck(mask);
  const Tensor faulty1 = engine.infer(test_input(), run);
  const Tensor faulty2 = engine.infer(test_input(), run);
  double delta = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    delta += std::abs(clean[i] - faulty1[i]);
    EXPECT_FLOAT_EQ(faulty1[i], faulty2[i]);  // deterministic
  }
  EXPECT_GT(delta, 1e-6);
}

}  // namespace
}  // namespace ftnav

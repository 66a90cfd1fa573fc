// Tests for the injection engines: stuck-at mask compilation/merging,
// transient value injection, and quantization round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/injector.h"
#include "nn/kernels/kernels.h"

namespace ftnav {
namespace {

TEST(StuckAtMask, CompileRejectsTransient) {
  FaultMap map(FaultType::kTransientFlip, {FaultSite{0, 0}});
  EXPECT_THROW(StuckAtMask::compile(map), std::invalid_argument);
}

TEST(StuckAtMask, ApplyForcesBits) {
  FaultMap map(FaultType::kStuckAt1, {FaultSite{0, 1}, FaultSite{2, 7}});
  const StuckAtMask mask = StuckAtMask::compile(map);
  std::vector<Word> words = {0x00, 0x00, 0x00};
  mask.apply(words);
  EXPECT_EQ(words[0], 0x02u);
  EXPECT_EQ(words[1], 0x00u);
  EXPECT_EQ(words[2], 0x80u);
}

TEST(StuckAtMask, SurvivesRewrites) {
  FaultMap map(FaultType::kStuckAt0, {FaultSite{0, 0}});
  const StuckAtMask mask = StuckAtMask::compile(map);
  std::vector<Word> words = {0xff};
  mask.apply(words);
  EXPECT_EQ(words[0], 0xfeu);
  words[0] = 0xff;  // software writes over the cell...
  mask.apply(words);
  EXPECT_EQ(words[0], 0xfeu);  // ...but the bit is still broken
}

TEST(StuckAtMask, MergesMultipleSitesPerWord) {
  FaultMap map(FaultType::kStuckAt1,
               {FaultSite{0, 0}, FaultSite{0, 3}, FaultSite{0, 5}});
  const StuckAtMask mask = StuckAtMask::compile(map);
  EXPECT_EQ(mask.faulty_word_count(), 1u);
  std::vector<Word> words = {0x00};
  mask.apply(words);
  EXPECT_EQ(words[0], 0b101001u);
}

TEST(StuckAtMask, MergeCombinesMasks) {
  StuckAtMask a = StuckAtMask::compile(
      FaultMap(FaultType::kStuckAt0, {FaultSite{0, 0}}));
  const StuckAtMask b = StuckAtMask::compile(
      FaultMap(FaultType::kStuckAt1, {FaultSite{0, 1}, FaultSite{1, 2}}));
  a.merge(b);
  EXPECT_EQ(a.faulty_word_count(), 2u);
  std::vector<Word> words = {0xff, 0x00};
  a.apply(words);
  EXPECT_EQ(words[0], 0xfeu | 0x02u);
  EXPECT_EQ(words[1], 0x04u);
}

TEST(StuckAtMask, EmptyMaskIsNoOp) {
  StuckAtMask mask;
  EXPECT_TRUE(mask.empty());
  std::vector<Word> words = {0xab};
  mask.apply(words);
  EXPECT_EQ(words[0], 0xabu);
}

TEST(InjectTransient, FlipsBufferBits) {
  QVector buffer(QFormat(3, 4), 4);
  buffer.set(0, 1.0);
  FaultMap map(FaultType::kTransientFlip, {FaultSite{0, 4}});
  inject_transient(buffer, map);
  EXPECT_NE(buffer.get(0), 1.0);
}

TEST(InjectTransient, RejectsPermanentMap) {
  QVector buffer(QFormat(3, 4), 4);
  FaultMap map(FaultType::kStuckAt0, {FaultSite{0, 0}});
  EXPECT_THROW(inject_transient(buffer, map), std::invalid_argument);
}

TEST(InjectTransientValues, FlipCountMatchesBer) {
  Rng rng(9);
  std::vector<float> values(1000, 0.0f);
  const QFormat fmt(3, 4);
  const std::size_t flips =
      inject_transient_values(values, fmt, 0.01, rng);
  EXPECT_EQ(flips, 80u);  // 1000 words * 8 bits * 1%
  // Flipping a zero word always produces a nonzero value.
  std::size_t changed = 0;
  for (float v : values)
    if (v != 0.0f) ++changed;
  EXPECT_GT(changed, 0u);
  EXPECT_LE(changed, flips);
}

TEST(InjectTransientValues, ZeroBerIsNoOp) {
  Rng rng(10);
  std::vector<float> values = {1.0f, 2.0f};
  EXPECT_EQ(inject_transient_values(values, QFormat(3, 4), 0.0, rng), 0u);
  EXPECT_EQ(values[0], 1.0f);
  EXPECT_EQ(values[1], 2.0f);
}

TEST(InjectTransientValues, ResultStaysRepresentable) {
  Rng rng(11);
  const QFormat fmt(4, 11);
  std::vector<float> values(64, 0.5f);
  inject_transient_values(values, fmt, 0.2, rng);
  for (float v : values) {
    EXPECT_GE(v, fmt.min_value());
    EXPECT_LE(v, fmt.max_value());
  }
}

TEST(EnforceStuckValues, ForcesValuesThroughEncoding) {
  const QFormat fmt(3, 4);
  // Stick the sign bit of word 0 to one: any value becomes negative.
  const StuckAtMask mask = StuckAtMask::compile(
      FaultMap(FaultType::kStuckAt1, {FaultSite{0, 7}}));
  std::vector<float> values = {1.0f, 1.0f};
  enforce_stuck_values(values, fmt, mask);
  EXPECT_LT(values[0], 0.0f);
  EXPECT_EQ(values[1], 1.0f);
}

TEST(EnforceStuckValues, EmptyMaskPreservesValuesExactly) {
  const QFormat fmt(3, 4);
  std::vector<float> values = {0.33f};  // not representable
  enforce_stuck_values(values, fmt, StuckAtMask());
  // Fast path: empty mask must not even quantize.
  EXPECT_FLOAT_EQ(values[0], 0.33f);
}

TEST(EnforceStuckValues, TouchesOnlyStuckWords) {
  // Oracle: the whole-tensor round trip -- encode every value, force
  // the stuck bits, decode every value. On quantized inputs the clean
  // words round-trip unchanged, so enforcing only the stuck words must
  // give the same bits.
  const auto whole_tensor = [](std::vector<float> values,
                               const QFormat& format,
                               const StuckAtMask& mask) {
    std::vector<Word> words(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
      words[i] = format.encode(values[i]);
    mask.apply(words);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = static_cast<float>(format.decode(words[i]));
    return values;
  };
  const QFormat formats[] = {QFormat::drone_weights(),
                             QFormat::q_1_7_8(Encoding::kSignMagnitude),
                             QFormat::q_1_10_5(), QFormat(3, 4)};
  Rng rng(77);
  for (const QFormat& format : formats) {
    for (int round = 0; round < 40; ++round) {
      const std::size_t size = 1 + rng.below(300);
      std::vector<float> values(size);
      for (float& v : values)
        v = static_cast<float>(rng.uniform(-1.5, 1.5) * format.max_value());
      // Some exact zeros, as a ReLU leaves them.
      for (std::size_t i = 0; i < size; i += 7) values[i] = 0.0f;
      kernels::scalar_ops().quantize(values.data(), values.size(), format);
      // Masks compiled for a buffer up to twice as long reach past the
      // span, as the activation mask does on the smaller layers.
      const std::size_t mask_words = size + rng.below(size + 1);
      const double ber = rng.uniform(0.0, 0.2);
      StuckAtMask mask = StuckAtMask::compile(
          FaultMap::sample(FaultType::kStuckAt0, ber, mask_words,
                           format.total_bits(), rng));
      mask.merge(StuckAtMask::compile(
          FaultMap::sample(FaultType::kStuckAt1, ber, mask_words,
                           format.total_bits(), rng)));
      const std::vector<float> expected = whole_tensor(values, format, mask);
      enforce_stuck_values(values, format, mask);
      ASSERT_EQ(std::memcmp(values.data(), expected.data(),
                            size * sizeof(float)),
                0)
          << format.name() << " round " << round;
    }
  }
}

// The scalar quantize kernel, the reference every backend's quantize
// reproduces.
TEST(QuantizeValues, RoundsEveryElement) {
  const QFormat fmt(3, 4);
  std::vector<float> values = {0.3f, -0.3f, 100.0f};
  kernels::scalar_ops().quantize(values.data(), values.size(), fmt);
  EXPECT_FLOAT_EQ(values[0], 0.3125f);
  EXPECT_FLOAT_EQ(values[1], -0.3125f);
  EXPECT_FLOAT_EQ(values[2], 7.9375f);
}

TEST(QuantizeValues, IdempotentOnRepresentable) {
  const QFormat fmt(4, 11);
  std::vector<float> values = {1.5f, -2.25f};
  const auto quantize = kernels::scalar_ops().quantize;
  quantize(values.data(), values.size(), fmt);
  const auto once = values;
  quantize(values.data(), values.size(), fmt);
  EXPECT_EQ(values, once);
}

}  // namespace
}  // namespace ftnav

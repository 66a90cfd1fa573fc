// Tests for the fault model: BER sampling, site uniqueness, apply
// semantics for every fault type.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "core/fault_model.h"

namespace ftnav {
namespace {

TEST(FaultModel, FaultBitsForBerRounding) {
  EXPECT_EQ(fault_bits_for_ber(0.0, 100, 8), 0u);
  EXPECT_EQ(fault_bits_for_ber(1.0, 100, 8), 800u);
  EXPECT_EQ(fault_bits_for_ber(0.001, 1000, 8), 8u);
  EXPECT_EQ(fault_bits_for_ber(0.5, 10, 8), 40u);
}

TEST(FaultModel, FaultBitsRejectsBadBer) {
  EXPECT_THROW(fault_bits_for_ber(-0.1, 10, 8), std::invalid_argument);
  EXPECT_THROW(fault_bits_for_ber(1.1, 10, 8), std::invalid_argument);
}

TEST(FaultModel, SampleCountIsExact) {
  Rng rng(1);
  const auto map =
      FaultMap::sample(FaultType::kTransientFlip, 0.1, 100, 8, rng);
  EXPECT_EQ(map.size(), 80u);
}

TEST(FaultModel, SitesAreDistinct) {
  Rng rng(2);
  const auto map =
      FaultMap::sample(FaultType::kTransientFlip, 0.5, 50, 8, rng);
  std::set<std::pair<std::uint32_t, int>> seen;
  for (const FaultSite& s : map.sites())
    EXPECT_TRUE(seen.insert({s.word_index, s.bit}).second);
}

TEST(FaultModel, SitesWithinBounds) {
  Rng rng(3);
  const auto map =
      FaultMap::sample(FaultType::kStuckAt1, 1.0, 20, 6, rng);
  EXPECT_EQ(map.size(), 120u);
  for (const FaultSite& s : map.sites()) {
    EXPECT_LT(s.word_index, 20u);
    EXPECT_LT(s.bit, 6);
  }
}

TEST(FaultModel, RejectsOversampling) {
  Rng rng(4);
  EXPECT_THROW(FaultMap::sample_count(FaultType::kStuckAt0, 81, 10, 8, rng),
               std::invalid_argument);
}

TEST(FaultModel, RejectsBadWordWidth) {
  Rng rng(5);
  EXPECT_THROW(FaultMap::sample(FaultType::kStuckAt0, 0.1, 10, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(FaultMap::sample(FaultType::kStuckAt0, 0.1, 10, 33, rng),
               std::invalid_argument);
}

TEST(FaultModel, ApplyOnceTransientFlips) {
  FaultMap map(FaultType::kTransientFlip,
               {FaultSite{0, 0}, FaultSite{1, 7}});
  std::vector<Word> words = {0x00, 0xff};
  map.apply_once(words);
  EXPECT_EQ(words[0], 0x01u);
  EXPECT_EQ(words[1], 0x7fu);
  // Applying twice restores (XOR involution).
  map.apply_once(words);
  EXPECT_EQ(words[0], 0x00u);
  EXPECT_EQ(words[1], 0xffu);
}

TEST(FaultModel, ApplyOnceStuckAt) {
  FaultMap sa0(FaultType::kStuckAt0, {FaultSite{0, 3}});
  FaultMap sa1(FaultType::kStuckAt1, {FaultSite{0, 2}});
  std::vector<Word> words = {0xff};
  sa0.apply_once(words);
  EXPECT_EQ(words[0], 0xf7u);
  words[0] = 0x00;
  sa1.apply_once(words);
  EXPECT_EQ(words[0], 0x04u);
}

TEST(FaultModel, ApplyIgnoresOutOfRangeSites) {
  FaultMap map(FaultType::kTransientFlip, {FaultSite{5, 0}});
  std::vector<Word> words = {0x00};
  map.apply_once(words);  // must not crash or write
  EXPECT_EQ(words[0], 0x00u);
}

TEST(FaultModel, SliceRebasesIndices) {
  FaultMap map(FaultType::kTransientFlip,
               {FaultSite{2, 1}, FaultSite{5, 2}, FaultSite{9, 3}});
  const FaultMap sliced = map.slice(4, 8);
  ASSERT_EQ(sliced.size(), 1u);
  EXPECT_EQ(sliced.sites()[0].word_index, 1u);
  EXPECT_EQ(sliced.sites()[0].bit, 2);
}

TEST(FaultModel, PermanentClassification) {
  EXPECT_FALSE(is_permanent(FaultType::kTransientFlip));
  EXPECT_TRUE(is_permanent(FaultType::kStuckAt0));
  EXPECT_TRUE(is_permanent(FaultType::kStuckAt1));
}

TEST(FaultModel, Names) {
  EXPECT_EQ(to_string(FaultType::kTransientFlip), "transient");
  EXPECT_EQ(to_string(FaultType::kStuckAt0), "stuck-at-0");
  EXPECT_EQ(to_string(FaultType::kStuckAt1), "stuck-at-1");
  EXPECT_EQ(to_string(BufferKind::kWeight), "weight");
  EXPECT_EQ(to_string(BufferKind::kTabular), "tabular");
}

TEST(FaultModel, SamplingIsSeedDeterministic) {
  Rng a(77), b(77);
  const auto map_a =
      FaultMap::sample(FaultType::kTransientFlip, 0.2, 64, 8, a);
  const auto map_b =
      FaultMap::sample(FaultType::kTransientFlip, 0.2, 64, 8, b);
  ASSERT_EQ(map_a.size(), map_b.size());
  for (std::size_t i = 0; i < map_a.size(); ++i)
    EXPECT_EQ(map_a.sites()[i], map_b.sites()[i]);
}

TEST(FaultModel, SamplingCoversWholeBuffer) {
  Rng rng(78);
  const auto map =
      FaultMap::sample(FaultType::kTransientFlip, 1.0, 16, 4, rng);
  std::set<std::uint32_t> words;
  for (const FaultSite& s : map.sites()) words.insert(s.word_index);
  EXPECT_EQ(words.size(), 16u);
}

/// The sampler as it was before its bit set: distinct positions kept
/// in a std::unordered_set. The oracle for the draws' sites and order.
std::vector<FaultSite> set_reference_sample(std::size_t fault_bits,
                                            std::size_t words,
                                            int bits_per_word, Rng& rng) {
  const std::size_t total = words * static_cast<std::size_t>(bits_per_word);
  std::vector<FaultSite> sites;
  std::unordered_set<std::uint64_t> chosen;
  while (chosen.size() < fault_bits) {
    const std::uint64_t pos = rng.below(total);
    if (!chosen.insert(pos).second) continue;
    sites.push_back(FaultSite{
        static_cast<std::uint32_t>(pos / static_cast<std::size_t>(bits_per_word)),
        static_cast<std::uint8_t>(pos % static_cast<std::size_t>(bits_per_word))});
  }
  return sites;
}

TEST(FaultModel, SamplingMatchesSetReference) {
  struct Draw {
    std::size_t fault_bits, words;
    int bits_per_word;
  };
  // Zero, sparse and dense (every position) counts, back to back on one
  // generator, so a mark left behind by one call would show in the next.
  const Draw draws[] = {{0, 100, 8},       {5, 100, 8},    {800, 100, 8},
                        {56, 34841, 16},   {0, 34841, 16}, {32, 1, 32},
                        {55746, 34841, 16}, {3, 3, 1},     {3, 3, 1},
                        {129, 130, 1},     {7, 1000, 32}};
  Rng rng(2024);
  Rng reference_rng(2024);
  for (const Draw& d : draws) {
    SCOPED_TRACE(testing::Message() << d.fault_bits << " of " << d.words
                                    << " x " << d.bits_per_word);
    const FaultMap map = FaultMap::sample_count(
        FaultType::kTransientFlip, d.fault_bits, d.words, d.bits_per_word,
        rng);
    const std::vector<FaultSite> expected = set_reference_sample(
        d.fault_bits, d.words, d.bits_per_word, reference_rng);
    ASSERT_EQ(std::vector<FaultSite>(map.sites().begin(), map.sites().end()),
              expected);
  }
  EXPECT_EQ(rng.below(1u << 30), reference_rng.below(1u << 30));
}

}  // namespace
}  // namespace ftnav

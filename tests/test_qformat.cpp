// Tests for fixed-point Q formats: encode/decode round-trips,
// saturation, bit manipulation, the paper's specific formats, the
// bit-exactness of the branchless encode/quantize fast paths against a
// straightforward std::nearbyint reference, and of the inline
// encode/decode against reference bodies that cache nothing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "fixed/qformat.h"
#include "util/rng.h"

namespace ftnav {
namespace {

TEST(QFormat, RejectsInvalidWidths) {
  EXPECT_THROW(QFormat(-1, 4), std::invalid_argument);
  EXPECT_THROW(QFormat(4, -1), std::invalid_argument);
  EXPECT_THROW(QFormat(20, 15), std::invalid_argument);  // > 32 bits
  EXPECT_THROW(QFormat(0, 0), std::invalid_argument);    // < 2 bits
}

TEST(QFormat, PaperFormats) {
  EXPECT_EQ(QFormat::grid_world_8bit().total_bits(), 8);
  EXPECT_EQ(QFormat::q_1_4_11().total_bits(), 16);
  EXPECT_EQ(QFormat::q_1_7_8().total_bits(), 16);
  EXPECT_EQ(QFormat::q_1_10_5().total_bits(), 16);
  EXPECT_EQ(QFormat::q_1_4_11().name(), "Q(1,4,11)");
}

TEST(QFormat, RangeOfGridWorldFormat) {
  const QFormat fmt = QFormat::grid_world_8bit();  // Q(1,3,4)
  EXPECT_DOUBLE_EQ(fmt.min_value(), -8.0);
  EXPECT_DOUBLE_EQ(fmt.max_value(), 7.9375);
  EXPECT_DOUBLE_EQ(fmt.resolution(), 0.0625);
}

TEST(QFormat, ExactValuesRoundTrip) {
  const QFormat fmt(3, 4);
  for (double v = -8.0; v <= 7.9375; v += 0.0625)
    EXPECT_DOUBLE_EQ(fmt.decode(fmt.encode(v)), v) << "value " << v;
}

TEST(QFormat, RoundsToNearest) {
  const QFormat fmt(3, 4);
  EXPECT_DOUBLE_EQ(fmt.decode(fmt.encode(0.04)), 0.0625);   // 0.64 lsb rounds up
  EXPECT_DOUBLE_EQ(fmt.decode(fmt.encode(0.02)), 0.0);
  EXPECT_DOUBLE_EQ(fmt.decode(fmt.encode(-0.05)), -0.0625);
}

TEST(QFormat, SaturatesAtBounds) {
  const QFormat fmt(3, 4);
  EXPECT_DOUBLE_EQ(fmt.decode(fmt.encode(100.0)), fmt.max_value());
  EXPECT_DOUBLE_EQ(fmt.decode(fmt.encode(-100.0)), fmt.min_value());
}

TEST(QFormat, NanEncodesToZero) {
  const QFormat fmt(3, 4);
  EXPECT_DOUBLE_EQ(fmt.decode(fmt.encode(std::nan(""))), 0.0);
}

TEST(QFormat, TwosComplementSign) {
  const QFormat fmt(3, 4);
  const Word minus_one = fmt.encode(-1.0);
  EXPECT_TRUE(get_bit(minus_one, fmt.sign_bit()));
  EXPECT_EQ(fmt.to_raw(minus_one), -16);  // -1.0 / 2^-4
}

TEST(QFormat, WordMaskCoversTotalBits) {
  EXPECT_EQ(QFormat(3, 4).word_mask(), 0xffu);
  EXPECT_EQ(QFormat(7, 8).word_mask(), 0xffffu);
}

TEST(QFormat, SignIntegerMaskExcludesFraction) {
  const QFormat fmt(3, 4);
  // Bits 4..7 are integer+sign, bits 0..3 fraction.
  EXPECT_EQ(fmt.sign_integer_mask(), 0xf0u);
}

TEST(QFormat, FromRawSaturates) {
  const QFormat fmt(3, 4);
  EXPECT_EQ(fmt.to_raw(fmt.from_raw(1000)), 127);
  EXPECT_EQ(fmt.to_raw(fmt.from_raw(-1000)), -128);
  EXPECT_EQ(fmt.to_raw(fmt.from_raw(-3)), -3);
}

TEST(QFormatBits, FlipIsInvolution) {
  Word w = 0b10110010;
  EXPECT_EQ(flip_bit(flip_bit(w, 3), 3), w);
  EXPECT_NE(flip_bit(w, 3), w);
}

TEST(QFormatBits, StickForcesValue) {
  const Word w = 0b1010;
  EXPECT_FALSE(get_bit(stick_bit_to_zero(w, 1), 1));
  EXPECT_TRUE(get_bit(stick_bit_to_one(w, 0), 0));
  // Idempotent.
  EXPECT_EQ(stick_bit_to_zero(stick_bit_to_zero(w, 1), 1),
            stick_bit_to_zero(w, 1));
}

TEST(QFormat, MsbFlipChangesSignDramatically) {
  // The mechanism behind the paper's "high-magnitude faulty values":
  // flipping the sign/MSB of a small value under two's complement
  // produces a far-from-zero value.
  const QFormat fmt = QFormat::q_1_10_5();
  const Word small = fmt.encode(0.5);
  const double flipped = fmt.decode(flip_bit(small, fmt.sign_bit()));
  EXPECT_LT(flipped, -1000.0);
}

// ---- sign-magnitude encoding ------------------------------------------

TEST(SignMagnitude, SymmetricRange) {
  const QFormat fmt(3, 4, Encoding::kSignMagnitude);
  EXPECT_DOUBLE_EQ(fmt.max_value(), 7.9375);
  EXPECT_DOUBLE_EQ(fmt.min_value(), -7.9375);
}

TEST(SignMagnitude, EncodeDecodeRoundTrip) {
  const QFormat fmt = QFormat::grid_world_weights();
  for (double v = fmt.min_value(); v <= fmt.max_value();
       v += fmt.resolution())
    EXPECT_DOUBLE_EQ(fmt.decode(fmt.encode(v)), v) << "value " << v;
}

TEST(SignMagnitude, NegativeValuesSetOnlySignPlusMagnitudeBits) {
  const QFormat fmt = QFormat::grid_world_weights();  // Q(1,3,4)sm
  const Word w = fmt.encode(-0.0625);  // magnitude 1
  EXPECT_EQ(w, 0x81u);
  EXPECT_EQ(fmt.encode(0.0625), 0x01u);
}

TEST(SignMagnitude, NearZeroWeightsAreZeroDominated) {
  // The property that drives the paper's stuck-at-1 asymmetry: under
  // sign-magnitude, small weights of EITHER sign encode with almost all
  // zero bits (two's complement would fill negatives with ones).
  const QFormat sm = QFormat::grid_world_weights();
  const QFormat tc = sm.with_encoding(Encoding::kTwosComplement);
  std::uint64_t sm_ones = 0, tc_ones = 0;
  for (double v = -0.25; v <= 0.25; v += sm.resolution()) {
    sm_ones += static_cast<std::uint64_t>(__builtin_popcount(sm.encode(v)));
    tc_ones += static_cast<std::uint64_t>(__builtin_popcount(tc.encode(v)));
  }
  EXPECT_LT(sm_ones * 3, tc_ones * 2);  // sm uses ~half the one-bits
}

TEST(SignMagnitude, NegativeZeroDecodesToZero) {
  const QFormat fmt = QFormat::grid_world_weights();
  const Word negative_zero = Word{1} << fmt.sign_bit();
  EXPECT_DOUBLE_EQ(fmt.decode(negative_zero), 0.0);
}

TEST(SignMagnitude, WithEncodingPreservesWidths) {
  const QFormat fmt = QFormat::q_1_4_11();
  const QFormat sm = fmt.with_encoding(Encoding::kSignMagnitude);
  EXPECT_EQ(sm.total_bits(), fmt.total_bits());
  EXPECT_EQ(sm.name(), "Q(1,4,11)sm");
  EXPECT_EQ(to_string(sm.encoding()), "sign-magnitude");
}

TEST(SignMagnitude, FactoryFormats) {
  EXPECT_EQ(QFormat::drone_weights().encoding(), Encoding::kSignMagnitude);
  EXPECT_EQ(QFormat::grid_world_weights().total_bits(), 8);
  EXPECT_EQ(QFormat::q_1_7_8(Encoding::kSignMagnitude).encoding(),
            Encoding::kSignMagnitude);
}

// ---- property sweep over all paper formats ---------------------------

class QFormatSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QFormatSweep, RoundTripAndMonotonicity) {
  const auto [int_bits, frac_bits] = GetParam();
  const QFormat fmt(int_bits, frac_bits);
  double prev = fmt.min_value() - 1.0;
  for (int raw = -(1 << (fmt.total_bits() - 1));
       raw < (1 << (fmt.total_bits() - 1)); raw += 7) {
    const double v = fmt.decode(fmt.from_raw(raw));
    EXPECT_GE(v, fmt.min_value());
    EXPECT_LE(v, fmt.max_value());
    EXPECT_GT(v, prev);  // decode is strictly increasing in raw
    prev = v;
    // Re-encoding a representable value is the identity.
    EXPECT_EQ(fmt.encode(v), fmt.from_raw(raw));
  }
}

TEST_P(QFormatSweep, ResolutionIsSmallestStep) {
  const auto [int_bits, frac_bits] = GetParam();
  const QFormat fmt(int_bits, frac_bits);
  const double step = fmt.decode(fmt.from_raw(1)) - fmt.decode(fmt.from_raw(0));
  EXPECT_DOUBLE_EQ(step, fmt.resolution());
}

INSTANTIATE_TEST_SUITE_P(PaperFormats, QFormatSweep,
                         ::testing::Values(std::make_tuple(3, 4),
                                           std::make_tuple(4, 11),
                                           std::make_tuple(7, 8),
                                           std::make_tuple(10, 5),
                                           std::make_tuple(1, 6),
                                           std::make_tuple(0, 7)));

// ---- branchless encode/quantize fast paths ----------------------------
//
// QFormat::encode rounds with the add-2^52 trick instead of a
// std::nearbyint call, and QFormat::quantize additionally skips the
// word pack/unpack. Both claim BIT equality with the straightforward
// implementations; these sweeps check that claim against an
// independent nearbyint reference over every rounding edge the formats
// have, plus a deterministic scan across the whole float range
// (denormals, infinities, NaN payloads included).

std::uint32_t float_bits(float v) {
  std::uint32_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

/// The textbook encode: scale, std::nearbyint, saturate via from_raw.
Word reference_encode(const QFormat& fmt, double value) {
  if (std::isnan(value)) return fmt.from_raw(0);
  double rounded =
      std::nearbyint(value * std::ldexp(1.0, fmt.fraction_bits()));
  // Pre-clamp only to keep the int64 cast defined; from_raw saturates
  // to the real representable range.
  const double bound = std::ldexp(1.0, fmt.total_bits() + 1);
  if (rounded > bound) rounded = bound;
  if (rounded < -bound) rounded = -bound;
  return fmt.from_raw(static_cast<std::int64_t>(rounded));
}

std::vector<QFormat> fast_path_formats() {
  return {QFormat(3, 4),
          QFormat(3, 4, Encoding::kSignMagnitude),
          QFormat::drone_weights(),  // Q(1,4,11)sm — the hot campaign format
          QFormat::q_1_10_5(),
          QFormat(0, 7)};
}

/// Every value class with a rounding or saturation decision: the full
/// representable grid, the exact half-way points between grid steps
/// (round-to-even edges), their one-ulp neighbours, values beyond both
/// saturation bounds, and the IEEE specials.
std::vector<double> rounding_edge_values(const QFormat& fmt) {
  std::vector<double> values;
  const double res = fmt.resolution();
  const auto raw_lo = static_cast<std::int64_t>(fmt.min_value() / res);
  const auto raw_hi = static_cast<std::int64_t>(fmt.max_value() / res);
  for (std::int64_t raw = raw_lo - 3; raw <= raw_hi + 3; ++raw) {
    const double v = static_cast<double>(raw) * res;
    const double mid = v + res / 2;
    values.push_back(v);
    values.push_back(mid);
    values.push_back(std::nextafter(mid, -1e30));
    values.push_back(std::nextafter(mid, 1e30));
  }
  for (double v :
       {0.0, -0.0, fmt.max_value() * 2, fmt.min_value() * 2, 1e30, -1e30,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        static_cast<double>(std::numeric_limits<float>::denorm_min()),
        4503599627370496.0 /* 2^52: the rounding trick's pivot */,
        -4503599627370496.0, 9007199254740992.0 /* 2^53 */})
    values.push_back(v);
  return values;
}

TEST(QFormatFastPath, EncodeMatchesNearbyintReference) {
  for (const QFormat& fmt : fast_path_formats()) {
    for (double v : rounding_edge_values(fmt))
      ASSERT_EQ(fmt.encode(v), reference_encode(fmt, v))
          << fmt.name() << " value " << v;
    Rng rng(11);
    for (int i = 0; i < 20000; ++i) {
      const double v = rng.normal(0.0, fmt.max_value());
      ASSERT_EQ(fmt.encode(v), reference_encode(fmt, v))
          << fmt.name() << " value " << v;
    }
  }
}

TEST(QFormatFastPath, QuantizeMatchesDecodeOfEncodeOnEveryEdge) {
  for (const QFormat& fmt : fast_path_formats()) {
    for (double v : rounding_edge_values(fmt)) {
      const float vf = static_cast<float>(v);
      ASSERT_EQ(float_bits(fmt.quantize(vf)),
                float_bits(static_cast<float>(fmt.decode(fmt.encode(vf)))))
          << fmt.name() << " value " << vf;
    }
  }
}

TEST(QFormatFastPath, QuantizeMatchesAcrossTheWholeFloatRange) {
  // Deterministic scan of the float bit-pattern space: stepping the
  // pattern by a fixed stride visits every exponent bucket, denormals,
  // both infinities and a band of NaN payloads. ~520k values per
  // format keeps the sweep well under a second.
  const std::uint64_t stride = 8191;  // prime: hits varied mantissas
  for (const QFormat& fmt :
       {QFormat(3, 4), QFormat::drone_weights(), QFormat::q_1_10_5()}) {
    for (std::uint64_t pattern = 0; pattern <= 0xffffffffu;
         pattern += stride) {
      float v;
      const auto word = static_cast<std::uint32_t>(pattern);
      std::memcpy(&v, &word, sizeof(v));
      ASSERT_EQ(float_bits(fmt.quantize(v)),
                float_bits(static_cast<float>(fmt.decode(fmt.encode(v)))))
          << fmt.name() << " bit pattern " << word;
    }
  }
}

// ---- inline encode/decode against the earlier out-of-line bodies -------
//
// QFormat::encode and decode are inline, with the word mask and sign
// bit cached in the format and without from_raw's integer clamp after
// the clamp on the double. The functions below are the out-of-line
// bodies they replaced, kept verbatim but for reading the format
// through its public accessors and deriving every mask and bound from
// the field widths, so they share no cached state with the format.

Word oracle_word_mask(const QFormat& fmt) {
  const int bits = fmt.total_bits();
  return bits == 32 ? 0xffffffffu : ((Word{1} << bits) - 1u);
}

std::int64_t oracle_raw_max(const QFormat& fmt) {
  return (std::int64_t{1} << (fmt.total_bits() - 1)) - 1;
}

std::int64_t oracle_raw_min(const QFormat& fmt) {
  if (fmt.encoding() == Encoding::kSignMagnitude) return -oracle_raw_max(fmt);
  return -(std::int64_t{1} << (fmt.total_bits() - 1));
}

Word oracle_from_raw(const QFormat& fmt, std::int64_t raw) {
  if (raw > oracle_raw_max(fmt)) raw = oracle_raw_max(fmt);
  if (raw < oracle_raw_min(fmt)) raw = oracle_raw_min(fmt);
  if (fmt.encoding() == Encoding::kSignMagnitude) {
    if (raw < 0) {
      return (Word{1} << (fmt.total_bits() - 1)) | static_cast<Word>(-raw);
    }
    return static_cast<Word>(raw);
  }
  return static_cast<Word>(raw) & oracle_word_mask(fmt);
}

Word oracle_encode(const QFormat& fmt, double value) {
  const double scaled = value * std::ldexp(1.0, fmt.fraction_bits());
  constexpr double kShift = 4503599627370496.0;  // 2^52
  const double offset = std::copysign(kShift, scaled);
  double rounded = (scaled + offset) - offset;
  if (std::isnan(rounded)) rounded = 0.0;
  const auto raw_max = static_cast<double>(oracle_raw_max(fmt));
  const auto raw_min = static_cast<double>(oracle_raw_min(fmt));
  if (rounded > raw_max) rounded = raw_max;
  if (rounded < raw_min) rounded = raw_min;
  return oracle_from_raw(fmt, static_cast<std::int64_t>(rounded));
}

std::int32_t oracle_to_raw(const QFormat& fmt, Word word) {
  const int bits = fmt.total_bits();
  const Word mask = oracle_word_mask(fmt);
  Word value = word & mask;
  if (fmt.encoding() == Encoding::kSignMagnitude) {
    const Word magnitude_mask = mask >> 1;
    const auto magnitude = static_cast<std::int32_t>(value & magnitude_mask);
    return (value >> (bits - 1)) ? -magnitude : magnitude;
  }
  // Sign-extend from `bits` to 32.
  if (bits < 32 && (value & (Word{1} << (bits - 1))) != 0) value |= ~mask;
  return static_cast<std::int32_t>(value);
}

double oracle_decode(const QFormat& fmt, Word word) {
  return static_cast<double>(oracle_to_raw(fmt, word)) *
         std::ldexp(1.0, -fmt.fraction_bits());
}

std::uint64_t double_bits(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

/// Every format of at most `max_bits` bits, in both encodings, each
/// built directly and as a with_encoding() copy of the other encoding,
/// so a cache with_encoding() forgets to carry or recompute shows.
std::vector<QFormat> formats_up_to(int max_bits) {
  std::vector<QFormat> formats;
  for (int bits = 2; bits <= max_bits; ++bits) {
    for (int int_bits = 0; int_bits <= bits - 1; ++int_bits) {
      const int frac_bits = bits - 1 - int_bits;
      for (const Encoding encoding :
           {Encoding::kTwosComplement, Encoding::kSignMagnitude}) {
        const Encoding other = encoding == Encoding::kTwosComplement
                                   ? Encoding::kSignMagnitude
                                   : Encoding::kTwosComplement;
        const QFormat direct(int_bits, frac_bits, encoding);
        const QFormat copy = QFormat(int_bits, frac_bits, other)
                                 .with_encoding(encoding);
        formats.push_back(direct);
        formats.push_back(copy);
      }
    }
  }
  return formats;
}

/// The inline encode against the oracle on `value`, and the inline
/// decode against the oracle on the word. Plain compares keep the
/// sweeps, tens of millions of values, fast; a mismatch is reported.
bool codec_matches_oracle(const QFormat& fmt, double value) {
  const Word word = fmt.encode(value);
  if (word != oracle_encode(fmt, value)) {
    ADD_FAILURE() << fmt.name() << " encode(" << value << ") = " << word
                  << ", oracle " << oracle_encode(fmt, value);
    return false;
  }
  if (double_bits(fmt.decode(word)) != double_bits(oracle_decode(fmt, word))) {
    ADD_FAILURE() << fmt.name() << " decode(" << word
                  << ") = " << fmt.decode(word) << ", oracle "
                  << oracle_decode(fmt, word);
    return false;
  }
  return true;
}

TEST(QFormatInline, DecodeMatchesOracleOnEveryWord) {
  // Every word of every format up to 16 bits, plus the same words with
  // garbage above total_bits(), which decode must ignore.
  for (const QFormat& fmt : formats_up_to(16)) {
    const Word mask = oracle_word_mask(fmt);
    for (Word word = 0; word <= mask; ++word) {
      const Word dirty = word | (0xa5a5a5a5u & ~mask);
      for (const Word w : {word, dirty}) {
        if (fmt.to_raw(w) != oracle_to_raw(fmt, w) ||
            double_bits(fmt.decode(w)) != double_bits(oracle_decode(fmt, w)))
          FAIL() << fmt.name() << " word " << w << ": decode "
                 << fmt.decode(w) << ", oracle " << oracle_decode(fmt, w);
      }
    }
  }
}

TEST(QFormatInline, EncodeMatchesOracleOnEveryWordAndEdge) {
  // Each format's full grid, its half-way points and their one-ulp
  // neighbours, values past both bounds and the IEEE specials.
  for (const QFormat& fmt : formats_up_to(16))
    for (double v : rounding_edge_values(fmt))
      if (!codec_matches_oracle(fmt, v)) return;
}

TEST(QFormatInline, FromRawMatchesOracle) {
  for (const QFormat& fmt : formats_up_to(16)) {
    const std::int64_t span = oracle_raw_max(fmt) + 3;
    for (std::int64_t raw = -span; raw <= span; ++raw)
      if (fmt.from_raw(raw) != oracle_from_raw(fmt, raw))
        FAIL() << fmt.name() << " raw " << raw;
    for (const std::int64_t raw :
         {std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max(), std::int64_t{1} << 40,
          -(std::int64_t{1} << 40)})
      ASSERT_EQ(fmt.from_raw(raw), oracle_from_raw(fmt, raw))
          << fmt.name() << " raw " << raw;
  }
}

TEST(QFormatInline, CodecMatchesOracleOnWideFormats) {
  // The sets the fast-path sweeps above use, on the paper's formats and
  // on widths past 16 bits up to 32: rounding edges (every edge for the
  // 17- and 20-bit formats), random values and a scan of float bit
  // patterns.
  std::vector<QFormat> formats = fast_path_formats();
  for (const QFormat& fmt : {QFormat(8, 8), QFormat(10, 9), QFormat(15, 16),
                             QFormat(0, 31), QFormat(31, 0)}) {
    formats.push_back(fmt);
    formats.push_back(fmt.with_encoding(Encoding::kSignMagnitude));
  }
  for (const QFormat& fmt : formats) {
    if (fmt.total_bits() <= 20)
      for (double v : rounding_edge_values(fmt))
        if (!codec_matches_oracle(fmt, v)) return;
    for (const Word word :
         {Word{0}, Word{1}, fmt.word_mask(), fmt.word_mask() >> 1,
          Word{1} << fmt.sign_bit(), (Word{1} << fmt.sign_bit()) | 1u})
      ASSERT_EQ(double_bits(fmt.decode(word)),
                double_bits(oracle_decode(fmt, word)))
          << fmt.name() << " word " << word;
    Rng rng(13);
    for (int i = 0; i < 20000; ++i)
      if (!codec_matches_oracle(fmt, rng.normal(0.0, fmt.max_value()))) return;
    for (std::uint64_t pattern = 0; pattern <= 0xffffffffu;
         pattern += 65521) {  // prime stride: varied mantissas
      float v;
      const auto word = static_cast<std::uint32_t>(pattern);
      std::memcpy(&v, &word, sizeof(v));
      if (!codec_matches_oracle(fmt, v)) return;
      ASSERT_EQ(double_bits(fmt.decode(word)),
                double_bits(oracle_decode(fmt, word)))
          << fmt.name() << " word " << word;
    }
  }
}

}  // namespace
}  // namespace ftnav

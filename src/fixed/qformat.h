#pragma once
// Runtime-parameterized signed fixed-point formats.
//
// The paper evaluates Q(sign, integer, fraction) formats -- Q(1,4,11),
// Q(1,7,8), Q(1,10,5) for the drone CNN, and 8-bit quantization for the
// Grid World policies. Because the format itself is a *sweep parameter*
// of the fault study (Fig. 7e), formats are runtime values rather than
// template parameters. Values are stored in the low `total_bits()` bits
// of a 32-bit word, which is exactly the representation faults are
// injected into.
//
// Two bit encodings are supported:
//   * two's complement -- the default, used for the tabular Q-table;
//   * sign-magnitude   -- used for NN weight stores. NN weights cluster
//     near zero, and under sign-magnitude their encodings are dominated
//     by '0' bits regardless of sign. This reproduces the paper's
//     measured bit statistics (Fig. 2d: 7.17x more '0' than '1' bits in
//     NN weights vs 3.18x for tabular values) and hence its headline
//     stuck-at-1 vs stuck-at-0 asymmetry; a symmetric weight
//     distribution under pure two's complement has roughly equal 0/1
//     bit counts and cannot show either effect.

#include <cmath>
#include <cstdint>
#include <string>

namespace ftnav {

/// 32-bit container for a fixed-point encoding; only the low
/// QFormat::total_bits() bits are meaningful.
using Word = std::uint32_t;

/// Bit-level encoding of signed fixed-point values.
enum class Encoding : std::uint8_t {
  kTwosComplement,
  kSignMagnitude,
};

std::string to_string(Encoding encoding);

/// Signed fixed-point format descriptor: 1 sign bit, `integer_bits`
/// integer bits, `fraction_bits` fraction bits.
class QFormat {
 public:
  /// Requires integer_bits >= 0, fraction_bits >= 0 and a total width of
  /// at most 32 bits; throws std::invalid_argument otherwise.
  QFormat(int integer_bits, int fraction_bits,
          Encoding encoding = Encoding::kTwosComplement);

  int integer_bits() const noexcept { return integer_bits_; }
  int fraction_bits() const noexcept { return fraction_bits_; }
  Encoding encoding() const noexcept { return encoding_; }
  /// Total width including the sign bit.
  int total_bits() const noexcept { return 1 + integer_bits_ + fraction_bits_; }

  /// Same field widths with a different bit encoding.
  QFormat with_encoding(Encoding encoding) const noexcept;

  /// Smallest representable increment, 2^-fraction_bits.
  double resolution() const noexcept;
  /// Largest representable value, 2^integer_bits - resolution().
  double max_value() const noexcept;
  /// Smallest (most negative) representable value: -2^integer_bits for
  /// two's complement, -max_value() for sign-magnitude.
  double min_value() const noexcept;

  /// Mask selecting the meaningful low bits of a word.
  Word word_mask() const noexcept { return word_mask_; }
  /// Mask selecting the sign and integer bits only -- the bits the
  /// paper's anomaly detector compares (fraction bits are ignored).
  Word sign_integer_mask() const noexcept;
  /// Bit index of the sign bit (the MSB of the encoding).
  int sign_bit() const noexcept { return total_bits() - 1; }

  /// Encodes with round-to-nearest and saturation at the format bounds.
  /// Inline and branch-light like quantize(), whose rounding and
  /// clamps it shares: every weight commit of a training step and every
  /// stuck-word re-encode runs it, so a call would cost several times
  /// its arithmetic (tests/test_qformat.cpp checks it, and decode,
  /// against reference bodies that derive every mask from the widths).
  Word encode(double value) const noexcept {
    const double scaled = value * scale_;
    // Same rounding as quantize(). A possible -0.0 result differs only
    // in zero sign, which the integer cast erases.
    constexpr double kShift = 4503599627370496.0;  // 2^52
    const double offset = std::copysign(kShift, scaled);
    double rounded = (scaled + offset) - offset;
    if (std::isnan(rounded)) rounded = 0.0;
    if (rounded > raw_max_d_) rounded = raw_max_d_;
    if (rounded < raw_min_d_) rounded = raw_min_d_;
    // The clamps bound `rounded` to [raw_min(), raw_max()], so it needs
    // no second saturation as an integer.
    return pack(static_cast<std::int32_t>(rounded));
  }
  /// Decodes a word (only the low total_bits() are read).
  double decode(Word word) const noexcept {
    return static_cast<double>(to_raw(word)) * inv_scale_;
  }

  /// Quantizes to the nearest representable value: bit-identical to
  /// float(decode(encode(value))) — same round-to-nearest-even,
  /// saturation, and NaN-to-zero handling — without the word
  /// pack/unpack round trip. This is the hot path of every activation
  /// buffer write (the scalar `quantize` kernel in nn/kernels runs it
  /// per element of every layer output, and the SIMD kernels return its
  /// results per lane), so it stays branch-light and inline;
  /// tests/test_qformat.cpp checks the equality exhaustively.
  float quantize(float value) const noexcept {
    const double scaled = static_cast<double>(value) * scale_;
    // Round to nearest-even without a libm call: adding and removing
    // 2^52 rounds |x| < 2^52 to an integer in the FPU's default mode,
    // which is exactly what std::nearbyint does (the program never
    // changes the rounding mode). Magnitudes >= 2^52 come out integral
    // either way and saturate identically below.
    constexpr double kShift = 4503599627370496.0;  // 2^52
    const double offset = std::copysign(kShift, scaled);
    double rounded = (scaled + offset) - offset;
    if (std::isnan(rounded)) rounded = 0.0;
    if (rounded > raw_max_d_) rounded = raw_max_d_;
    if (rounded < raw_min_d_) rounded = raw_min_d_;
    return static_cast<float>(rounded * inv_scale_);
  }

  // The cached constants quantize() reads, for kernels that compute
  // its results on vector lanes: it returns
  // float(clamp(round(double(value) * scale())) * resolution()), the
  // clamp taking raw_max_bound() first, then raw_min_bound().
  double scale() const noexcept { return scale_; }
  double raw_max_bound() const noexcept { return raw_max_d_; }
  double raw_min_bound() const noexcept { return raw_min_d_; }

  /// Signed integer v such that decode(word) == v * resolution().
  std::int32_t to_raw(Word word) const noexcept {
    const Word value = word & word_mask_;
    if (encoding_ == Encoding::kSignMagnitude) {
      const auto magnitude = static_cast<std::int32_t>(value & ~sign_mask_);
      return (value & sign_mask_) != 0 ? -magnitude : magnitude;
    }
    // Sign-extend from total_bits() to 32 (~word_mask_ is 0 at 32 bits).
    return static_cast<std::int32_t>(
        (value & sign_mask_) != 0 ? value | ~word_mask_ : value);
  }
  /// Encodes a raw signed integer, saturating to the representable range.
  Word from_raw(std::int64_t raw) const noexcept;

  /// "Q(1,i,f)" -- the paper's notation ("Q(1,i,f)sm" for sign-magnitude).
  std::string name() const;

  bool operator==(const QFormat& other) const noexcept = default;

  // Formats used by the paper's experiments.
  static QFormat grid_world_8bit();    // Q(1,3,4): tabular values
  static QFormat grid_world_weights(); // Q(1,3,4)sm: Grid World NN weights
  static QFormat q_1_4_11(Encoding encoding = Encoding::kTwosComplement);
  static QFormat q_1_7_8(Encoding encoding = Encoding::kTwosComplement);
  static QFormat q_1_10_5(Encoding encoding = Encoding::kTwosComplement);
  /// The drone weight-store format: Q(1,4,11) sign-magnitude.
  static QFormat drone_weights();

 private:
  std::int32_t raw_max() const noexcept;
  std::int32_t raw_min() const noexcept;
  /// The word of a raw value already in [raw_min(), raw_max()].
  Word pack(std::int32_t raw) const noexcept {
    if (encoding_ == Encoding::kSignMagnitude)
      return raw < 0 ? sign_mask_ | static_cast<Word>(-raw)
                     : static_cast<Word>(raw);
    return static_cast<Word>(raw) & word_mask_;
  }

  int integer_bits_;
  int fraction_bits_;
  Encoding encoding_;
  // Cached scale factors, saturation bounds and masks: encode/decode/
  // quantize run on every element of every buffer write, so none of
  // these may be recomputed per call. The masks depend on the widths
  // only, so with_encoding() copies them as they are.
  double scale_ = 1.0;       // 2^fraction_bits
  double inv_scale_ = 1.0;   // 2^-fraction_bits
  double raw_max_d_ = 0.0;   // double(raw_max())
  double raw_min_d_ = 0.0;   // double(raw_min())
  Word word_mask_ = 0;       // the low total_bits() bits
  Word sign_mask_ = 0;       // bit sign_bit()
};

/// Flips bit `bit` of `word` (bit must be < 32).
Word flip_bit(Word word, int bit) noexcept;
/// Forces bit `bit` of `word` to zero.
Word stick_bit_to_zero(Word word, int bit) noexcept;
/// Forces bit `bit` of `word` to one.
Word stick_bit_to_one(Word word, int bit) noexcept;
/// Reads bit `bit` of `word`.
bool get_bit(Word word, int bit) noexcept;

}  // namespace ftnav

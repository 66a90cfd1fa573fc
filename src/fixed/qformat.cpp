#include "fixed/qformat.h"

#include <cmath>
#include <stdexcept>

namespace ftnav {

std::string to_string(Encoding encoding) {
  return encoding == Encoding::kTwosComplement ? "two's complement"
                                               : "sign-magnitude";
}

QFormat::QFormat(int integer_bits, int fraction_bits, Encoding encoding)
    : integer_bits_(integer_bits),
      fraction_bits_(fraction_bits),
      encoding_(encoding) {
  if (integer_bits < 0 || fraction_bits < 0)
    throw std::invalid_argument("QFormat: negative field width");
  if (1 + integer_bits + fraction_bits > 32)
    throw std::invalid_argument("QFormat: total width exceeds 32 bits");
  if (1 + integer_bits + fraction_bits < 2)
    throw std::invalid_argument("QFormat: need at least one value bit");
  scale_ = std::ldexp(1.0, fraction_bits);
  inv_scale_ = std::ldexp(1.0, -fraction_bits);
  raw_max_d_ = static_cast<double>(raw_max());
  raw_min_d_ = static_cast<double>(raw_min());
  const int bits = total_bits();
  word_mask_ = bits == 32 ? 0xffffffffu : ((Word{1} << bits) - 1u);
  sign_mask_ = Word{1} << (bits - 1);
}

QFormat QFormat::with_encoding(Encoding encoding) const noexcept {
  QFormat copy = *this;
  copy.encoding_ = encoding;
  // raw_min() depends on the encoding; keep the cached bound honest.
  // The masks depend on the widths only and carry over as they are.
  copy.raw_min_d_ = static_cast<double>(copy.raw_min());
  return copy;
}

double QFormat::resolution() const noexcept { return inv_scale_; }

std::int32_t QFormat::raw_max() const noexcept {
  return static_cast<std::int32_t>((std::int64_t{1} << (total_bits() - 1)) -
                                   1);
}

std::int32_t QFormat::raw_min() const noexcept {
  if (encoding_ == Encoding::kSignMagnitude) return -raw_max();
  return static_cast<std::int32_t>(-(std::int64_t{1} << (total_bits() - 1)));
}

double QFormat::max_value() const noexcept {
  return static_cast<double>(raw_max()) * resolution();
}

double QFormat::min_value() const noexcept {
  return static_cast<double>(raw_min()) * resolution();
}

Word QFormat::sign_integer_mask() const noexcept {
  Word mask = 0;
  for (int b = fraction_bits_; b < total_bits(); ++b) mask |= Word{1} << b;
  return mask;
}

Word QFormat::from_raw(std::int64_t raw) const noexcept {
  if (raw > raw_max()) raw = raw_max();
  if (raw < raw_min()) raw = raw_min();
  return pack(static_cast<std::int32_t>(raw));
}

std::string QFormat::name() const {
  std::string name = "Q(1," + std::to_string(integer_bits_) + "," +
                     std::to_string(fraction_bits_) + ")";
  if (encoding_ == Encoding::kSignMagnitude) name += "sm";
  return name;
}

QFormat QFormat::grid_world_8bit() { return QFormat(3, 4); }
QFormat QFormat::grid_world_weights() {
  // Q(1,3,4): same width/resolution as the tabular store, but
  // sign-magnitude, and with integer headroom above the trained weight
  // range (about +-4, Fig. 2d) so the range detector has outliers to
  // catch (Fig. 10a).
  return QFormat(3, 4, Encoding::kSignMagnitude);
}
QFormat QFormat::q_1_4_11(Encoding encoding) {
  return QFormat(4, 11, encoding);
}
QFormat QFormat::q_1_7_8(Encoding encoding) { return QFormat(7, 8, encoding); }
QFormat QFormat::q_1_10_5(Encoding encoding) {
  return QFormat(10, 5, encoding);
}
QFormat QFormat::drone_weights() {
  return QFormat(4, 11, Encoding::kSignMagnitude);
}

Word flip_bit(Word word, int bit) noexcept { return word ^ (Word{1} << bit); }
Word stick_bit_to_zero(Word word, int bit) noexcept {
  return word & ~(Word{1} << bit);
}
Word stick_bit_to_one(Word word, int bit) noexcept {
  return word | (Word{1} << bit);
}
bool get_bit(Word word, int bit) noexcept {
  return (word >> bit) & 1u;
}

}  // namespace ftnav

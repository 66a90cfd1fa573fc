#include "core/injector.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace ftnav {

StuckAtMask StuckAtMask::compile(const FaultMap& map) {
  if (!is_permanent(map.type()))
    throw std::invalid_argument(
        "StuckAtMask::compile: fault map is not permanent");
  std::unordered_map<std::uint32_t, Entry> merged;
  for (const FaultSite& site : map.sites()) {
    Entry& entry = merged[site.word_index];
    entry.word_index = site.word_index;
    const Word bit = Word{1} << site.bit;
    if (map.type() == FaultType::kStuckAt0) {
      entry.and_mask &= ~bit;
    } else {
      entry.or_mask |= bit;
    }
  }
  StuckAtMask mask;
  mask.entries_.reserve(merged.size());
  for (auto& [index, entry] : merged) mask.entries_.push_back(entry);
  std::sort(mask.entries_.begin(), mask.entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.word_index < b.word_index;
            });
  return mask;
}

void StuckAtMask::merge(const StuckAtMask& other) {
  std::unordered_map<std::uint32_t, Entry> merged;
  for (const Entry& e : entries_) merged[e.word_index] = e;
  for (const Entry& e : other.entries_) {
    auto [it, inserted] = merged.try_emplace(e.word_index, e);
    if (!inserted) {
      it->second.and_mask &= e.and_mask;
      it->second.or_mask |= e.or_mask;
      // A bit both stuck at 0 and at 1 resolves to the later (1) fault.
      it->second.and_mask |= it->second.or_mask;
    }
  }
  entries_.clear();
  entries_.reserve(merged.size());
  for (auto& [index, entry] : merged) entries_.push_back(entry);
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.word_index < b.word_index;
            });
}

void StuckAtMask::apply(std::span<Word> words) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.word_index >= words.size()) continue;
    Word& w = words[entry.word_index];
    w = (w & entry.and_mask) | entry.or_mask;
  }
}

void StuckAtMask::scatter(std::span<Word> and_masks,
                          std::span<Word> or_masks) const noexcept {
  const std::size_t size = std::min(and_masks.size(), or_masks.size());
  for (const Entry& entry : entries_) {
    if (entry.word_index >= size) break;  // entries are sorted
    and_masks[entry.word_index] = entry.and_mask;
    or_masks[entry.word_index] = entry.or_mask;
  }
}

void StuckAtMask::apply(std::span<float> values,
                        const QFormat& format) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.word_index >= values.size()) break;  // entries are sorted
    float& value = values[entry.word_index];
    const Word word = (format.encode(value) & entry.and_mask) | entry.or_mask;
    value = static_cast<float>(format.decode(word));
  }
}

void inject_transient(QVector& buffer, const FaultMap& map) {
  if (map.type() != FaultType::kTransientFlip)
    throw std::invalid_argument("inject_transient: map is not transient");
  map.apply_once(buffer.words());
}

std::size_t inject_transient_values(std::span<float> values,
                                    const QFormat& format, double ber,
                                    Rng& rng) {
  const std::size_t flips =
      fault_bits_for_ber(ber, values.size(), format.total_bits());
  const int bits = format.total_bits();
  for (std::size_t k = 0; k < flips; ++k) {
    // Dynamic faults hit a buffer that is rewritten every step, so
    // sampling with replacement matches independent upsets; collisions
    // are vanishingly rare at realistic BERs.
    const std::uint64_t pos =
        rng.below(values.size() * static_cast<std::size_t>(bits));
    const auto index = static_cast<std::size_t>(pos) /
                       static_cast<std::size_t>(bits);
    const int bit = static_cast<int>(pos % static_cast<std::size_t>(bits));
    const Word word = format.encode(values[index]);
    values[index] = static_cast<float>(format.decode(flip_bit(word, bit)));
  }
  return flips;
}

void enforce_stuck_values(std::span<float> values, const QFormat& format,
                          const StuckAtMask& mask) noexcept {
  mask.apply(values, format);
}

}  // namespace ftnav

#include "core/fault_model.h"

#include <cmath>
#include <stdexcept>

namespace ftnav {

bool is_permanent(FaultType type) noexcept {
  return type == FaultType::kStuckAt0 || type == FaultType::kStuckAt1;
}

std::string to_string(FaultType type) {
  switch (type) {
    case FaultType::kTransientFlip: return "transient";
    case FaultType::kStuckAt0: return "stuck-at-0";
    case FaultType::kStuckAt1: return "stuck-at-1";
  }
  return "unknown";
}

std::string to_string(BufferKind kind) {
  switch (kind) {
    case BufferKind::kTabular: return "tabular";
    case BufferKind::kInput: return "input";
    case BufferKind::kWeight: return "weight";
    case BufferKind::kActivation: return "activation";
  }
  return "unknown";
}

FaultMap::FaultMap(FaultType type, std::vector<FaultSite> sites)
    : type_(type), sites_(std::move(sites)) {}

std::size_t fault_bits_for_ber(double ber, std::size_t words,
                               int bits_per_word) {
  if (ber < 0.0 || ber > 1.0)
    throw std::invalid_argument("fault_bits_for_ber: ber outside [0,1]");
  const double total =
      static_cast<double>(words) * static_cast<double>(bits_per_word);
  return static_cast<std::size_t>(std::llround(ber * total));
}

FaultMap FaultMap::sample(FaultType type, double ber, std::size_t words,
                          int bits_per_word, Rng& rng) {
  return sample_count(type, fault_bits_for_ber(ber, words, bits_per_word),
                      words, bits_per_word, rng);
}

FaultMap FaultMap::sample_count(FaultType type, std::size_t fault_bits,
                                std::size_t words, int bits_per_word,
                                Rng& rng) {
  if (bits_per_word < 1 || bits_per_word > 32)
    throw std::invalid_argument("FaultMap: bits_per_word outside [1,32]");
  const std::size_t total = words * static_cast<std::size_t>(bits_per_word);
  if (fault_bits > total)
    throw std::invalid_argument("FaultMap: more fault bits than positions");

  std::vector<FaultSite> sites;
  if (fault_bits == 0) return FaultMap(type, std::move(sites));
  sites.reserve(fault_bits);
  // Rejection sampling of distinct positions: a draw already in
  // `chosen` is redrawn, so the sites and their order depend only on
  // the draws. One bit per position, zeroed on every call.
  std::vector<std::uint64_t> chosen((total + 63) / 64, 0);
  while (sites.size() < fault_bits) {
    const std::uint64_t pos = rng.below(total);
    std::uint64_t& word = chosen[pos / 64];
    const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
    if ((word & bit) != 0) continue;
    word |= bit;
    sites.push_back(FaultSite{
        static_cast<std::uint32_t>(pos / static_cast<std::size_t>(bits_per_word)),
        static_cast<std::uint8_t>(pos % static_cast<std::size_t>(bits_per_word))});
  }
  return FaultMap(type, std::move(sites));
}

void FaultMap::apply_once(std::span<Word> words) const {
  for (const FaultSite& site : sites_) {
    if (site.word_index >= words.size()) continue;
    Word& w = words[site.word_index];
    switch (type_) {
      case FaultType::kTransientFlip: w = flip_bit(w, site.bit); break;
      case FaultType::kStuckAt0: w = stick_bit_to_zero(w, site.bit); break;
      case FaultType::kStuckAt1: w = stick_bit_to_one(w, site.bit); break;
    }
  }
}

FaultMap FaultMap::slice(std::size_t begin, std::size_t end) const {
  std::vector<FaultSite> kept;
  for (const FaultSite& site : sites_) {
    if (site.word_index >= begin && site.word_index < end) {
      kept.push_back(FaultSite{
          static_cast<std::uint32_t>(site.word_index - begin), site.bit});
    }
  }
  return FaultMap(type_, std::move(kept));
}

}  // namespace ftnav

#pragma once
// Fault injection engines (paper §3.3).
//
// Injection has two modes:
//   * static  -- applied to a buffer before execution (permanent faults,
//                and transient faults in read-only weight buffers);
//   * dynamic -- applied during execution as tensor-level operations
//                (transient faults in inputs/activations, which are
//                rewritten every step).
//
// Permanent faults must survive writes: StuckAtMask compiles a FaultMap
// into per-word AND/OR masks that are re-applied after every buffer
// update, which is how a real stuck cell behaves under training.

#include <cstddef>
#include <span>
#include <vector>

#include "core/fault_model.h"
#include "fixed/qformat.h"
#include "fixed/qvector.h"
#include "util/rng.h"

namespace ftnav {

/// Compiled permanent-fault overlay: word := (word & and_mask) | or_mask.
class StuckAtMask {
 public:
  StuckAtMask() = default;

  /// Compiles a stuck-at fault map. Throws std::invalid_argument if the
  /// map's type is transient. Multiple sites per word are merged.
  static StuckAtMask compile(const FaultMap& map);

  /// Merges another stuck-at overlay into this one. Later stuck-at-1
  /// wins over earlier stuck-at-0 on the same bit (last-write semantics).
  void merge(const StuckAtMask& other);

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t faulty_word_count() const noexcept { return entries_.size(); }

  /// Enforces the stuck bits over a word buffer.
  void apply(std::span<Word> words) const noexcept;

  /// Enforces the stuck bits over a QVector.
  void apply(QVector& buffer) const noexcept { apply(buffer.words()); }

  /// Writes each stuck word's masks into per-word arrays indexed like
  /// the buffer: and_masks[i] and or_masks[i] for every stuck word i
  /// below their common size. Other entries are left as they are, so
  /// arrays filled with ~0 and 0 first hold an identity mask there.
  void scatter(std::span<Word> and_masks,
               std::span<Word> or_masks) const noexcept;

  /// Enforces the stuck bits over float values already quantized to
  /// `format`: each stuck value inside the span is encoded, masked and
  /// decoded; every other value is left alone, since re-encoding a
  /// quantized value returns it unchanged.
  void apply(std::span<float> values, const QFormat& format) const noexcept;

 private:
  struct Entry {
    std::uint32_t word_index = 0;
    Word and_mask = ~Word{0};
    Word or_mask = 0;
  };
  std::vector<Entry> entries_;
};

/// A faultable buffer image: a live QVector plus a word-level golden
/// snapshot taken at construction. Campaign trial loops mutate the
/// live image with bit operations (flips, stuck-at masks) and call
/// restore() between trials — a straight word copy off the snapshot,
/// not a float re-encode — so batching thousands of trials through one
/// resident image is cheap. restore() produces exactly the words the
/// initial encode produced, so a restored image is bit-identical to a
/// freshly constructed one.
///
/// The image tracks whether any fault has touched it since the last
/// restore: restore() on a clean image is a no-op, and dirty() lets
/// callers skip downstream work (e.g. re-decoding a weight image)
/// between trials whose faults never hit this buffer. Mutations must
/// therefore go through the apply() overloads, which keep the flag
/// honest — the only raw-word escape hatch is live() on a const image.
class FaultableImage {
 public:
  FaultableImage() = default;
  /// Quantizes `values` into the live image and snapshots the words.
  FaultableImage(QFormat format, std::span<const float> values)
      : live_(format, values),
        golden_(live_.words().begin(), live_.words().end()) {}

  QVector& live() noexcept { return live_; }
  const QVector& live() const noexcept { return live_; }
  std::size_t size() const noexcept { return live_.size(); }
  std::span<const Word> golden_words() const noexcept { return golden_; }

  /// True when a fault has been applied since the last restore (the
  /// live words may differ from the golden snapshot).
  bool dirty() const noexcept { return dirty_; }

  /// Restores the live image from the golden snapshot (word memcpy);
  /// a clean image is left untouched.
  void restore() {
    if (!dirty_) return;
    live_.assign_words(golden_);
    dirty_ = false;
  }

  /// Transient bit-flips applied once to the live image.
  void apply(const FaultMap& map) {
    if (map.sites().empty()) return;
    map.apply_once(live_.words());
    dirty_ = true;
  }
  /// Transient bit-flips applied once to the word range
  /// [begin, begin + count) of the live image (per-layer injection).
  void apply(const FaultMap& map, std::size_t begin, std::size_t count) {
    if (map.sites().empty()) return;
    map.apply_once(live_.words().subspan(begin, count));
    dirty_ = true;
  }
  /// Stuck-at overlay enforced on the live image.
  void apply(const StuckAtMask& mask) noexcept {
    if (mask.empty()) return;
    mask.apply(live_);
    dirty_ = true;
  }

 private:
  QVector live_;
  std::vector<Word> golden_;
  bool dirty_ = false;
};

/// Applies a transient bit-flip fault map once to a quantized buffer.
void inject_transient(QVector& buffer, const FaultMap& map);

/// Dynamic injection: flips `round(ber * bits)` random bits across a
/// float tensor *through* its fixed-point encoding -- each hit value is
/// encoded, bit-flipped and decoded in place. This is the tensor-level
/// operation the paper uses to keep dynamic injection cheap.
/// Returns the number of bits flipped.
std::size_t inject_transient_values(std::span<float> values,
                                    const QFormat& format, double ber,
                                    Rng& rng);

/// Dynamic stuck-at enforcement over a float tensor whose values are
/// already quantized to `format` (the quantized input buffer, a ReLU
/// over quantized layer outputs): the stuck
/// values pass through their encoding with the stuck bits forced, and
/// every other value is already what its clean buffer word decodes to,
/// so only the stuck words are touched. Used for permanent input and
/// activation faults, where the buffer is rewritten each step but the
/// cells stay broken.
void enforce_stuck_values(std::span<float> values, const QFormat& format,
                          const StuckAtMask& mask) noexcept;

}  // namespace ftnav

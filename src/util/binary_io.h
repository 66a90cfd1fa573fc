#pragma once
// Little binary I/O helpers for campaign merge-state serialization.
//
// Campaign checkpoints must round-trip accumulator state *exactly* —
// a resumed campaign has to finish with bit-identical results — so
// doubles travel as their raw IEEE-754 bit patterns (std::bit_cast),
// never through text formatting. The encoding is fixed-width
// little-endian, written byte-by-byte so it is independent of host
// struct layout. Checkpoints are host-local scratch files; they make
// no cross-architecture portability promise beyond that.

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace ftnav::io {

void write_u32(std::ostream& out, std::uint32_t value);
void write_u64(std::ostream& out, std::uint64_t value);
void write_f64(std::ostream& out, double value);
void write_bytes(std::ostream& out, const void* data, std::size_t size);

/// Readers throw std::runtime_error on truncated or failed streams —
/// including a length prefix that promises more than the stream holds:
/// length-prefixed readers grow their buffer one kReadChunkBytes chunk
/// at a time as bytes arrive, so a lying length fails as a truncated
/// read instead of allocating what it claims.
std::uint32_t read_u32(std::istream& in);
std::uint64_t read_u64(std::istream& in);
double read_f64(std::istream& in);
void read_bytes(std::istream& in, void* data, std::size_t size);

inline constexpr std::size_t kReadChunkBytes = std::size_t{1} << 16;

/// Capacity worth reserving before reading `count` elements of at
/// least `min_bytes` encoded bytes each: never more than the bytes the
/// stream still holds can encode, so a lying count cannot allocate.
/// The container grows past it as elements actually arrive.
std::size_t reservable(std::istream& in, std::uint64_t count,
                       std::size_t min_bytes);

/// Reads `count` raw elements into `out` (a std::string or vector of
/// trivially copyable elements), growing it one chunk at a time.
template <typename Container>
void read_chunked(std::istream& in, std::uint64_t count, Container& out) {
  using T = typename Container::value_type;
  constexpr std::uint64_t chunk =
      sizeof(T) < kReadChunkBytes ? kReadChunkBytes / sizeof(T) : 1;
  while (out.size() < count) {
    const std::size_t done = out.size();
    out.resize(done + static_cast<std::size_t>(
                          count - done < chunk ? count - done : chunk));
    read_bytes(in, out.data() + done, (out.size() - done) * sizeof(T));
  }
}

/// Length-prefixed string (u64 count + raw bytes).
void write_string(std::ostream& out, const std::string& value);
std::string read_string(std::istream& in);

/// Length-prefixed vector of a trivially copyable element type, stored
/// as raw bytes. Suitable for the integer/double tallies campaign
/// accumulators are built from.
template <typename T>
void write_vector(std::ostream& out, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>,
                "write_vector requires a trivially copyable element");
  write_u64(out, values.size());
  if (!values.empty())
    write_bytes(out, values.data(), values.size() * sizeof(T));
}

template <typename T>
std::vector<T> read_vector(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>,
                "read_vector requires a trivially copyable element");
  std::vector<T> values;
  read_chunked(in, read_u64(in), values);
  return values;
}

/// FNV-1a over a byte string; guards checkpoints against truncation
/// and bit rot (not against adversaries).
std::uint64_t fnv1a(std::span<const char> bytes) noexcept;

}  // namespace ftnav::io

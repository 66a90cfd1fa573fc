#include "util/binary_io.h"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace ftnav::io {
namespace {

template <typename T>
void write_le(std::ostream& out, T value) {
  std::array<char, sizeof(T)> bytes;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  out.write(bytes.data(), bytes.size());
  if (!out) throw std::runtime_error("binary_io: write failed");
}

template <typename T>
T read_le(std::istream& in) {
  std::array<char, sizeof(T)> bytes;
  in.read(bytes.data(), bytes.size());
  if (in.gcount() != static_cast<std::streamsize>(bytes.size()))
    throw std::runtime_error("binary_io: truncated read");
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    value |= static_cast<T>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  return value;
}

}  // namespace

void write_u32(std::ostream& out, std::uint32_t value) {
  write_le<std::uint32_t>(out, value);
}

void write_u64(std::ostream& out, std::uint64_t value) {
  write_le<std::uint64_t>(out, value);
}

void write_f64(std::ostream& out, double value) {
  write_le<std::uint64_t>(out, std::bit_cast<std::uint64_t>(value));
}

void write_bytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  if (!out) throw std::runtime_error("binary_io: write failed");
}

std::uint32_t read_u32(std::istream& in) { return read_le<std::uint32_t>(in); }

std::uint64_t read_u64(std::istream& in) { return read_le<std::uint64_t>(in); }

double read_f64(std::istream& in) {
  return std::bit_cast<double>(read_le<std::uint64_t>(in));
}

void read_bytes(std::istream& in, void* data, std::size_t size) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size))
    throw std::runtime_error("binary_io: truncated read");
}

void write_string(std::ostream& out, const std::string& value) {
  write_u64(out, value.size());
  if (!value.empty()) write_bytes(out, value.data(), value.size());
}

std::size_t reservable(std::istream& in, std::uint64_t count,
                       std::size_t min_bytes) {
  const std::streamsize avail =
      in.rdbuf() != nullptr ? in.rdbuf()->in_avail() : 0;
  if (avail <= 0) return 0;
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      count, static_cast<std::uint64_t>(avail) /
                 std::max<std::size_t>(1, min_bytes)));
}

std::string read_string(std::istream& in) {
  std::string value;
  read_chunked(in, read_u64(in), value);
  return value;
}

std::uint64_t fnv1a(std::span<const char> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace ftnav::io

// Tests for util/binary_io error paths: truncated and short reads,
// zero-length payloads, read-after-EOF, and length prefixes that lie
// must surface as std::runtime_error instead of returning garbage or
// allocating what the lie claims — a corrupt or half-written campaign
// checkpoint has to fail loudly, never resume into wrong results.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binary_io.h"

namespace ftnav {
namespace {

TEST(BinaryIo, RoundTripsScalars) {
  std::stringstream buffer;
  io::write_u32(buffer, 0xdeadbeefu);
  io::write_u64(buffer, 0x0123456789abcdefULL);
  io::write_f64(buffer, -0.0);  // sign bit must survive
  io::write_f64(buffer, 1.0 / 3.0);
  EXPECT_EQ(io::read_u32(buffer), 0xdeadbeefu);
  EXPECT_EQ(io::read_u64(buffer), 0x0123456789abcdefULL);
  const double negative_zero = io::read_f64(buffer);
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_EQ(io::read_f64(buffer), 1.0 / 3.0);  // bit-exact
}

TEST(BinaryIo, ReadFromEmptyStreamThrows) {
  std::istringstream empty;
  EXPECT_THROW(io::read_u32(empty), std::runtime_error);
  std::istringstream empty2;
  EXPECT_THROW(io::read_u64(empty2), std::runtime_error);
  std::istringstream empty3;
  EXPECT_THROW(io::read_f64(empty3), std::runtime_error);
}

TEST(BinaryIo, TruncatedScalarThrows) {
  // 5 of the 8 bytes a u64 needs.
  std::istringstream short_stream(std::string("\x01\x02\x03\x04\x05", 5));
  EXPECT_THROW(io::read_u64(short_stream), std::runtime_error);
}

TEST(BinaryIo, ReadAfterEofThrowsInsteadOfRepeating) {
  std::stringstream buffer;
  io::write_u32(buffer, 7);
  EXPECT_EQ(io::read_u32(buffer), 7u);
  // The stream is exhausted; another read must throw, not hand back
  // stale bytes or zeros.
  EXPECT_THROW(io::read_u32(buffer), std::runtime_error);
}

TEST(BinaryIo, ZeroLengthStringRoundTrips) {
  std::stringstream buffer;
  io::write_string(buffer, "");
  EXPECT_EQ(io::read_string(buffer), "");
  // Nothing beyond the length prefix was written.
  EXPECT_THROW(io::read_u32(buffer), std::runtime_error);
}

TEST(BinaryIo, StringWithEmbeddedNulRoundTrips) {
  const std::string payload("a\0b\0", 4);
  std::stringstream buffer;
  io::write_string(buffer, payload);
  EXPECT_EQ(io::read_string(buffer), payload);
}

TEST(BinaryIo, TruncatedStringPayloadThrows) {
  std::stringstream buffer;
  io::write_string(buffer, "hello world");
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() - 4);  // cut into the payload
  std::istringstream truncated(bytes);
  EXPECT_THROW(io::read_string(truncated), std::runtime_error);
}

TEST(BinaryIo, ZeroLengthVectorRoundTrips) {
  std::stringstream buffer;
  io::write_vector(buffer, std::vector<double>{});
  EXPECT_TRUE(io::read_vector<double>(buffer).empty());
  EXPECT_THROW(io::read_u32(buffer), std::runtime_error);
}

TEST(BinaryIo, TruncatedVectorPayloadThrows) {
  std::stringstream buffer;
  io::write_vector(buffer, std::vector<std::uint64_t>{1, 2, 3, 4});
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() - 1);  // lose the last byte
  std::istringstream truncated(bytes);
  EXPECT_THROW(io::read_vector<std::uint64_t>(truncated),
               std::runtime_error);
}

TEST(BinaryIo, VectorLengthPrefixBeyondDataThrows) {
  // A length prefix promising data the stream does not have (the
  // checkpoint-corruption shape checksums usually catch first).
  std::stringstream buffer;
  io::write_u64(buffer, 1000);  // claims 1000 elements
  io::write_u32(buffer, 42);    // ... but only 4 bytes follow
  EXPECT_THROW(io::read_vector<std::uint64_t>(buffer), std::runtime_error);
}

/// A u64 length prefix of 2^40 followed by only 3 payload bytes.
std::string lying_length_prefix() {
  std::stringstream buffer;
  io::write_u64(buffer, std::uint64_t{1} << 40);
  return buffer.str() + "abc";
}

TEST(BinaryIo, LyingStringLengthThrowsTruncatedReadNotBadAlloc) {
  // Length-prefixed readers grow with the bytes that actually arrive:
  // a terabyte claim fails as a truncated read after one chunk, never
  // as a terabyte allocation (std::bad_alloc / std::length_error).
  std::istringstream in(lying_length_prefix());
  EXPECT_THROW(io::read_string(in), std::runtime_error);
}

TEST(BinaryIo, LyingVectorLengthThrowsTruncatedReadNotBadAlloc) {
  std::istringstream in(lying_length_prefix());
  EXPECT_THROW(io::read_vector<double>(in), std::runtime_error);
}

TEST(BinaryIo, PayloadsSpanningManyChunksRoundTrip) {
  std::string text(3 * io::kReadChunkBytes + 17, '\0');
  for (std::size_t i = 0; i < text.size(); ++i)
    text[i] = static_cast<char>(i * 131 % 251);
  std::vector<double> values(io::kReadChunkBytes / 2 + 5);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = 0.5 * static_cast<double>(i);
  std::stringstream buffer;
  io::write_string(buffer, text);
  io::write_vector(buffer, values);
  EXPECT_EQ(io::read_string(buffer), text);
  EXPECT_EQ(io::read_vector<double>(buffer), values);
}

TEST(BinaryIo, ReservableIsCappedByTheBytesLeft) {
  std::istringstream in(std::string(64, 'x'));
  EXPECT_EQ(io::reservable(in, std::uint64_t{1} << 40, 8), 8u);
  EXPECT_EQ(io::reservable(in, 3, 8), 3u);
  std::istringstream empty;
  EXPECT_EQ(io::reservable(empty, 1000, 1), 0u);
}

TEST(BinaryIo, Fnv1aMatchesReferenceVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(io::fnv1a(std::span<const char>{}), 0xcbf29ce484222325ULL);
  const std::string a = "a";
  EXPECT_EQ(io::fnv1a({a.data(), a.size()}), 0xaf63dc4c8601ec8cULL);
  const std::string foobar = "foobar";
  EXPECT_EQ(io::fnv1a({foobar.data(), foobar.size()}),
            0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace ftnav

// Tests for network parameter serialization.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "nn/c3f2.h"
#include "nn/serialize.h"

namespace ftnav {
namespace {

Network small_net(Rng& rng) {
  Network net;
  net.add(std::make_unique<Dense>(4, 8, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(8, 2, rng));
  return net;
}

TEST(Serialize, StreamRoundTrip) {
  const std::vector<float> params = {1.0f, -2.5f, 0.0f, 3.25e-3f};
  std::stringstream buffer;
  save_parameters(buffer, params);
  EXPECT_EQ(load_parameters(buffer), params);
}

TEST(Serialize, EmptyVectorRoundTrips) {
  std::stringstream buffer;
  save_parameters(buffer, {});
  EXPECT_TRUE(load_parameters(buffer).empty());
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buffer;
  save_parameters(buffer, {1.0f});
  std::string data = buffer.str();
  data[0] = 'x';
  std::stringstream corrupted(data);
  EXPECT_THROW(load_parameters(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedPayload) {
  std::stringstream buffer;
  save_parameters(buffer, {1.0f, 2.0f, 3.0f});
  std::string data = buffer.str();
  std::stringstream truncated(data.substr(0, data.size() - 4));
  EXPECT_THROW(load_parameters(truncated), std::runtime_error);
}

TEST(Serialize, LyingCountFailsWithoutAllocatingIt) {
  // A 16-byte stream: a header claiming 2^32 floats (16 GiB), no
  // payload.
  std::stringstream buffer;
  const std::uint32_t magic = kParameterFileMagic;
  const std::uint32_t version = kParameterFileVersion;
  const std::uint64_t count = std::uint64_t{1} << 32;
  buffer.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  buffer.write(reinterpret_cast<const char*>(&version), sizeof version);
  buffer.write(reinterpret_cast<const char*>(&count), sizeof count);
  EXPECT_THROW(load_parameters(buffer), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedHeader) {
  std::stringstream truncated("FT");
  EXPECT_THROW(load_parameters(truncated), std::runtime_error);
}

TEST(Serialize, NetworkFileRoundTrip) {
  Rng rng(1);
  Network net = small_net(rng);
  const std::string path = "/tmp/ftnav_test_net.bin";
  save_network(path, net);

  Rng rng2(99);  // different init
  Network restored = small_net(rng2);
  EXPECT_NE(restored.snapshot_parameters(), net.snapshot_parameters());
  load_network(path, restored);
  EXPECT_EQ(restored.snapshot_parameters(), net.snapshot_parameters());
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsArchitectureMismatch) {
  Rng rng(2);
  Network net = small_net(rng);
  const std::string path = "/tmp/ftnav_test_net2.bin";
  save_network(path, net);
  Network bigger;
  bigger.add(std::make_unique<Dense>(4, 9, rng));
  EXPECT_THROW(load_network(path, bigger), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsMissingFile) {
  Rng rng(3);
  Network net = small_net(rng);
  EXPECT_THROW(load_network("/tmp/ftnav_does_not_exist.bin", net),
               std::runtime_error);
}

TEST(Serialize, C3F2PolicySurvivesRoundTrip) {
  Rng rng(4);
  const C3F2Config config = C3F2Config::preset(C3F2Preset::kFast);
  Network net = make_c3f2(config, rng);
  Tensor input(config.input_shape());
  input.fill(0.3f);
  const Tensor before = net.forward(input);

  const std::string path = "/tmp/ftnav_test_c3f2.bin";
  save_network(path, net);
  Rng rng2(5);
  Network restored = make_c3f2(config, rng2);
  load_network(path, restored);
  const Tensor after = restored.forward(input);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_FLOAT_EQ(after[i], before[i]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftnav

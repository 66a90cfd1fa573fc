#include "nn/serialize.h"

#include <fstream>
#include <stdexcept>

#include "util/binary_io.h"

namespace ftnav {

void save_parameters(std::ostream& out, const std::vector<float>& params) {
  const std::uint32_t magic = kParameterFileMagic;
  const std::uint32_t version = kParameterFileVersion;
  const auto count = static_cast<std::uint64_t>(params.size());
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  out.write(reinterpret_cast<const char*>(params.data()),
            static_cast<std::streamsize>(params.size() * sizeof(float)));
  if (!out) throw std::runtime_error("save_parameters: write failed");
}

std::vector<float> load_parameters(std::istream& in) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&version), sizeof version);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!in) throw std::runtime_error("load_parameters: truncated header");
  if (magic != kParameterFileMagic)
    throw std::runtime_error("load_parameters: bad magic");
  if (version != kParameterFileVersion)
    throw std::runtime_error("load_parameters: unsupported version");
  if (count > (std::uint64_t{1} << 32))
    throw std::runtime_error("load_parameters: implausible size");
  // Grows one chunk at a time as floats arrive, so a count the stream
  // cannot back fails as a truncated payload instead of allocating it.
  std::vector<float> params;
  try {
    io::read_chunked(in, count, params);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("load_parameters: truncated payload");
  }
  return params;
}

void save_network(const std::string& path, const Network& network) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_network: cannot open " + path);
  save_parameters(out, network.snapshot_parameters());
}

void load_network(const std::string& path, Network& network) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_network: cannot open " + path);
  const std::vector<float> params = load_parameters(in);
  if (params.size() != network.parameter_count())
    throw std::runtime_error("load_network: parameter count mismatch");
  network.restore_parameters(params);
}

}  // namespace ftnav

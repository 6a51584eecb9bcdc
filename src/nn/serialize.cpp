#include "nn/serialize.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/fault.hpp"
#include "util/log.hpp"

namespace adarnet::nn {

namespace {

constexpr char kMagicV2[4] = {'A', 'D', 'R', '2'};
constexpr std::uint32_t kVersion = 2;

// Standard CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
std::uint32_t crc32(const unsigned char* data, std::size_t n,
                    std::uint32_t crc = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

void append_bytes(std::vector<unsigned char>& buf, const void* src,
                  std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(src);
  buf.insert(buf.end(), p, p + n);
}

// Parses a v2 payload (everything after the magic) into per-parameter
// staging copies; commits nothing on failure.
bool parse_v2(const std::vector<unsigned char>& body,
              const std::vector<Parameter*>& params,
              std::vector<std::vector<float>>& staged, std::uint64_t& tag) {
  if (body.size() < sizeof(std::uint32_t)) return false;
  const std::size_t payload = body.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, body.data() + payload, sizeof(stored_crc));
  if (crc32(body.data(), payload) != stored_crc) return false;

  std::size_t off = 0;
  auto read = [&](void* dst, std::size_t n) {
    if (off + n > payload) return false;
    std::memcpy(dst, body.data() + off, n);
    off += n;
    return true;
  };
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  if (!read(&version, sizeof(version)) || version != kVersion) return false;
  if (!read(&tag, sizeof(tag))) return false;
  if (!read(&count, sizeof(count)) || count != params.size()) return false;
  staged.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::uint64_t numel = 0;
    if (!read(&numel, sizeof(numel)) || numel != params[i]->value.numel()) {
      return false;
    }
    staged[i].resize(static_cast<std::size_t>(numel));
    if (!read(staged[i].data(), staged[i].size() * sizeof(float))) {
      return false;
    }
  }
  return off == payload;  // trailing bytes are corruption too
}

}  // namespace

bool save_parameters(const std::vector<Parameter*>& params,
                     const std::string& path, std::uint64_t tag) {
  // Serialise the whole checkpoint (CRC over everything after the magic)
  // into memory first; the files are small (a few MB of CNN weights).
  std::vector<unsigned char> body;
  append_bytes(body, &kVersion, sizeof(kVersion));
  append_bytes(body, &tag, sizeof(tag));
  const std::uint32_t count = static_cast<std::uint32_t>(params.size());
  append_bytes(body, &count, sizeof(count));
  for (const Parameter* p : params) {
    const std::uint64_t numel = p->value.numel();
    append_bytes(body, &numel, sizeof(numel));
    append_bytes(body, p->value.data(), numel * sizeof(float));
  }
  const std::uint32_t crc = crc32(body.data(), body.size());
  append_bytes(body, &crc, sizeof(crc));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(kMagicV2, 4);
    if (util::fault::fires("nn.serialize.write")) {
      // Simulated mid-write I/O failure: the temp file is torn, the
      // destination must survive untouched.
      out.write(reinterpret_cast<const char*>(body.data()),
                static_cast<std::streamsize>(body.size() / 2));
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
    out.write(reinterpret_cast<const char*>(body.data()),
              static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool load_parameters(const std::vector<Parameter*>& params,
                     const std::string& path, std::uint64_t* tag) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagicV2, 4) != 0) return false;

  std::vector<std::vector<float>> staged;
  std::uint64_t file_tag = 0;
  const std::vector<unsigned char> body(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (!parse_v2(body, params, staged, file_tag)) {
    ADR_LOG_WARN << "rejecting corrupt checkpoint " << path;
    return false;
  }

  // Everything validated: commit.
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), staged[i].data(),
                staged[i].size() * sizeof(float));
  }
  if (tag != nullptr) *tag = file_tag;
  return true;
}

}  // namespace adarnet::nn

#include "util/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/fault.hpp"
#include "util/log.hpp"

namespace nshd::util {

namespace {

constexpr char kMagic[8] = {'N', 'S', 'H', 'D', 'K', 'P', 'T', '1'};
constexpr char kCommit[8] = {'N', 'S', 'H', 'D', 'C', 'M', 'T', '1'};
constexpr std::uint32_t kFormatVersion = 1;
// Footer = whole-file CRC + commit marker.
constexpr std::size_t kFooterSize = sizeof(std::uint32_t) + sizeof(kCommit);

void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t size) {
  // An empty key, meta string or tensor appends nothing, and its data()
  // may be null, which memcpy must not see even for zero bytes.
  if (size == 0) return;
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, data, size);
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& value) {
  append_bytes(out, &value, sizeof(T));
}

/// Bounds-checked sequential reader over the raw buffer.
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  template <typename T>
  bool read_pod(T& value) {
    if (size - pos < sizeof(T)) return false;
    std::memcpy(&value, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool read_string(std::string& out) {
    std::uint64_t length = 0;
    if (!read_pod(length)) return false;
    if (length > size - pos) return false;
    out.assign(reinterpret_cast<const char*>(data + pos),
               static_cast<std::size_t>(length));
    pos += static_cast<std::size_t>(length);
    return true;
  }
};

}  // namespace

const char* to_string(LoadStatus status) {
  switch (status) {
    case LoadStatus::kOk: return "ok";
    case LoadStatus::kNotFound: return "not_found";
    case LoadStatus::kTruncated: return "truncated";
    case LoadStatus::kBadChecksum: return "bad_checksum";
    case LoadStatus::kVersionMismatch: return "version_mismatch";
    case LoadStatus::kShapeMismatch: return "shape_mismatch";
    case LoadStatus::kNonFinite: return "non_finite";
  }
  return "unknown";
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> out;
  append_bytes(out, kMagic, sizeof kMagic);
  append_pod(out, kFormatVersion);
  append_pod(out, static_cast<std::uint32_t>(checkpoint.tensors.size()));
  append_pod(out, static_cast<std::uint64_t>(checkpoint.key.size()));
  append_bytes(out, checkpoint.key.data(), checkpoint.key.size());
  append_pod(out, static_cast<std::uint64_t>(checkpoint.meta.size()));
  append_bytes(out, checkpoint.meta.data(), checkpoint.meta.size());
  for (const CheckpointTensor& t : checkpoint.tensors) {
    append_pod(out, static_cast<std::uint32_t>(t.dims.size()));
    for (const std::int64_t d : t.dims) append_pod(out, d);
  }
  append_pod(out, crc32(out.data(), out.size()));  // header CRC

  for (const CheckpointTensor& t : checkpoint.tensors) {
    const std::size_t bytes = t.values.size() * sizeof(float);
    append_bytes(out, t.values.data(), bytes);
    append_pod(out, crc32(out.data() + (out.size() - bytes), bytes));
  }

  append_pod(out, crc32(out.data(), out.size()));  // whole-file CRC
  append_bytes(out, kCommit, sizeof kCommit);
  return out;
}

CheckpointLoad decode_checkpoint(const std::uint8_t* data, std::size_t size) {
  CheckpointLoad load;
  // Identity first: a buffer that does not begin with the magic is some
  // other artifact (legacy blob) and reads as a miss.  A strict prefix of
  // the magic can only be a truncated checkpoint.
  if (size < sizeof kMagic) {
    load.status = (size > 0 && std::memcmp(data, kMagic, size) != 0)
                      ? LoadStatus::kNotFound
                      : LoadStatus::kTruncated;
    return load;
  }
  if (std::memcmp(data, kMagic, sizeof kMagic) != 0) {
    load.status = LoadStatus::kNotFound;
    return load;
  }

  // Version gates all further interpretation: a future format may relocate
  // every field after the version word.
  Reader reader{data, size, sizeof kMagic};
  std::uint32_t version = 0;
  if (!reader.read_pod(version)) {
    load.status = LoadStatus::kTruncated;
    return load;
  }
  if (version != kFormatVersion) {
    load.status = LoadStatus::kVersionMismatch;
    return load;
  }

  // Commit marker: its absence means the tail of the file never made it to
  // disk (torn write / short read).
  if (size < reader.pos + kFooterSize ||
      std::memcmp(data + size - sizeof kCommit, kCommit, sizeof kCommit) != 0) {
    load.status = LoadStatus::kTruncated;
    return load;
  }

  // Whole-file integrity before trusting any parsed length.
  const std::size_t crc_pos = size - kFooterSize;
  std::uint32_t stored_file_crc = 0;
  std::memcpy(&stored_file_crc, data + crc_pos, sizeof stored_file_crc);
  if (crc32(data, crc_pos) != stored_file_crc) {
    load.status = LoadStatus::kBadChecksum;
    return load;
  }

  // Parse the header.  The CRC passed, so any overrun here means the writer
  // itself emitted an inconsistent file; report it as truncation.
  Checkpoint& cp = load.checkpoint;
  std::uint32_t tensor_count = 0;
  if (!reader.read_pod(tensor_count) || !reader.read_string(cp.key) ||
      !reader.read_string(cp.meta)) {
    load.status = LoadStatus::kTruncated;
    return load;
  }
  cp.tensors.resize(tensor_count);
  for (CheckpointTensor& t : cp.tensors) {
    std::uint32_t rank = 0;
    if (!reader.read_pod(rank) || rank > 8) {
      load.status = LoadStatus::kTruncated;
      return load;
    }
    t.dims.resize(rank);
    for (std::int64_t& d : t.dims) {
      if (!reader.read_pod(d) || d < 0) {
        load.status = LoadStatus::kTruncated;
        return load;
      }
    }
  }
  const std::size_t header_end = reader.pos;
  std::uint32_t stored_header_crc = 0;
  if (!reader.read_pod(stored_header_crc)) {
    load.status = LoadStatus::kTruncated;
    return load;
  }
  if (crc32(data, header_end) != stored_header_crc) {
    load.status = LoadStatus::kBadChecksum;
    return load;
  }

  // Payload sections.
  for (CheckpointTensor& t : cp.tensors) {
    std::int64_t numel = 1;
    for (const std::int64_t d : t.dims) numel *= d;
    const std::size_t bytes = static_cast<std::size_t>(numel) * sizeof(float);
    if (bytes > crc_pos - reader.pos) {
      load.status = LoadStatus::kTruncated;
      return load;
    }
    const std::size_t payload_pos = reader.pos;
    t.values.resize(static_cast<std::size_t>(numel));
    std::memcpy(t.values.data(), data + payload_pos, bytes);
    reader.pos += bytes;
    std::uint32_t stored_section_crc = 0;
    if (!reader.read_pod(stored_section_crc)) {
      load.status = LoadStatus::kTruncated;
      return load;
    }
    if (crc32(data + payload_pos, bytes) != stored_section_crc) {
      load.status = LoadStatus::kBadChecksum;
      return load;
    }
  }
  if (reader.pos != crc_pos) {  // trailing garbage between payload and footer
    load.status = LoadStatus::kTruncated;
    return load;
  }
  load.status = LoadStatus::kOk;
  return load;
}

bool write_checkpoint_file(const std::string& path, const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  if (fault::should_fire("checkpoint.bit_flip") && !bytes.empty())
    bytes[bytes.size() / 2] ^= 0x10;
  std::size_t write_size = bytes.size();
  if (fault::should_fire("checkpoint.torn_write")) write_size = bytes.size() / 2;

  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  // Unique staging name per writer (cf. DiskCache::put): concurrent writers
  // under the same final name must not clobber each other's temp file.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(write_size));
    if (!out) {
      NSHD_LOG_WARN("failed to write checkpoint %s", tmp.c_str());
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    NSHD_LOG_WARN("failed to commit checkpoint %s: %s", path.c_str(),
                  ec.message().c_str());
    return false;
  }
  return true;
}

CheckpointLoad read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return CheckpointLoad{};  // kNotFound
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::max<std::streamoff>(end, 0)));
  if (!bytes.empty()) {
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!in) {
      CheckpointLoad load;
      load.status = LoadStatus::kTruncated;
      return load;
    }
  }
  if (fault::should_fire("checkpoint.short_read"))
    bytes.resize(bytes.size() - bytes.size() / 4);
  return decode_checkpoint(bytes.data(), bytes.size());
}

}  // namespace nshd::util

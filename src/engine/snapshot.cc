#include "src/engine/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/util/fingerprint.h"

namespace gqc {

namespace {

constexpr std::string_view kMagic = "GQCSNAP1";

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void AppendRecord(std::string* out, std::string_view text) {
  AppendU32(out, static_cast<uint32_t>(text.size()));
  out->append(text);
}

/// Cursor over the snapshot bytes; every read checks bounds so a truncated
/// or length-corrupted snapshot fails cleanly instead of reading past the
/// buffer.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU32(uint32_t* v) {
    if (bytes_.size() - pos_ < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (bytes_.size() - pos_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadRecord(std::string* text) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (bytes_.size() - pos_ < len) return false;
    text->assign(bytes_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  std::size_t pos() const { return pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string EncodeSnapshot(const EngineCore::SnapshotKeys& keys) {
  std::string out;
  out.append(kMagic);
  AppendU32(&out, static_cast<uint32_t>(keys.schemas.size()));
  // lint: bounded(linear in the snapshot keys)
  for (const std::string& s : keys.schemas) AppendRecord(&out, s);
  AppendU32(&out, static_cast<uint32_t>(keys.queries.size()));
  // lint: bounded(linear in the snapshot keys)
  for (const auto& [schema, q] : keys.queries) {
    AppendRecord(&out, schema);
    AppendRecord(&out, q);
  }
  AppendU64(&out, Fnv1a64(out));
  return out;
}

Result<EngineCore::SnapshotKeys> DecodeSnapshot(std::string_view bytes) {
  using R = Result<EngineCore::SnapshotKeys>;
  if (bytes.size() < kMagic.size() + 8 ||
      bytes.substr(0, kMagic.size()) != kMagic) {
    return R::Error("snapshot: bad magic (not a GQCSNAP1 snapshot)");
  }
  // Verify the trailing fingerprint over everything before it, FIRST: a
  // corrupt body must never even be parsed into keys.
  std::string_view body = bytes.substr(0, bytes.size() - 8);
  Reader tail(bytes.substr(bytes.size() - 8));
  uint64_t stored_fp = 0;
  (void)tail.ReadU64(&stored_fp);
  if (Fnv1a64(body) != stored_fp) {
    return R::Error("snapshot: fingerprint mismatch (corrupt or truncated)");
  }

  Reader r(body.substr(kMagic.size()));
  EngineCore::SnapshotKeys keys;
  uint32_t n_schemas = 0;
  if (!r.ReadU32(&n_schemas)) return R::Error("snapshot: truncated schema count");
  keys.schemas.reserve(n_schemas);
  // lint: bounded(linear in the snapshot records)
  for (uint32_t i = 0; i < n_schemas; ++i) {
    std::string s;
    if (!r.ReadRecord(&s)) return R::Error("snapshot: truncated schema record");
    keys.schemas.push_back(std::move(s));
  }
  uint32_t n_queries = 0;
  if (!r.ReadU32(&n_queries)) return R::Error("snapshot: truncated query count");
  keys.queries.reserve(n_queries);
  // lint: bounded(linear in the snapshot records)
  for (uint32_t i = 0; i < n_queries; ++i) {
    std::string schema;
    std::string q;
    if (!r.ReadRecord(&schema) || !r.ReadRecord(&q)) {
      return R::Error("snapshot: truncated query record");
    }
    keys.queries.emplace_back(std::move(schema), std::move(q));
  }
  if (r.pos() != body.size() - kMagic.size()) {
    return R::Error("snapshot: trailing garbage after records");
  }
  return keys;
}

Result<bool> SaveSnapshot(const EngineCore& core, const std::string& path) {
  std::string bytes = EncodeSnapshot(core.ExportSnapshotKeys());
  // Write a sibling temp file and rename it over `path` only once it is
  // durable: a kill or a full disk mid-save then leaves the last good
  // snapshot in place.
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Result<bool>::Error("snapshot: cannot create " + tmp);
  std::size_t written = 0;
  // lint: bounded(short writes; each iteration writes at least one byte)
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  bool ok = written == bytes.size() && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Result<bool>::Error("snapshot: write failed for " + path);
  }
  return true;
}

Result<uint64_t> LoadSnapshot(EngineCore* core, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Result<uint64_t>::Error("snapshot: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = std::move(buf).str();
  auto keys = DecodeSnapshot(bytes);
  if (!keys.ok()) {
    core->stats().warmstart_rejected.fetch_add(1, std::memory_order_relaxed);
    return Result<uint64_t>::Error(keys.error());
  }
  return static_cast<uint64_t>(core->WarmStart(keys.value()));
}

}  // namespace gqc

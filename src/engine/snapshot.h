#ifndef GQC_ENGINE_SNAPSHOT_H_
#define GQC_ENGINE_SNAPSHOT_H_

#include <string>
#include <string_view>

#include "src/core/result.h"
#include "src/engine/engine_core.h"

namespace gqc {

/// Disk persistence for cache warmth (DESIGN.md §12).
///
/// A snapshot stores ONLY the canonical context keys (schema texts and
/// (schema, Q) text pairs) — never the computed values. Warm-start replays
/// the keys through the ordinary context builders, so every warmed entry is
/// recomputed from scratch by the same code a live request would run. A
/// corrupt or adversarial snapshot therefore cannot alter any verdict: the
/// worst it can do is fail verification (rejected below) or warm an
/// irrelevant key (wasted work, bounded by the cache budget).
///
/// Wire format (little-endian):
///   magic   8 bytes  "GQCSNAP1"
///   u32     number of schema records
///   record* u32 byte length + raw bytes (schema text)
///   u32     number of query records
///   record* two length-prefixed records (schema text, Q text)
///   u64     FNV-1a fingerprint of every byte above
/// Decoding verifies the magic, every length (no record may run past the
/// buffer), and the trailing fingerprint; any mismatch rejects the whole
/// snapshot with an error (never a partial load).

/// Serializes keys into the snapshot wire format.
std::string EncodeSnapshot(const EngineCore::SnapshotKeys& keys);

/// Parses and verifies a snapshot; errors on any structural or fingerprint
/// mismatch.
Result<EngineCore::SnapshotKeys> DecodeSnapshot(std::string_view bytes);

/// Exports `core`'s context keys to `path`, atomically: the bytes go to
/// `path.tmp`, which is fsync'ed and renamed over `path`, so a crash or a
/// full disk mid-save never destroys the previous snapshot. Errors on I/O
/// failure, leaving `path` untouched.
Result<bool> SaveSnapshot(const EngineCore& core, const std::string& path);

/// Loads, verifies, and warm-starts `core` from `path`. Returns the number
/// of contexts loaded; errors on I/O failure or a corrupt snapshot (the
/// core is left untouched in that case, and a corrupt snapshot bumps
/// stats().warmstart_rejected).
Result<uint64_t> LoadSnapshot(EngineCore* core, const std::string& path);

}  // namespace gqc

#endif  // GQC_ENGINE_SNAPSHOT_H_

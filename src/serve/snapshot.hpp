// Crash-safe persistence for the planning service.
//
// A snapshot lets a restarted service start warm: the plan cache is
// repopulated with the exact ServedPlan objects the previous process
// computed (bit-identical — doubles round-trip by bit pattern) and the
// online thermal-identification state resumes where it stopped.  Snapshots
// are written atomically (tmp file + rename), so a crash mid-write leaves
// the previous good snapshot intact, and loads are paranoid: anything that
// does not parse as exactly one well-formed snapshot of the current version
// is rejected with a SnapshotError naming the defect, and the service then
// simply serves from a cold cache.  A snapshot is an optimization, never a
// source of truth.
//
// On-disk layout (all integers little-endian fixed-width, all doubles by
// IEEE-754 bit pattern):
//
//   header   8 bytes  magic "FOSCSNAP"
//            u32      format version (kSnapshotVersion; loader rejects
//                     any other value, older *or* newer — plans are cheap
//                     to recompute, so no migration machinery)
//            u32      reserved flags (written 0, must read 0)
//            u64      payload size in bytes
//            u64      FNV-1a checksum over the payload bytes
//   payload  u64      plan count
//            plans    (see snapshot.cpp; includes the cache key, the
//                     degraded flag, the certificate, and the full
//                     schedule), least recently used first
//            u8       identify-state-present flag
//            state    (optional) RLS theta/covariance/updates + poll count
//                     and accumulated observation time
//
// The cache key stored with each plan was hashed under the key schema
// version current at save time; plan keys are *not* rehashed at load.
// That is sound because the loader rejects any snapshot whose format
// version differs, and the snapshot format version is bumped whenever the
// key schema version changes (see cache_key.cpp kSchemaVersion — the two
// move together by policy, documented in DESIGN.md §12).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/identify.hpp"
#include "serve/errors.hpp"
#include "serve/plan_cache.hpp"

namespace foscil::serve {

/// Current on-disk format version.  Bump on ANY layout change and whenever
/// serve/cache_key.cpp bumps its key schema version.  v2 follows key
/// schema v4 (the evaluation engine left the key).
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Everything a snapshot carries.
struct SnapshotData {
  /// Cached plans, least recently used first (PlanCache::export_entries
  /// order), so replaying through PlanCache::insert restores LRU order.
  std::vector<ServedPlan> plans;
  /// Online thermal-identification state, when the service runs with an
  /// identifier attached.
  std::optional<core::IdentifyState> identify;
};

/// Serializes `data` to `path` atomically: writes `path` + ".tmp", then
/// renames over `path`.  Throws SnapshotError on any I/O failure (the tmp
/// file is removed best-effort).
void save_snapshot(const std::string& path, const SnapshotData& data);

/// Parses the snapshot at `path`.  Throws SnapshotError — with a message
/// naming the file and the specific defect — if the file is missing,
/// unreadable, truncated, corrupt (checksum or structure), or carries a
/// different format version.  A successful load round-trips every plan
/// bit-identically.
[[nodiscard]] SnapshotData load_snapshot(const std::string& path);

/// Serialize one ServedPlan to the snapshot's plan record layout (no
/// header, no checksum — the caller frames it).  The network tier reuses
/// this as the PlanResponse body so a plan crossing the wire round-trips
/// bit-identically through exactly the code the snapshot tests pin down.
[[nodiscard]] std::string encode_plan_bytes(const ServedPlan& plan);

/// Parse one plan record.  Strict: every length is bounds-checked, every
/// field validated, and trailing bytes are rejected.  Throws SnapshotError
/// naming `context` and the defect.
[[nodiscard]] ServedPlan decode_plan_bytes(const std::string& bytes,
                                           const std::string& context);

}  // namespace foscil::serve

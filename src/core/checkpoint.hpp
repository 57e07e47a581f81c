#pragma once

/// \file
/// Crash-consistent binary particle checkpoints in one format (version 2,
/// `write_run_checkpoint`/`read_run_checkpoint`): a full solver restart
/// record — both species, the step counter, the scale factor, and a config
/// signature so a resume against a different configuration is rejected
/// loudly instead of silently diverging.  The same files drive the
/// standalone-kernel workflow of §7.2 (a gas-only checkpoint with an empty
/// dark-matter set): hot spots extracted into standalone applications driven
/// by checkpoint files, so a single kernel can be recompiled and re-run
/// quickly while experimenting with variants.
///
/// Files are written crash-consistently through the io fault layer:
/// the bytes stream into `<path>.tmp`, the file is fsynced, atomically
/// renamed into place, and the directory fsynced — a crash at any point
/// leaves either the complete new file or no file at `<path>`, never a torn
/// one.  Every file ends in a CheckpointTrailer carrying a CRC-32 per
/// section (header, dm payload, gas payload) plus a CRC of the trailer
/// itself, so readers can name exactly which section a corruption hit.
///
/// Readers bound the header's particle counts against the actual file
/// size before allocating, so corrupt or truncated files fail cleanly; all
/// entry points return a typed CkptResult naming the failing section and
/// byte offsets instead of a bare bool.

#include <cstdint>
#include <string>

#include "core/particles.hpp"

namespace hacc::core {

/// On-disk header at byte 0 of a checkpoint file.  All members are 8-byte
/// sized and aligned, so the struct has no padding to CRC.
struct RunCheckpointHeader {
  std::uint64_t magic = 0x4352'4b48'4143'4321ull;  ///< "CRKHACC!"
  std::uint64_t version = 2;
  std::uint64_t n_dm = 0;
  std::uint64_t n_gas = 0;
  double box = 0.0;
  double scale_factor = 0.0;
  std::uint64_t step = 0;
  std::uint64_t config_hash = 0;
};
static_assert(sizeof(RunCheckpointHeader) == 8 * sizeof(std::uint64_t));

/// On-disk trailer closing every checkpoint file: one CRC-32 per section,
/// then a CRC of the trailer itself so a torn trailer is detected before
/// any of its claims are trusted.
struct CheckpointTrailer {
  std::uint64_t magic = 0x4352'4b54'524c'5221ull;  ///< "CRKTRLR!"-ish tag
  std::uint32_t header_crc = 0;   ///< CRC-32 of the header bytes
  std::uint32_t dm_crc = 0;       ///< CRC-32 of the dm payload
  std::uint32_t gas_crc = 0;      ///< CRC-32 of the gas payload
  std::uint32_t self_crc = 0;     ///< CRC-32 of the preceding trailer bytes
};
static_assert(sizeof(CheckpointTrailer) == 3 * sizeof(std::uint64_t));

/// Failure classes a checkpoint operation can report.
enum class CkptStatus {
  kOk,            ///< success
  kOpenFailed,    ///< cannot open/create the file (or its .tmp)
  kWriteFailed,   ///< a write syscall failed mid-stream
  kSyncFailed,    ///< fsync of the file or its directory failed
  kRenameFailed,  ///< the atomic tmp -> final rename failed
  kTooSmall,      ///< file shorter than header + trailer
  kBadMagic,      ///< header magic mismatch (not a checkpoint)
  kBadVersion,    ///< recognized magic, unsupported version
  kSizeMismatch,  ///< file size inconsistent with the header's counts
  kCrcMismatch,   ///< a section's CRC-32 does not match the trailer
  kReadFailed,    ///< a read syscall failed mid-stream
};

/// Which on-disk region a failure was pinned to.
enum class CkptSection {
  kNone,       ///< not section-specific (open/rename/size errors)
  kHeader,     ///< the fixed-size header struct
  kDmPayload,  ///< the dark-matter payload
  kGasPayload, ///< the gas payload
  kTrailer,    ///< the CRC trailer
};

/// Short stable identifier ("crc_mismatch", "size_mismatch", ...) used in
/// JSONL events and log lines.
const char* to_string(CkptStatus status);
/// Section identifier ("header", "dm_payload", ...).
const char* to_string(CkptSection section);

/// Typed outcome of a checkpoint read/write/validate.  `detail` carries the
/// diagnosable context: which section, expected vs. actual sizes or CRCs,
/// and byte offsets into the file.
struct CkptResult {
  CkptStatus status = CkptStatus::kOk;
  CkptSection section = CkptSection::kNone;
  std::string detail;

  bool ok() const { return status == CkptStatus::kOk; }
  explicit operator bool() const { return ok(); }

  /// "ok" or "<status>(<section>): <detail>" — the event/log form.
  std::string message() const;
};

/// Run metadata carried by a restart checkpoint alongside the two particle
/// species.
struct RunCheckpointMeta {
  double box = 0.0;
  double scale_factor = 0.0;
  std::uint64_t step = 0;         ///< Solver::steps_taken() at write time
  std::uint64_t config_hash = 0;  ///< config_signature() of the writing run
};

/// Writes a restart checkpoint (dark matter + baryons + run metadata, every
/// field of both sets) crash-consistently: tmp + fsync + rename + dir fsync,
/// CRC trailer.
CkptResult write_run_checkpoint(const std::string& path, const ParticleSet& dm,
                                const ParticleSet& gas,
                                const RunCheckpointMeta& meta);

/// Reads a restart checkpoint, verifying every section CRC.
/// Config-hash validation is the caller's job — compare `meta.config_hash`
/// against config_signature() of the resuming run.
CkptResult read_run_checkpoint(const std::string& path, ParticleSet& dm,
                               ParticleSet& gas, RunCheckpointMeta& meta);

/// Full integrity scan of a checkpoint without materializing the
/// particle state: structure, sizes, and every section CRC are verified by
/// streaming the file once.  On success `meta` (when non-null) is filled so
/// the caller can check the config signature and step.  This is what
/// `--restart auto` runs over every candidate before trusting one.
CkptResult validate_run_checkpoint(const std::string& path,
                                   RunCheckpointMeta* meta = nullptr);

}  // namespace hacc::core

#include "core/checkpoint.hpp"

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <type_traits>
#include <vector>

#include "io/crc32.hpp"
#include "io/fault_fs.hpp"

namespace hacc::core {

namespace {

// The serialized field order; a single list keeps write and read in sync.
template <typename PS, typename Fn>
void for_each_field(PS& p, Fn fn) {
  fn(p.x); fn(p.y); fn(p.z);
  fn(p.vx); fn(p.vy); fn(p.vz);
  fn(p.mass);
  fn(p.h); fn(p.V); fn(p.rho); fn(p.u); fn(p.P); fn(p.cs);
  fn(p.crk);
  fn(p.m0);
  fn(p.ax); fn(p.ay); fn(p.az);
  fn(p.du); fn(p.vsig);
  fn(p.dvel);
}

// Serialized bytes per particle, derived from the field list itself so the
// bound stays in sync with the schema.
std::size_t per_particle_bytes() {
  static const std::size_t bytes = [] {
    ParticleSet one;
    one.resize(1);
    std::size_t b = 0;
    for_each_field(one, [&b](const auto& v) {
      b += v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    });
    return b;
  }();
  return bytes;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Headers and trailers are CRC'd as raw struct bytes; both are padding-free
// (static_asserts in checkpoint.hpp), so every byte is a field.
CheckpointTrailer make_trailer(std::uint32_t header_crc, std::uint32_t dm_crc,
                               std::uint32_t gas_crc) {
  CheckpointTrailer tr;
  tr.header_crc = header_crc;
  tr.dm_crc = dm_crc;
  tr.gas_crc = gas_crc;
  tr.self_crc =
      io::crc32(&tr, offsetof(CheckpointTrailer, self_crc));
  return tr;
}

// Streams one file's sections through the fault-injectable io layer,
// tracking the absolute byte offset for failure diagnostics.
class SectionWriter {
 public:
  CkptResult open(const std::string& tmp_path) {
    io::IoStatus st;
    file_ = io::File::create(tmp_path, st);
    if (!st) {
      return {CkptStatus::kOpenFailed, CkptSection::kNone, st.message};
    }
    return {};
  }

  CkptResult write(const void* data, std::size_t n, CkptSection section) {
    const io::IoStatus st = file_.write(data, n);
    if (!st) {
      return {CkptStatus::kWriteFailed, section,
              "at file bytes [" + std::to_string(offset_) + ", " +
                  std::to_string(offset_ + n) + "): " + st.message};
    }
    offset_ += n;
    return {};
  }

  CkptResult write_payload(const ParticleSet& p, CkptSection section,
                           std::uint32_t& crc_out) {
    io::Crc32 crc;
    CkptResult result;
    for_each_field(p, [&](const auto& v) {
      if (!result.ok()) return;
      const std::size_t bytes =
          v.size() *
          sizeof(typename std::decay_t<decltype(v)>::value_type);
      result = write(v.data(), bytes, section);
      if (result.ok()) crc.update(v.data(), bytes);
    });
    crc_out = crc.value();
    return result;
  }

  // fsync file, close, rename into place, fsync the directory: after this
  // returns Ok the file at `path` is durable and complete.
  CkptResult commit(const std::string& tmp_path, const std::string& path) {
    if (const io::IoStatus st = file_.sync(); !st) {
      return {CkptStatus::kSyncFailed, CkptSection::kNone, st.message};
    }
    if (const io::IoStatus st = file_.close(); !st) {
      return {CkptStatus::kWriteFailed, CkptSection::kNone, st.message};
    }
    if (const io::IoStatus st = io::rename_file(tmp_path, path); !st) {
      return {CkptStatus::kRenameFailed, CkptSection::kNone, st.message};
    }
    if (const io::IoStatus st = io::sync_dir(io::parent_dir(path)); !st) {
      return {CkptStatus::kSyncFailed, CkptSection::kNone, st.message};
    }
    return {};
  }

 private:
  io::File file_;
  std::uint64_t offset_ = 0;
};

// Header + dm payload + gas payload + CRC trailer, via tmp + fsync + atomic
// rename.  On failure the partial tmp file is removed best-effort (outside
// the fault layer: cleanup is not part of the durability protocol under
// test).
CkptResult write_checkpoint_file(const std::string& path,
                                 const RunCheckpointHeader& hdr,
                                 const ParticleSet& dm,
                                 const ParticleSet& gas) {
  const std::string tmp = path + ".tmp";
  SectionWriter writer;
  CkptResult result = writer.open(tmp);
  if (result.ok()) result = writer.write(&hdr, sizeof(hdr), CkptSection::kHeader);
  std::uint32_t dm_crc = 0;
  std::uint32_t gas_crc = 0;
  if (result.ok()) {
    result = writer.write_payload(dm, CkptSection::kDmPayload, dm_crc);
  }
  if (result.ok()) {
    result = writer.write_payload(gas, CkptSection::kGasPayload, gas_crc);
  }
  if (result.ok()) {
    const CheckpointTrailer tr =
        make_trailer(io::crc32(&hdr, sizeof(hdr)), dm_crc, gas_crc);
    result = writer.write(&tr, sizeof(tr), CkptSection::kTrailer);
  }
  if (result.ok()) result = writer.commit(tmp, path);
  if (!result.ok()) std::remove(tmp.c_str());
  return result;
}

// ---- shared reader plumbing ----

struct FileLayout {
  std::uint64_t file_size = 0;
  std::uint64_t payload_offset = 0;
  std::uint64_t payload_bytes = 0;   // between header and trailer
  CheckpointTrailer trailer{};
};

// Structural checks: open, sizes, trailer self-integrity.  Fills `layout`
// and leaves `f` positioned at byte 0.
CkptResult open_and_check(std::ifstream& f, const std::string& path,
                          FileLayout& layout) {
  constexpr std::size_t header_size = sizeof(RunCheckpointHeader);
  f.open(path, std::ios::binary);
  if (!f) {
    return {CkptStatus::kOpenFailed, CkptSection::kNone,
            "cannot open '" + path + "'"};
  }
  f.seekg(0, std::ios::end);
  layout.file_size = static_cast<std::uint64_t>(f.tellg());
  const std::uint64_t min_size = header_size + sizeof(CheckpointTrailer);
  if (layout.file_size < min_size) {
    return {CkptStatus::kTooSmall, CkptSection::kNone,
            "file is " + std::to_string(layout.file_size) +
                " bytes; header (" + std::to_string(header_size) +
                ") + trailer (" + std::to_string(sizeof(CheckpointTrailer)) +
                ") need " + std::to_string(min_size)};
  }
  layout.payload_offset = header_size;
  layout.payload_bytes = layout.file_size - min_size;

  // Trailer first: nothing else in the file can be trusted until the
  // trailer proves internally consistent.
  f.seekg(static_cast<std::streamoff>(layout.file_size -
                                      sizeof(CheckpointTrailer)));
  f.read(reinterpret_cast<char*>(&layout.trailer), sizeof(CheckpointTrailer));
  if (!f) {
    return {CkptStatus::kReadFailed, CkptSection::kTrailer,
            "cannot read the trailer at bytes [" +
                std::to_string(layout.file_size - sizeof(CheckpointTrailer)) +
                ", " + std::to_string(layout.file_size) + ")"};
  }
  if (layout.trailer.magic != CheckpointTrailer{}.magic) {
    return {CkptStatus::kBadMagic, CkptSection::kTrailer,
            "trailer magic " + hex64(layout.trailer.magic) + " != " +
                hex64(CheckpointTrailer{}.magic) +
                " (pre-CRC-format file or trailing garbage?)"};
  }
  const std::uint32_t self =
      io::crc32(&layout.trailer, offsetof(CheckpointTrailer, self_crc));
  if (self != layout.trailer.self_crc) {
    return {CkptStatus::kCrcMismatch, CkptSection::kTrailer,
            "trailer self-CRC " + hex32(self) + " != stored " +
                hex32(layout.trailer.self_crc)};
  }
  f.seekg(0);
  return {};
}

// Verifies the raw header bytes against the trailer's header CRC.
CkptResult check_header_crc(const void* header, std::size_t header_size,
                            const FileLayout& layout) {
  const std::uint32_t crc = io::crc32(header, header_size);
  if (crc != layout.trailer.header_crc) {
    return {CkptStatus::kCrcMismatch, CkptSection::kHeader,
            "header CRC " + hex32(crc) + " != stored " +
                hex32(layout.trailer.header_crc) + " (header at bytes [0, " +
                std::to_string(header_size) + "))"};
  }
  return {};
}

// Reads one species' payload into `p` (already resized), CRC-checking it
// against `expected_crc`.  `offset` is the section's absolute byte offset,
// for diagnostics.
CkptResult read_payload(std::ifstream& f, ParticleSet& p, CkptSection section,
                        std::uint32_t expected_crc, std::uint64_t offset,
                        std::uint64_t section_bytes) {
  io::Crc32 crc;
  CkptResult result;
  for_each_field(p, [&](auto& v) {
    if (!result.ok()) return;
    const std::size_t bytes =
        v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    f.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(bytes));
    if (!f) {
      result = {CkptStatus::kReadFailed, section,
                "short read inside the section at bytes [" +
                    std::to_string(offset) + ", " +
                    std::to_string(offset + section_bytes) + ")"};
      return;
    }
    crc.update(v.data(), bytes);
  });
  if (!result.ok()) return result;
  if (crc.value() != expected_crc) {
    return {CkptStatus::kCrcMismatch, section,
            "section CRC " + hex32(crc.value()) + " != stored " +
                hex32(expected_crc) + " (section at bytes [" +
                std::to_string(offset) + ", " +
                std::to_string(offset + section_bytes) + "))"};
  }
  return {};
}

// CRC of `bytes` file bytes starting at the current position, streamed in
// bounded chunks (validation never allocates payload-sized buffers).
CkptResult stream_crc(std::ifstream& f, std::uint64_t bytes,
                      CkptSection section, std::uint32_t expected_crc,
                      std::uint64_t offset) {
  static constexpr std::size_t kChunk = 1u << 20;
  std::vector<char> buf(std::min<std::uint64_t>(bytes, kChunk));
  io::Crc32 crc;
  std::uint64_t left = bytes;
  while (left > 0) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, kChunk));
    f.read(buf.data(), static_cast<std::streamsize>(n));
    if (!f) {
      return {CkptStatus::kReadFailed, section,
              "short read inside the section at bytes [" +
                  std::to_string(offset) + ", " +
                  std::to_string(offset + bytes) + ")"};
    }
    crc.update(buf.data(), n);
    left -= n;
  }
  if (crc.value() != expected_crc) {
    return {CkptStatus::kCrcMismatch, section,
            "section CRC " + hex32(crc.value()) + " != stored " +
                hex32(expected_crc) + " (section at bytes [" +
                std::to_string(offset) + ", " +
                std::to_string(offset + bytes) + "))"};
  }
  return {};
}

}  // namespace

const char* to_string(CkptStatus status) {
  switch (status) {
    case CkptStatus::kOk: return "ok";
    case CkptStatus::kOpenFailed: return "open_failed";
    case CkptStatus::kWriteFailed: return "write_failed";
    case CkptStatus::kSyncFailed: return "sync_failed";
    case CkptStatus::kRenameFailed: return "rename_failed";
    case CkptStatus::kTooSmall: return "too_small";
    case CkptStatus::kBadMagic: return "bad_magic";
    case CkptStatus::kBadVersion: return "bad_version";
    case CkptStatus::kSizeMismatch: return "size_mismatch";
    case CkptStatus::kCrcMismatch: return "crc_mismatch";
    case CkptStatus::kReadFailed: return "read_failed";
  }
  return "unknown";
}

const char* to_string(CkptSection section) {
  switch (section) {
    case CkptSection::kNone: return "none";
    case CkptSection::kHeader: return "header";
    case CkptSection::kDmPayload: return "dm_payload";
    case CkptSection::kGasPayload: return "gas_payload";
    case CkptSection::kTrailer: return "trailer";
  }
  return "unknown";
}

std::string CkptResult::message() const {
  if (ok()) return "ok";
  std::string out = to_string(status);
  if (section != CkptSection::kNone) {
    out += std::string("(") + to_string(section) + ")";
  }
  if (!detail.empty()) out += ": " + detail;
  return out;
}

CkptResult write_run_checkpoint(const std::string& path, const ParticleSet& dm,
                                const ParticleSet& gas,
                                const RunCheckpointMeta& meta) {
  RunCheckpointHeader hdr;
  hdr.n_dm = dm.size();
  hdr.n_gas = gas.size();
  hdr.box = meta.box;
  hdr.scale_factor = meta.scale_factor;
  hdr.step = meta.step;
  hdr.config_hash = meta.config_hash;
  return write_checkpoint_file(path, hdr, dm, gas);
}

namespace {

// Shared reader front half: structure, header checks, payload split.
// Leaves `f` positioned at the payload start.
CkptResult open_run_checkpoint(std::ifstream& f, const std::string& path,
                               FileLayout& layout, RunCheckpointHeader& hdr) {
  CkptResult result = open_and_check(f, path, layout);
  if (!result.ok()) return result;
  f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  if (!f) {
    return {CkptStatus::kReadFailed, CkptSection::kHeader,
            "cannot read the header at bytes [0, " +
                std::to_string(sizeof(hdr)) + ")"};
  }
  if (hdr.magic != RunCheckpointHeader{}.magic) {
    return {CkptStatus::kBadMagic, CkptSection::kHeader,
            "header magic " + hex64(hdr.magic) + " != " +
                hex64(RunCheckpointHeader{}.magic)};
  }
  if (hdr.version != 2) {
    return {CkptStatus::kBadVersion, CkptSection::kHeader,
            "header version " + std::to_string(hdr.version) +
                " (this reader handles version 2)"};
  }
  if (result = check_header_crc(&hdr, sizeof(hdr), layout); !result.ok()) {
    return result;
  }
  // Never trust the on-disk counts blindly: a corrupt header would
  // otherwise trigger a multi-GB resize.  Both species' payloads must match
  // the file exactly before any allocation happens, compared per count so
  // a wrapping n_dm + n_gas cannot pass.
  const std::uint64_t ppb = per_particle_bytes();
  const std::uint64_t n = layout.payload_bytes / ppb;
  if (layout.payload_bytes % ppb != 0 || hdr.n_dm > n ||
      hdr.n_gas != n - hdr.n_dm) {
    return {CkptStatus::kSizeMismatch, CkptSection::kNone,
            "file is " + std::to_string(layout.file_size) + " bytes with " +
                std::to_string(layout.payload_bytes) + " payload bytes (" +
                std::to_string(ppb) + " per particle), but the header " +
                "claims n_dm=" + std::to_string(hdr.n_dm) +
                ", n_gas=" + std::to_string(hdr.n_gas)};
  }
  return {};
}

void fill_meta(const RunCheckpointHeader& hdr, RunCheckpointMeta& meta) {
  meta.box = hdr.box;
  meta.scale_factor = hdr.scale_factor;
  meta.step = hdr.step;
  meta.config_hash = hdr.config_hash;
}

}  // namespace

CkptResult read_run_checkpoint(const std::string& path, ParticleSet& dm,
                               ParticleSet& gas, RunCheckpointMeta& meta) {
  std::ifstream f;
  FileLayout layout;
  RunCheckpointHeader hdr;
  CkptResult result = open_run_checkpoint(f, path, layout, hdr);
  if (!result.ok()) return result;

  const std::uint64_t ppb = per_particle_bytes();
  dm.resize(hdr.n_dm);
  gas.resize(hdr.n_gas);
  fill_meta(hdr, meta);
  const std::uint64_t dm_bytes = hdr.n_dm * ppb;
  result = read_payload(f, dm, CkptSection::kDmPayload, layout.trailer.dm_crc,
                        layout.payload_offset, dm_bytes);
  if (!result.ok()) return result;
  return read_payload(f, gas, CkptSection::kGasPayload, layout.trailer.gas_crc,
                      layout.payload_offset + dm_bytes, hdr.n_gas * ppb);
}

CkptResult validate_run_checkpoint(const std::string& path,
                                   RunCheckpointMeta* meta) {
  std::ifstream f;
  FileLayout layout;
  RunCheckpointHeader hdr;
  CkptResult result = open_run_checkpoint(f, path, layout, hdr);
  if (!result.ok()) return result;

  const std::uint64_t ppb = per_particle_bytes();
  const std::uint64_t dm_bytes = hdr.n_dm * ppb;
  result = stream_crc(f, dm_bytes, CkptSection::kDmPayload,
                      layout.trailer.dm_crc, layout.payload_offset);
  if (!result.ok()) return result;
  result = stream_crc(f, hdr.n_gas * ppb, CkptSection::kGasPayload,
                      layout.trailer.gas_crc, layout.payload_offset + dm_bytes);
  if (!result.ok()) return result;
  if (meta != nullptr) fill_meta(hdr, *meta);
  return {};
}

}  // namespace hacc::core

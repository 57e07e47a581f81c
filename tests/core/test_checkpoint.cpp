#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "io/crc32.hpp"
#include "util/rng.hpp"

namespace hacc::core {
namespace {

ParticleSet random_particles(std::size_t n, std::uint64_t seed) {
  ParticleSet p;
  p.resize(n);
  const util::CounterRng rng(seed);
  std::uint64_t c = 0;
  const auto fill = [&](std::vector<float>& v) {
    for (auto& x : v) x = static_cast<float>(rng.normal(c++));
  };
  fill(p.x); fill(p.y); fill(p.z);
  fill(p.vx); fill(p.vy); fill(p.vz);
  fill(p.mass); fill(p.h); fill(p.V); fill(p.rho); fill(p.u); fill(p.P); fill(p.cs);
  fill(p.crk); fill(p.moments); fill(p.m0);
  fill(p.ax); fill(p.ay); fill(p.az); fill(p.du); fill(p.vsig); fill(p.dvel);
  return p;
}

class CheckpointTest : public ::testing::Test {
 protected:
  // Parallel ctest runs each case as its own process; a shared filename
  // lets concurrent cases clobber each other's checkpoint mid-read.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/crkhacc_ckpt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

// The on-disk layout: header, dm payload, gas payload, trailer.
constexpr std::size_t kHeaderBytes = sizeof(RunCheckpointHeader);

RunCheckpointMeta test_meta() {
  RunCheckpointMeta meta;
  meta.box = 25.0;
  meta.scale_factor = 0.005;
  return meta;
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void dump_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// Serialized bytes per particle, derived from a file of known count.
std::size_t bytes_per_particle(const std::string& path, std::size_t n) {
  const std::string data = slurp_file(path);
  return (data.size() - kHeaderBytes - sizeof(CheckpointTrailer)) / n;
}

// Edits the header of an intact file and re-seals it: the header CRC and
// the trailer's self-CRC are recomputed, so only the reader's structural
// checks (version, counts) stand between the edit and an allocation.
template <typename Edit>
void reseal_header(const std::string& path, Edit edit) {
  std::string data = slurp_file(path);
  RunCheckpointHeader hdr;
  std::memcpy(&hdr, data.data(), kHeaderBytes);
  edit(hdr);
  std::memcpy(data.data(), &hdr, kHeaderBytes);
  CheckpointTrailer tr;
  const std::size_t tr_at = data.size() - sizeof(CheckpointTrailer);
  std::memcpy(&tr, data.data() + tr_at, sizeof(tr));
  tr.header_crc = io::crc32(&hdr, kHeaderBytes);
  tr.self_crc = io::crc32(&tr, offsetof(CheckpointTrailer, self_crc));
  std::memcpy(data.data() + tr_at, &tr, sizeof(tr));
  dump_file(path, data);
}

TEST_F(CheckpointTest, RoundTripPreservesEverything) {
  // The standalone-kernel shape: a gas-only file with every field set.
  const auto p = random_particles(257, 5);
  ASSERT_TRUE(write_run_checkpoint(path_, {}, p, test_meta()));
  ParticleSet dm, q;
  RunCheckpointMeta got;
  ASSERT_TRUE(read_run_checkpoint(path_, dm, q, got));
  EXPECT_DOUBLE_EQ(got.box, 25.0);
  EXPECT_DOUBLE_EQ(got.scale_factor, 0.005);
  EXPECT_EQ(dm.size(), 0u);
  ASSERT_EQ(q.size(), p.size());
  EXPECT_EQ(q.x, p.x);
  EXPECT_EQ(q.vz, p.vz);
  EXPECT_EQ(q.u, p.u);
  EXPECT_EQ(q.vsig, p.vsig);
  EXPECT_EQ(q.crk, p.crk);
  EXPECT_EQ(q.dvel, p.dvel);
}

TEST_F(CheckpointTest, EmptySetRoundTrips) {
  ASSERT_TRUE(write_run_checkpoint(path_, {}, {}, test_meta()));
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  ASSERT_TRUE(read_run_checkpoint(path_, dm, gas, got));
  EXPECT_EQ(dm.size(), 0u);
  EXPECT_EQ(gas.size(), 0u);
  EXPECT_TRUE(validate_run_checkpoint(path_));
}

TEST_F(CheckpointTest, MissingFileFails) {
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r =
      read_run_checkpoint("/nonexistent/path/x.bin", dm, gas, got);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, CkptStatus::kOpenFailed);
  EXPECT_NE(r.message().find("/nonexistent/path/x.bin"), std::string::npos);
}

TEST_F(CheckpointTest, CorruptedMagicRejected) {
  const auto p = random_particles(16, 6);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    const std::uint64_t bad = 0xdeadbeef;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm, gas, got);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, CkptStatus::kBadMagic);
  EXPECT_EQ(r.section, CkptSection::kHeader);
}

TEST_F(CheckpointTest, TruncatedFileRejected) {
  const auto p = random_particles(64, 7);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  const std::string data = slurp_file(path_);
  dump_file(path_, data.substr(0, data.size() / 2));
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  EXPECT_FALSE(read_run_checkpoint(path_, dm, gas, got));
  EXPECT_FALSE(validate_run_checkpoint(path_));
}

TEST_F(CheckpointTest, WrongVersionRejected) {
  const auto p = random_particles(16, 8);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(offsetof(RunCheckpointHeader, version));
    const std::uint64_t bad_version = 7;
    f.write(reinterpret_cast<const char*>(&bad_version), sizeof(bad_version));
  }
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm, gas, got);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, CkptStatus::kBadVersion);
  EXPECT_NE(r.detail.find("7"), std::string::npos) << r.message();
}

TEST_F(CheckpointTest, HugeHeaderCountRejectedWithoutAllocation) {
  const auto p = random_particles(16, 9);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  // Claims a multi-GB payload under a valid header CRC; the reader must
  // bound the count against the actual file size instead of resizing to it.
  reseal_header(path_, [](RunCheckpointHeader& h) { h.n_dm = 1ull << 40; });
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm, gas, got);
  EXPECT_EQ(r.status, CkptStatus::kSizeMismatch) << r.message();
  EXPECT_EQ(dm.size(), 0u);
}

TEST_F(CheckpointTest, HeaderOnlyFileRejected) {
  const auto p = random_particles(16, 10);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  // Truncate to just short of the full header.
  dump_file(path_, slurp_file(path_).substr(0, kHeaderBytes - 1));
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm, gas, got);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, CkptStatus::kTooSmall);
}

TEST_F(CheckpointTest, RunCheckpointRejectsWrappingCounts) {
  // n_dm + n_gas wraps to the true count (5) in uint64; each count alone
  // is impossible.  Both readers must refuse before any resize or read.
  const auto p = random_particles(5, 31);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  reseal_header(path_, [](RunCheckpointHeader& h) {
    h.n_dm = UINT64_MAX;
    h.n_gas = 6;
  });
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  CkptResult r;
  ASSERT_NO_THROW(r = read_run_checkpoint(path_, dm, gas, got));
  EXPECT_EQ(r.status, CkptStatus::kSizeMismatch) << r.message();
  EXPECT_EQ(dm.size(), 0u);
  EXPECT_EQ(gas.size(), 0u);
  CkptResult v;
  ASSERT_NO_THROW(v = validate_run_checkpoint(path_));
  EXPECT_EQ(v.status, CkptStatus::kSizeMismatch) << v.message();
}

TEST_F(CheckpointTest, RunCheckpointRoundTripsBothSpeciesAndMeta) {
  const auto dm = random_particles(64, 11);
  const auto gas = random_particles(64, 12);
  RunCheckpointMeta meta;
  meta.box = 25.0;
  meta.scale_factor = 0.0123;
  meta.step = 17;
  meta.config_hash = 0xfeedfacecafebeefull;
  ASSERT_TRUE(write_run_checkpoint(path_, dm, gas, meta));

  ParticleSet dm2, gas2;
  RunCheckpointMeta got;
  ASSERT_TRUE(read_run_checkpoint(path_, dm2, gas2, got));
  EXPECT_DOUBLE_EQ(got.box, meta.box);
  EXPECT_DOUBLE_EQ(got.scale_factor, meta.scale_factor);
  EXPECT_EQ(got.step, meta.step);
  EXPECT_EQ(got.config_hash, meta.config_hash);
  ASSERT_EQ(dm2.size(), dm.size());
  ASSERT_EQ(gas2.size(), gas.size());
  EXPECT_EQ(dm2.x, dm.x);
  EXPECT_EQ(dm2.vz, dm.vz);
  EXPECT_EQ(dm2.crk, dm.crk);
  EXPECT_EQ(gas2.u, gas.u);
  EXPECT_EQ(gas2.dvel, gas.dvel);
}

TEST_F(CheckpointTest, RunCheckpointGasFreeRoundTrips) {
  const auto dm = random_particles(32, 13);
  ASSERT_TRUE(write_run_checkpoint(path_, dm, ParticleSet{}, {}));
  ParticleSet dm2, gas2;
  RunCheckpointMeta got;
  ASSERT_TRUE(read_run_checkpoint(path_, dm2, gas2, got));
  EXPECT_EQ(dm2.size(), 32u);
  EXPECT_EQ(gas2.size(), 0u);
}

TEST_F(CheckpointTest, RunCheckpointRejectsTruncation) {
  const auto dm = random_particles(32, 14);
  const auto gas = random_particles(32, 15);
  ASSERT_TRUE(write_run_checkpoint(path_, dm, gas, {}));
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)), {});
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() - 16));
  out.close();
  ParticleSet dm2, gas2;
  RunCheckpointMeta got;
  EXPECT_FALSE(read_run_checkpoint(path_, dm2, gas2, got));
}

TEST_F(CheckpointTest, SuccessfulWriteLeavesNoTmpFile) {
  const auto p = random_particles(8, 20);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good())
      << "the tmp staging file must be renamed away";
}

TEST_F(CheckpointTest, WriteToMissingDirectoryReportsOpenFailed) {
  const auto p = random_particles(8, 21);
  const CkptResult r = write_run_checkpoint("/nonexistent-dir/sub/ckpt.bin",
                                            p, {}, test_meta());
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, CkptStatus::kOpenFailed);
}

TEST_F(CheckpointTest, HeaderBitFlipPinpointsHeaderCrc) {
  const auto p = random_particles(16, 22);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(offsetof(RunCheckpointHeader, box));
    const double lie = 50.0;  // plausible value, structurally valid header
    f.write(reinterpret_cast<const char*>(&lie), sizeof(lie));
  }
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm, gas, got);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, CkptStatus::kCrcMismatch);
  EXPECT_EQ(r.section, CkptSection::kHeader);
  EXPECT_NE(r.detail.find("bytes [0, "), std::string::npos) << r.message();
}

TEST_F(CheckpointTest, PayloadBitFlipPinpointsPayloadSection) {
  const auto p = random_particles(16, 23);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  std::string data = slurp_file(path_);
  data[kHeaderBytes + 5] ^= 0x40;  // one bit, early in the payload
  dump_file(path_, data);
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm, gas, got);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, CkptStatus::kCrcMismatch);
  EXPECT_EQ(r.section, CkptSection::kDmPayload);
}

TEST_F(CheckpointTest, TrailingGarbageDetectedViaTrailer) {
  const auto p = random_particles(16, 24);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  dump_file(path_, slurp_file(path_) +
                       "junk appended after a perfectly good checkpoint");
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm, gas, got);
  EXPECT_FALSE(r);
  // Garbage displaces the trailer from the end of the file, so the trailer
  // probe is what catches it.
  EXPECT_EQ(r.section, CkptSection::kTrailer);
}

TEST_F(CheckpointTest, MissingParticleReportsSizesInDetail) {
  const auto p = random_particles(16, 25);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  const std::size_t ppb = bytes_per_particle(path_, 16);
  // Drop one particle's worth of payload but keep the (self-consistent)
  // header and trailer: only the size cross-check can catch this.
  std::string data = slurp_file(path_);
  data.erase(kHeaderBytes, ppb);
  dump_file(path_, data);
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm, gas, got);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, CkptStatus::kSizeMismatch);
  EXPECT_NE(r.detail.find("n_dm=16"), std::string::npos) << r.message();
  EXPECT_NE(r.detail.find("payload bytes"), std::string::npos) << r.message();
  EXPECT_EQ(dm.size(), 0u) << "no allocation before the size check passes";
}

TEST_F(CheckpointTest, TornTrailerPinpointsTrailerSelfCrc) {
  const auto p = random_particles(16, 26);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  std::string data = slurp_file(path_);
  data[data.size() - 2] ^= 0x01;  // inside self_crc
  dump_file(path_, data);
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm, gas, got);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, CkptStatus::kCrcMismatch);
  EXPECT_EQ(r.section, CkptSection::kTrailer);
}

TEST_F(CheckpointTest, RunCheckpointGasFlipPinpointsGasSection) {
  const auto dm = random_particles(12, 27);
  const auto gas = random_particles(8, 28);
  RunCheckpointMeta meta;
  meta.box = 25.0;
  ASSERT_TRUE(write_run_checkpoint(path_, dm, gas, meta));
  const std::string data0 = slurp_file(path_);
  const std::size_t ppb =
      (data0.size() - kHeaderBytes - sizeof(CheckpointTrailer)) / 20;
  std::string data = data0;
  // Flip one byte inside the gas span (after the dm payload).
  data[kHeaderBytes + 12 * ppb + 3] ^= 0x10;
  dump_file(path_, data);

  const CkptResult v = validate_run_checkpoint(path_);
  EXPECT_FALSE(v);
  EXPECT_EQ(v.status, CkptStatus::kCrcMismatch);
  EXPECT_EQ(v.section, CkptSection::kGasPayload);

  ParticleSet dm2, gas2;
  RunCheckpointMeta got;
  const CkptResult r = read_run_checkpoint(path_, dm2, gas2, got);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.section, CkptSection::kGasPayload);

  // ...and a dm-span flip names the dm section.
  data = data0;
  data[kHeaderBytes + 3 * ppb] ^= 0x10;
  dump_file(path_, data);
  const CkptResult v2 = validate_run_checkpoint(path_);
  EXPECT_FALSE(v2);
  EXPECT_EQ(v2.section, CkptSection::kDmPayload);
}

TEST_F(CheckpointTest, ValidateAcceptsIntactFileAndFillsMeta) {
  const auto dm = random_particles(12, 29);
  const auto gas = random_particles(8, 30);
  RunCheckpointMeta meta;
  meta.box = 25.0;
  meta.scale_factor = 0.25;
  meta.step = 42;
  meta.config_hash = 0x1234;
  ASSERT_TRUE(write_run_checkpoint(path_, dm, gas, meta));
  RunCheckpointMeta got;
  ASSERT_TRUE(validate_run_checkpoint(path_, &got));
  EXPECT_DOUBLE_EQ(got.box, 25.0);
  EXPECT_EQ(got.step, 42u);
  EXPECT_EQ(got.config_hash, 0x1234u);
}

TEST_F(CheckpointTest, StatusAndSectionNamesAreStable) {
  // These strings land in JSONL events; tools/check_events.py keys on them.
  EXPECT_STREQ(to_string(CkptStatus::kOk), "ok");
  EXPECT_STREQ(to_string(CkptStatus::kCrcMismatch), "crc_mismatch");
  EXPECT_STREQ(to_string(CkptStatus::kSizeMismatch), "size_mismatch");
  EXPECT_STREQ(to_string(CkptSection::kTrailer), "trailer");
  EXPECT_STREQ(to_string(CkptSection::kGasPayload), "gas_payload");
  CkptResult r{CkptStatus::kCrcMismatch, CkptSection::kHeader, "boom"};
  EXPECT_EQ(r.message(), "crc_mismatch(header): boom");
  EXPECT_EQ(CkptResult{}.message(), "ok");
}

TEST_F(CheckpointTest, VersionsDoNotCrossRead) {
  // A version-1 header (the retired single-species format) under a valid
  // header CRC is refused by its version, by both readers.
  const auto p = random_particles(16, 16);
  ASSERT_TRUE(write_run_checkpoint(path_, p, {}, test_meta()));
  reseal_header(path_, [](RunCheckpointHeader& h) { h.version = 1; });
  ParticleSet dm, gas;
  RunCheckpointMeta got;
  EXPECT_EQ(read_run_checkpoint(path_, dm, gas, got).status,
            CkptStatus::kBadVersion);
  EXPECT_EQ(validate_run_checkpoint(path_).status, CkptStatus::kBadVersion);
}

}  // namespace
}  // namespace hacc::core

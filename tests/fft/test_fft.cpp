#include "fft/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>

#include "util/rng.hpp"

namespace hacc::fft {
namespace {

class Fft1D : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1D, ::testing::Values(2, 4, 8, 16, 64, 256, 1024),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST_P(Fft1D, RoundTripRecoversInput) {
  const int n = GetParam();
  util::CounterRng rng(3);
  std::vector<cplx> x(n), orig(n);
  for (int i = 0; i < n; ++i) x[i] = orig[i] = {rng.normal(2 * i), rng.normal(2 * i + 1)};
  fft_1d(x.data(), n, false);
  fft_1d(x.data(), n, true);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real() / n, orig[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag() / n, orig[i].imag(), 1e-9);
  }
}

TEST_P(Fft1D, DeltaTransformsToConstant) {
  const int n = GetParam();
  std::vector<cplx> x(n, 0.0);
  x[0] = 1.0;
  fft_1d(x.data(), n, false);
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), 1.0, 1e-10);
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-10);
  }
}

TEST_P(Fft1D, ParsevalHolds)
{
  const int n = GetParam();
  util::CounterRng rng(17);
  std::vector<cplx> x(n);
  double time_energy = 0.0;
  for (int i = 0; i < n; ++i) {
    x[i] = {rng.normal(2 * i), rng.normal(2 * i + 1)};
    time_energy += std::norm(x[i]);
  }
  fft_1d(x.data(), n, false);
  double freq_energy = 0.0;
  for (int k = 0; k < n; ++k) freq_energy += std::norm(x[k]);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-6 * std::max(1.0, time_energy));
}

TEST(Fft1DBasics, SingleModeLandsInCorrectBin) {
  constexpr int n = 32;
  constexpr int mode = 5;
  std::vector<cplx> x(n);
  for (int i = 0; i < n; ++i) {
    const double phase = 2.0 * M_PI * mode * i / n;
    x[i] = {std::cos(phase), std::sin(phase)};  // e^{+i 2π m i / n}
  }
  fft_1d(x.data(), n, false);
  for (int k = 0; k < n; ++k) {
    const double expected = (k == mode) ? n : 0.0;
    EXPECT_NEAR(x[k].real(), expected, 1e-9) << "bin " << k;
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-9) << "bin " << k;
  }
}

TEST(Fft1DBasics, Linearity) {
  constexpr int n = 64;
  util::CounterRng rng(5);
  std::vector<cplx> a(n), b(n), sum(n);
  for (int i = 0; i < n; ++i) {
    a[i] = {rng.normal(2 * i), 0.0};
    b[i] = {0.0, rng.normal(2 * i + 1)};
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  fft_1d(a.data(), n, false);
  fft_1d(b.data(), n, false);
  fft_1d(sum.data(), n, false);
  for (int k = 0; k < n; ++k) {
    const cplx expect = 2.0 * a[k] + 3.0 * b[k];
    EXPECT_NEAR(sum[k].real(), expect.real(), 1e-8);
    EXPECT_NEAR(sum[k].imag(), expect.imag(), 1e-8);
  }
}

TEST(Fft1DBasics, RealInputHasHermitianSpectrum) {
  constexpr int n = 128;
  util::CounterRng rng(11);
  std::vector<cplx> x(n);
  for (int i = 0; i < n; ++i) x[i] = {rng.normal(i), 0.0};
  fft_1d(x.data(), n, false);
  for (int k = 1; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), x[n - k].real(), 1e-8);
    EXPECT_NEAR(x[k].imag(), -x[n - k].imag(), 1e-8);
  }
}

TEST(Fft1DBasics, Long1024PointTransformMatchesDirectDft) {
  // Regression for the twiddle tables: the former running `w *= wlen`
  // product drifted by O(len * eps) on long stages; table entries are now
  // evaluated directly per index, so a 1024-point transform has to track a
  // direct O(n^2) DFT at near round-off tolerance.
  constexpr int n = 1024;
  util::CounterRng rng(29);
  std::vector<cplx> x(n);
  for (int i = 0; i < n; ++i) x[i] = {rng.normal(2 * i), rng.normal(2 * i + 1)};
  std::vector<cplx> fast = x;
  fft_1d(fast.data(), n, false);
  double max_mag = 0.0;
  for (const cplx& v : fast) max_mag = std::max(max_mag, std::abs(v));
  for (int k = 0; k < n; ++k) {
    cplx direct(0.0, 0.0);
    for (int j = 0; j < n; ++j) {
      // Reduce j*k mod n before forming the angle: huge arguments to
      // sin/cos would dominate the very error this test pins down.
      const double ang = -2.0 * M_PI * ((static_cast<long long>(j) * k) % n) / n;
      direct += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    ASSERT_NEAR(fast[k].real(), direct.real(), 1e-10 * max_mag) << "bin " << k;
    ASSERT_NEAR(fast[k].imag(), direct.imag(), 1e-10 * max_mag) << "bin " << k;
  }
}

TEST(Twiddles, TableForLargeSizeServesSmallerTransforms) {
  const Twiddles& big = twiddles_for(1024);
  constexpr int n = 256;
  util::CounterRng rng(41);
  std::vector<cplx> a(n), b;
  for (int i = 0; i < n; ++i) a[i] = {rng.normal(2 * i), rng.normal(2 * i + 1)};
  b = a;
  fft_1d(a.data(), n, false);            // cached table for exactly n
  fft_1d(b.data(), n, false, big);       // shared prefix of the 1024 table
  for (int i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(a[i].real(), b[i].real());
    ASSERT_DOUBLE_EQ(a[i].imag(), b[i].imag());
  }
}

TEST(IsPow2, Classification) {
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(1));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
}

class Fft3DTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, Fft3DTest, ::testing::Values(4, 8, 16, 32),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST_P(Fft3DTest, RoundTrip) {
  const int n = GetParam();
  util::ThreadPool pool(4);
  Fft3D fft(n, pool);
  util::CounterRng rng(23);
  std::vector<cplx> grid(fft.size()), orig;
  for (std::size_t i = 0; i < grid.size(); ++i) grid[i] = {rng.normal(i), 0.0};
  orig = grid;
  fft.forward(grid);
  fft.inverse(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_NEAR(grid[i].real(), orig[i].real(), 1e-8);
    ASSERT_NEAR(grid[i].imag(), orig[i].imag(), 1e-8);
  }
}

TEST_P(Fft3DTest, PlaneWaveLandsInSingleBin) {
  const int n = GetParam();
  util::ThreadPool pool(2);
  Fft3D fft(n, pool);
  const int kx = 1, ky = 2 % n, kz = 3 % n;
  std::vector<cplx> grid(fft.size());
  for (int ix = 0; ix < n; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      for (int iz = 0; iz < n; ++iz) {
        const double phase = 2.0 * M_PI * (kx * ix + ky * iy + kz * iz) / n;
        grid[(static_cast<std::size_t>(ix) * n + iy) * n + iz] = {std::cos(phase),
                                                                  std::sin(phase)};
      }
    }
  }
  fft.forward(grid);
  const std::size_t hot = (static_cast<std::size_t>(kx) * n + ky) * n + kz;
  const double total = static_cast<double>(fft.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double expect = (i == hot) ? total : 0.0;
    ASSERT_NEAR(grid[i].real(), expect, 1e-6 * total) << i;
    ASSERT_NEAR(grid[i].imag(), 0.0, 1e-6 * total) << i;
  }
}

TEST(Fft3DErrors, RejectsNonPow2) {
  util::ThreadPool pool(1);
  EXPECT_THROW(Fft3D(12, pool), std::invalid_argument);
}

TEST(Fft3DErrors, WrongSizesThrowAndWriteNothing) {
  util::ThreadPool pool(2);
  const Fft3D fft(8, pool);
  std::vector<cplx> grid(100, cplx(1.0, 2.0));
  const std::vector<cplx> grid0 = grid;
  EXPECT_THROW(fft.forward(grid), std::invalid_argument);
  EXPECT_THROW(fft.inverse(grid), std::invalid_argument);
  EXPECT_EQ(grid, grid0);

  std::vector<double> real(100, 3.0);
  const std::vector<double> real0 = real;
  std::vector<cplx> half(5, cplx(4.0, 5.0));
  const std::vector<cplx> half0 = half;
  EXPECT_THROW(fft.forward_r2c(real, half), std::invalid_argument);
  EXPECT_EQ(half, half0);

  std::vector<double> good_real(fft.size(), 6.0);
  const std::vector<double> good_real0 = good_real;
  std::vector<cplx> good_half(fft.half_size(), cplx(7.0, 8.0));
  const std::vector<cplx> good_half0 = good_half;
  EXPECT_THROW(fft.inverse_c2r(half, good_real), std::invalid_argument);
  EXPECT_THROW(fft.inverse_c2r(good_half, real), std::invalid_argument);
  std::vector<cplx> work(3, cplx(9.0, 9.0));
  const std::vector<cplx> work0 = work;
  EXPECT_THROW(fft.inverse_c2r(std::span<const cplx>(half), good_real, work),
               std::invalid_argument);
  EXPECT_THROW(fft.inverse_c2r(std::span<const cplx>(good_half), real, work),
               std::invalid_argument);
  const std::vector<double> k(8, 1.0), k_short(7, 1.0);
  const Derivative bad_axis{3, k}, bad_k{0, k_short};
  EXPECT_THROW(fft.inverse_c2r(std::span<const cplx>(good_half), good_real, work, &bad_axis),
               std::invalid_argument);
  EXPECT_THROW(fft.inverse_c2r(std::span<const cplx>(good_half), good_real, work, &bad_k),
               std::invalid_argument);
  EXPECT_EQ(real, real0);
  EXPECT_EQ(half, half0);
  EXPECT_EQ(good_real, good_real0);
  EXPECT_EQ(good_half, good_half0);
  EXPECT_EQ(work, work0);
}

TEST(Fft1DErrors, NonPowerOfTwoLengthsThrowAndWriteNothing) {
  std::vector<cplx> v(12, cplx(1.0, 0.0));
  const std::vector<cplx> v0 = v;
  const Twiddles& tw = twiddles_for(16);
  for (const int n : {12, 3, 1, 0, -4}) {
    EXPECT_THROW(fft_1d(v.data(), n, false, tw), std::invalid_argument) << n;
    EXPECT_THROW(fft_1d(v.data(), n, true), std::invalid_argument) << n;
  }
  EXPECT_EQ(v, v0);
}

class Fft3DR2C : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, Fft3DR2C, ::testing::Values(2, 4, 8, 16, 32),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST_P(Fft3DR2C, MatchesComplexForwardOnHalfSpectrum) {
  const int n = GetParam();
  util::ThreadPool pool(4);
  Fft3D fft(n, pool);
  util::CounterRng rng(37);
  std::vector<double> real(fft.size());
  std::vector<cplx> full(fft.size());
  for (std::size_t i = 0; i < real.size(); ++i) {
    real[i] = rng.normal(i);
    full[i] = {real[i], 0.0};
  }
  std::vector<cplx> half;
  fft.forward_r2c(real, half);
  ASSERT_EQ(half.size(), fft.half_size());
  fft.forward(full);
  double max_mag = 0.0;
  for (const cplx& v : full) max_mag = std::max(max_mag, std::abs(v));
  const int nh = fft.half_nz();
  for (int ix = 0; ix < n; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      for (int iz = 0; iz < nh; ++iz) {
        const cplx want = full[(static_cast<std::size_t>(ix) * n + iy) * n + iz];
        const cplx got = half[(static_cast<std::size_t>(ix) * n + iy) * nh + iz];
        ASSERT_NEAR(got.real(), want.real(), 1e-12 * max_mag)
            << ix << "," << iy << "," << iz;
        ASSERT_NEAR(got.imag(), want.imag(), 1e-12 * max_mag)
            << ix << "," << iy << "," << iz;
      }
    }
  }
}

TEST_P(Fft3DR2C, RoundTripRecoversRealField) {
  const int n = GetParam();
  util::ThreadPool pool(2);
  Fft3D fft(n, pool);
  util::CounterRng rng(43);
  std::vector<double> real(fft.size()), orig;
  for (std::size_t i = 0; i < real.size(); ++i) real[i] = rng.normal(i);
  orig = real;
  double max_mag = 0.0;
  for (double v : orig) max_mag = std::max(max_mag, std::abs(v));
  std::vector<cplx> half;
  fft.forward_r2c(real, half);
  fft.inverse_c2r(half, real);
  for (std::size_t i = 0; i < real.size(); ++i) {
    ASSERT_NEAR(real[i], orig[i], 1e-12 * max_mag) << i;
  }
}

TEST(Fft3DR2CBasics, PlaneWaveLandsInSingleHalfBin) {
  constexpr int n = 16;
  util::ThreadPool pool(2);
  Fft3D fft(n, pool);
  const int kx = 3, ky = 14, kz = 5;  // kz <= n/2 so the mode is in the half
  std::vector<double> real(fft.size());
  for (int ix = 0; ix < n; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      for (int iz = 0; iz < n; ++iz) {
        const double phase = 2.0 * M_PI * (kx * ix + ky * iy + kz * iz) / n;
        real[(static_cast<std::size_t>(ix) * n + iy) * n + iz] = std::cos(phase);
      }
    }
  }
  std::vector<cplx> half;
  fft.forward_r2c(real, half);
  const int nh = fft.half_nz();
  const double total = static_cast<double>(fft.size());
  // cos splits between (kx,ky,kz) and its Hermitian partner; only the former
  // lies in the stored half (its partner has iz = n - kz > n/2).
  const std::size_t hot = (static_cast<std::size_t>(kx) * n + ky) * nh + kz;
  for (std::size_t i = 0; i < half.size(); ++i) {
    const double expect = (i == hot) ? 0.5 * total : 0.0;
    ASSERT_NEAR(half[i].real(), expect, 1e-9 * total) << i;
    ASSERT_NEAR(half[i].imag(), 0.0, 1e-9 * total) << i;
  }
}

// The c2r of a read-only spectrum, with and without a Derivative, equals the
// in-place c2r of the spectrum multiplied out beforehand -- the
// PmSolver force path before the derivative moved into the c2r -- bit for
// bit, and leaves its input untouched.
TEST(Fft3DR2CBasics, DerivativeOnReadMatchesPremultipliedSpectrum) {
  const auto same_bits = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (const int n : {2, 8, 16}) {
    util::ThreadPool pool(3);
    const Fft3D fft(n, pool);
    util::CounterRng rng(61);
    std::vector<double> field(fft.size());
    for (std::size_t i = 0; i < field.size(); ++i) field[i] = rng.normal(i);
    std::vector<cplx> phi;
    fft.forward_r2c(field, phi);
    const std::vector<cplx> phi0 = phi;
    std::vector<double> k(n);
    for (int i = 0; i < n; ++i) k[i] = 0.25 * (i < n / 2 ? i : i - n);
    const int nh = fft.half_nz();

    std::vector<cplx> work;
    std::vector<double> got(fft.size()), want(fft.size());
    std::vector<cplx> scratch = phi;
    fft.inverse_c2r(scratch, want);
    fft.inverse_c2r(phi, got, work);
    EXPECT_TRUE(same_bits(got, want)) << "n=" << n;
    for (int axis = 0; axis < 3; ++axis) {
      for (int ix = 0; ix < n; ++ix) {
        for (int iy = 0; iy < n; ++iy) {
          for (int iz = 0; iz < nh; ++iz) {
            const std::size_t idx = (static_cast<std::size_t>(ix) * n + iy) * nh + iz;
            const int i = axis == 0 ? ix : axis == 1 ? iy : iz;
            scratch[idx] = 2 * i == n ? cplx(0.0) : cmul(cplx(0.0, -k[i]), phi[idx]);
          }
        }
      }
      fft.inverse_c2r(scratch, want);
      const Derivative d{axis, k};
      fft.inverse_c2r(phi, got, work, &d);
      EXPECT_TRUE(same_bits(got, want)) << "n=" << n << " axis=" << axis;
    }
    EXPECT_EQ(phi, phi0) << "n=" << n;
  }
}

TEST(Fft3DThreads, ResultIndependentOfThreadCount) {
  constexpr int n = 16;
  util::ThreadPool p1(1), p8(8);
  Fft3D f1(n, p1), f8(n, p8);
  util::CounterRng rng(31);
  std::vector<cplx> a(f1.size()), b;
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = {rng.normal(i), rng.uniform(i)};
  b = a;
  f1.forward(a);
  f8.forward(b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i].real(), b[i].real());
    ASSERT_DOUBLE_EQ(a[i].imag(), b[i].imag());
  }
}

TEST(Fft3DThreads, R2CPipelineBitIdenticalAcrossThreadCounts) {
  // The real-field path (Hermitian pack, untangle, half-spectrum layout)
  // partitions pencils over the pool with no shared accumulation, so an
  // 8-thread transform must reproduce the serial one bit for bit — both the
  // forward half spectrum and the c2r reconstruction.
  constexpr int n = 16;
  util::ThreadPool p1(1), p8(8);
  const Fft3D f1(n, p1), f8(n, p8);
  util::CounterRng rng(57);
  std::vector<double> field(f1.size());
  for (std::size_t i = 0; i < field.size(); ++i) field[i] = rng.normal(i);

  std::vector<cplx> half1, half8;
  f1.forward_r2c(field, half1);
  f8.forward_r2c(field, half8);
  ASSERT_EQ(half1.size(), half8.size());
  for (std::size_t i = 0; i < half1.size(); ++i) {
    ASSERT_EQ(half1[i].real(), half8[i].real()) << i;
    ASSERT_EQ(half1[i].imag(), half8[i].imag()) << i;
  }

  std::vector<double> back1(field.size()), back8(field.size());
  f1.inverse_c2r(half1, back1);
  f8.inverse_c2r(half8, back8);
  for (std::size_t i = 0; i < field.size(); ++i) {
    ASSERT_EQ(back1[i], back8[i]) << i;
    ASSERT_NEAR(back1[i], field[i], 1e-12 * std::abs(field[i]) + 1e-12) << i;
  }
}

TEST(Fft3DThreads, SharedTwiddleTableIsSafeUnderConcurrentTransforms) {
  // Eight pool threads hammer the same 1024-point twiddle table (read-only
  // after construction) with independent 1-D transforms; every result must
  // be bitwise equal to the same transform run serially.
  constexpr int n = 1024;
  const Twiddles& tw = twiddles_for(n);
  constexpr int kRuns = 32;
  std::vector<std::vector<cplx>> serial(kRuns), threaded(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    util::CounterRng rng(200 + r);
    serial[r].resize(n);
    for (int i = 0; i < n; ++i) {
      serial[r][i] = {rng.normal(i), rng.uniform(i)};
    }
    threaded[r] = serial[r];
    fft_1d(serial[r].data(), n, r % 2 == 1, tw);
  }
  util::ThreadPool pool(8);
  // shared: disjoint `threaded` entries per index; `tw` is read-only.
  pool.parallel_for(kRuns, [&](std::size_t r) {
    fft_1d(threaded[r].data(), n, r % 2 == 1, tw);
  });
  for (int r = 0; r < kRuns; ++r) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(serial[r][i].real(), threaded[r][i].real()) << r << ":" << i;
      ASSERT_EQ(serial[r][i].imag(), threaded[r][i].imag()) << r << ":" << i;
    }
  }
}

// --- Output-bits snapshot -------------------------------------------------
// FNV-1a hashes of every transform's output on seeded inputs, recorded
// before the butterfly's complex multiply was made branch-free: any change
// to the arithmetic of fft_1d, the Fft3D passes or the r2c/c2r untangle
// that moves a single output bit fails here.  Re-record (paste the measured
// rows printed on failure into fft_bits_snapshot.inc) only for a change
// that is meant to move transform outputs, and say so.

struct FftBitsRow {
  const char* transform;
  int n;
  std::uint64_t hash;
};

constexpr FftBitsRow kFftBits[] = {
#include "fft_bits_snapshot.inc"
};

// FNV-1a over the bit patterns of the doubles.
std::uint64_t fnv1a(std::span<const double> v) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double x : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t fnv1a(const std::vector<cplx>& v) {
  // std::complex<double> is layout-compatible with double[2].
  return fnv1a(std::span<const double>(reinterpret_cast<const double*>(v.data()),
                                       2 * v.size()));
}

std::vector<cplx> seeded_complex(std::size_t size, std::uint64_t seed) {
  util::CounterRng rng(seed);
  std::vector<cplx> v(size);
  for (std::size_t i = 0; i < size; ++i) v[i] = {rng.normal(2 * i), rng.normal(2 * i + 1)};
  return v;
}

// Measured rows in snapshot order: fft_1d forward/inverse for n = 2..1024,
// then Fft3D forward/inverse/forward_r2c/inverse_c2r for n = 4..64, then the
// same four for n = 2 (4 pencils: one partial z tile, n/2 = 1) and n = 128
// (PM's mesh; nh = 65 leaves a one-pencil tile on every x/y row).
std::vector<FftBitsRow> measure_fft_bits(util::ThreadPool& pool) {
  std::vector<FftBitsRow> rows;
  for (int n = 2; n <= 1024; n *= 2) {
    for (const bool inverse : {false, true}) {
      std::vector<cplx> x = seeded_complex(n, 100 + n + (inverse ? 1 : 0));
      fft_1d(x.data(), n, inverse);
      rows.push_back({inverse ? "fft_1d.inverse" : "fft_1d.forward", n, fnv1a(x)});
    }
  }
  for (const int n : {4, 8, 16, 32, 64, 2, 128}) {
    const Fft3D fft(n, pool);
    std::vector<cplx> grid = seeded_complex(fft.size(), 300 + n);
    fft.forward(grid);
    rows.push_back({"Fft3D.forward", n, fnv1a(grid)});
    grid = seeded_complex(fft.size(), 400 + n);
    fft.inverse(grid);
    rows.push_back({"Fft3D.inverse", n, fnv1a(grid)});

    util::CounterRng rng(500 + n);
    std::vector<double> real(fft.size());
    for (std::size_t i = 0; i < real.size(); ++i) real[i] = rng.normal(i);
    std::vector<cplx> half;
    fft.forward_r2c(real, half);
    rows.push_back({"Fft3D.forward_r2c", n, fnv1a(half)});
    fft.inverse_c2r(half, real);
    rows.push_back({"Fft3D.inverse_c2r", n, fnv1a(real)});
  }
  return rows;
}

class FftBitsSnapshot : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Threads, FftBitsSnapshot, ::testing::Values(1, 3, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST_P(FftBitsSnapshot, MatchesRecordedHashes) {
  util::ThreadPool pool(GetParam());
  const std::vector<FftBitsRow> got = measure_fft_bits(pool);
  std::ostringstream measured;
  for (const FftBitsRow& r : got) {
    measured << "{\"" << r.transform << "\", " << r.n << ", 0x" << std::hex << r.hash
             << std::dec << "ull},\n";
  }
  ASSERT_EQ(got.size(), std::size(kFftBits)) << "measured:\n" << measured.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::string(got[i].transform), kFftBits[i].transform) << i;
    EXPECT_EQ(got[i].n, kFftBits[i].n) << i;
    EXPECT_EQ(got[i].hash, kFftBits[i].hash)
        << got[i].transform << " n=" << got[i].n << "; measured:\n" << measured.str();
  }
}

}  // namespace
}  // namespace hacc::fft

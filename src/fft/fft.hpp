#pragma once

// In-house FFT substrate for the long-range Poisson solver.  HACC's
// long-range gravity uses a distributed-memory FFT; at our single-node
// scale a threaded 3-D transform over pencils exercises the same code path.
// Radix-2 iterative Cooley-Tukey; sizes must be powers of two.
//
// fft_1d is the 1-D transform and the reference: per-stage twiddle tables,
// each entry evaluated directly from its index (no running `w *= wlen`
// product, so no rounding drift on long transforms).
//
// Fft3D runs every pass of every axis through one pencil-tile kernel.  A
// tile is eight pencils held in split rows re[len][8] and im[len][8]; the
// gather writes element i to row rev(i), so the bit reversal is free, and
// each butterfly stage is a handful of two-lane SSE2 ops across the eight
// lanes.  The tile is bit-identical to fft_1d on each of its pencils: a
// lane sees fft_1d's IEEE operations on the same operands in the same
// order (v = (hr*wr - hi*wi, hr*wi + hi*wr), lo = u + v, hi = u - v), and
// the baseline x86-64 build has no FMA to contract them.  The transforms
// therefore never depend on the tile width or on the thread count.
//
// Real fields use the half-spectrum pair forward_r2c / inverse_c2r: two real
// pencil samples are packed per complex slot, transformed at half length and
// untangled via Hermitian symmetry (in split form, on the tile), halving
// both flops and memory traffic relative to a complex transform of the same
// real data.  A c2r can apply a spectral derivative as its first pass reads
// the spectrum (Derivative), so the Poisson solver needs no extra pass over
// the half spectrum per force component.

#include <complex>
#include <span>
#include <vector>

#include "util/thread_pool.hpp"

namespace hacc::fft {

using cplx = std::complex<double>;

// Complex product (ar*br - ai*bi, ar*bi + ai*br).  This is the formula of
// the compiler's inline fast path for std::complex multiplication, so the
// bits are the same; it drops the Annex G NaN check and the __muldc3 libcall
// fallback that path keeps, which otherwise sit inside every butterfly.
inline cplx cmul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

// True when n is a power of two and >= 2.
bool is_pow2(int n);

// Per-stage butterfly twiddle tables for transforms of size <= n: stage
// `len` holds w^k = exp(-/+ 2*pi*i*k/len) for k in [0, len/2), each computed
// directly from its index.  A table built for n serves every power-of-two
// size up to n.
class Twiddles {
 public:
  explicit Twiddles(int n);

  int n() const { return n_; }

  // Twiddles of the butterfly stage of width `len` (len/2 entries).
  const cplx* stage(int len, bool inverse) const {
    return (inverse ? inv_ : fwd_).data() + (len / 2 - 1);
  }

 private:
  int n_;
  std::vector<cplx> fwd_, inv_;  // stages concatenated; stage len at len/2 - 1
};

// Process-wide cache of twiddle tables keyed by size (thread-safe; entries
// live for the process lifetime).
const Twiddles& twiddles_for(int n);

// In-place 1-D transform of n contiguous values.  inverse=true applies the
// conjugate transform WITHOUT the 1/n normalization (the 3-D wrapper
// normalizes once).  The first overload pulls its table from the cache; hot
// loops should look the table up once and use the second.  Throws
// std::invalid_argument unless n is a power of two >= 2 that the table
// covers.
void fft_1d(cplx* data, int n, bool inverse);
void fft_1d(cplx* data, int n, bool inverse, const Twiddles& tw);

// A spectral derivative that Fft3D::inverse_c2r applies as it reads the
// half spectrum: mode phi(k) becomes cmul((0, -k[i_a]), phi(k)) = -i k_a
// phi(k), where i_a is the mode's index along `axis`, and 0 on the Nyquist
// plane i_a = n/2 of that axis, where -i k breaks Hermitian symmetry.
struct Derivative {
  int axis = 0;               // 0 = x, 1 = y, 2 = z
  std::span<const double> k;  // wavenumber per mesh index, n entries
};

// Threaded 3-D transform on an n^3 grid stored as idx = (ix*n + iy)*n + iz.
// Every transform throws std::invalid_argument, and writes nothing, when
// an array has the wrong size.
class Fft3D {
 public:
  explicit Fft3D(int n, util::ThreadPool& pool = util::ThreadPool::global());

  int n() const { return n_; }
  std::size_t size() const { return static_cast<std::size_t>(n_) * n_ * n_; }

  // Complex-to-complex transforms (the general-purpose path).
  void forward(std::vector<cplx>& grid) const;
  // Inverse including the 1/n^3 normalization, so inverse(forward(x)) == x.
  void inverse(std::vector<cplx>& grid) const;

  // --- Real-to-complex half-spectrum path ---------------------------------
  // A real field on the n^3 grid has a Hermitian spectrum; only the
  // iz in [0, n/2] half needs to be stored.  Layout:
  //   half[(ix*n + iy)*(n/2 + 1) + iz],  iz in [0, n/2].
  int half_nz() const { return n_ / 2 + 1; }
  std::size_t half_size() const {
    return static_cast<std::size_t>(n_) * n_ * half_nz();
  }

  // Unnormalized forward DFT of a real n^3 field into the half spectrum.
  // `real` must have size() elements; `half` is resized to half_size().
  void forward_r2c(std::span<const double> real, std::vector<cplx>& half) const;

  // Inverse of forward_r2c including the 1/n^3 normalization.  `half` is
  // used as scratch (destroyed); `real` must have size() elements.  The
  // input is assumed Hermitian (as produced by forward_r2c, optionally
  // multiplied by symmetry-preserving k-space factors).
  void inverse_c2r(std::vector<cplx>& half, std::span<double> real) const;

  // The same inverse of a spectrum it only reads, optionally of its
  // `derivative` (null for none): the first pass reads `half` and writes
  // `work` (resized to half_size()), the later passes run in `work`.  The
  // vector `half` views may itself be `work`: the transform then runs in
  // place, as the overload above does.
  void inverse_c2r(std::span<const cplx> half, std::span<double> real,
                   std::vector<cplx>& work, const Derivative* derivative = nullptr) const;

 private:
  // One axis (2 = z, 1 = y, 0 = x) of a 3-D complex transform over an
  // n x n x nz array, in eight-pencil tiles: reads src, writes dst (which
  // may be src), scales the result by `scale` unless it is 1, and applies
  // `derivative` (x only) as it reads.
  void complex_pass(const cplx* src, cplx* dst, int nz, int axis, bool inverse,
                    double scale = 1.0, const Derivative* derivative = nullptr) const;

  int n_;
  util::ThreadPool* pool_;
  const Twiddles* tw_;              // size n (serves n and n/2)
  std::vector<int> rev_, rev_half_;  // bit reversal of n and of n/2 indices
  // The r2c untangle's cmul((0, -1), u_k) and the c2r retangle's
  // cmul((0, 1), conj(u_k)), u_k = exp(-2*pi*i*k/n), k in [0, n/2).
  std::vector<cplx> untangle_, retangle_;
};

}  // namespace hacc::fft

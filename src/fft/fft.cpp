#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/trace.hpp"

namespace hacc::fft {

namespace {

// Two doubles in one SSE2 register (a GCC/Clang vector extension).  Every
// operator is one correctly rounded addpd/subpd/mulpd, so each lane computes
// exactly what the scalar double operation computes.
using V2 = double __attribute__((vector_size(16)));

// Unaligned loads and stores of the transformed arrays.
V2 load(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

V2 splat(double x) { return V2{x, x}; }

constexpr int kLanes = 8;          // pencils per tile
constexpr int kVecs = kLanes / 2;  // V2 registers per tile row

// A tile: kLanes pencils in split rows.  Row i is re[i*kVecs + q] and
// im[i*kVecs + q], q < kVecs, the lanes 2q and 2q + 1 in each V2.
struct Rows {
  V2* re;
  V2* im;
  V2* re_row(int i) const { return re + static_cast<std::size_t>(i) * kVecs; }
  V2* im_row(int i) const { return im + static_cast<std::size_t>(i) * kVecs; }
};

// Where the pencils of one pass live in an array of doubles: the pencil
// (outer, inner) starts at outer * outer_stride + inner * lane_stride, and
// its complex elements are (re, im) pairs `step` doubles apart.
struct Layout {
  std::size_t outer_stride;
  std::size_t lane_stride;
  std::size_t step;
};

// The pencils of one tile: a row of the outer index and kLanes consecutive
// inner indices.  Lanes past the end of a partial tile repeat its last
// pencil, so every lane transforms a real pencil and writes back the same
// bits as the lane it repeats: a partial tile needs no separate path.
struct TileIndex {
  std::int64_t outer;
  std::int64_t inner[kLanes];

  template <typename T>
  void lanes(T* base, const Layout& l, T* out[kLanes]) const {
    for (int t = 0; t < kLanes; ++t) {
      out[t] = base + static_cast<std::size_t>(outer) * l.outer_stride +
               static_cast<std::size_t>(inner[t]) * l.lane_stride;
    }
  }
};

// Runs body(tile, a, b) over every tile of outer_count x inner_count
// pencils; each chunk of tiles owns scratch tiles a and b of rows_a and
// rows_b rows.  Tiles cover disjoint pencils, so a body that writes only
// its own pencils is race-free, and the bits never depend on the thread
// count.
template <typename Body>
void for_each_tile(util::ThreadPool& pool, std::int64_t outer_count,
                   std::int64_t inner_count, int rows_a, int rows_b, const Body& body) {
  const std::int64_t n_tiles = (inner_count + kLanes - 1) / kLanes;
  const std::int64_t items = outer_count * n_tiles;
  const std::int64_t chunk =
      std::max<std::int64_t>(1, items / (static_cast<std::int64_t>(pool.size()) * 8));
  const std::size_t plane_a = static_cast<std::size_t>(rows_a) * kVecs;
  const std::size_t plane_b = static_cast<std::size_t>(rows_b) * kVecs;
  // shared: the arrays the body writes (disjoint pencils per tile; the
  // scratch tiles are per chunk).
  pool.parallel_for_chunks(items, chunk, [&](std::int64_t b, std::int64_t e) {
    std::vector<V2> scratch(2 * (plane_a + plane_b));
    const Rows a{scratch.data(), scratch.data() + plane_a};
    const Rows c{scratch.data() + 2 * plane_a, scratch.data() + 2 * plane_a + plane_b};
    for (std::int64_t it = b; it < e; ++it) {
      TileIndex tile{it / n_tiles, {}};
      const std::int64_t c0 = (it % n_tiles) * kLanes;
      for (int t = 0; t < kLanes; ++t) tile.inner[t] = std::min(c0 + t, inner_count - 1);
      body(tile, a, c);
    }
  });
}

// Loads `len` complex elements of each lane into the tile, element i into
// row map[i] (row i when map is null).  Each pair of lanes is one 2x2
// shuffle: (re, im) of lane 2q and of lane 2q + 1 become (re, re) and
// (im, im).
void gather(const double* const lane[kLanes], std::size_t step, int len, const int* map,
            Rows out) {
  for (int i = 0; i < len; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * step;
    const int row = map != nullptr ? map[i] : i;
    V2* re = out.re_row(row);
    V2* im = out.im_row(row);
    for (int q = 0; q < kVecs; ++q) {
      const V2 a = load(lane[2 * q] + off);
      const V2 b = load(lane[2 * q + 1] + off);
      re[q] = V2{a[0], b[0]};
      im[q] = V2{a[1], b[1]};
    }
  }
}

// The inverse shuffle of gather: rows [0, len) back to the lanes' elements.
void scatter(Rows in, int len, double* const lane[kLanes], std::size_t step) {
  for (int i = 0; i < len; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * step;
    const V2* re = in.re_row(i);
    const V2* im = in.im_row(i);
    for (int q = 0; q < kVecs; ++q) {
      store(lane[2 * q] + off, V2{re[q][0], im[q][0]});
      store(lane[2 * q + 1] + off, V2{re[q][1], im[q][1]});
    }
  }
}

void scale_rows(Rows t, int len, double s) {
  const V2 sv = splat(s);
  for (std::size_t i = 0; i < static_cast<std::size_t>(len) * kVecs; ++i) {
    t.re[i] *= sv;
    t.im[i] *= sv;
  }
}

// The radix-2 stages of fft_1d on all lanes of a bit-reversed tile.  Per
// lane these are fft_1d's operations in fft_1d's order: v = cmul(hi, w)
// = (hr*wr - hi*wi, hr*wi + hi*wr), then lo = u + v and hi = u - v.
void butterflies(Rows t, int len, const Twiddles& tw, bool inverse) {
  for (int span = 2; span <= len; span <<= 1) {
    const cplx* w = tw.stage(span, inverse);
    const int half = span / 2;
    for (int i = 0; i < len; i += span) {
      for (int k = 0; k < half; ++k) {
        const V2 wr = splat(w[k].real());
        const V2 wi = splat(w[k].imag());
        V2* lr = t.re_row(i + k);
        V2* li = t.im_row(i + k);
        V2* hr = t.re_row(i + k + half);
        V2* hi = t.im_row(i + k + half);
        for (int q = 0; q < kVecs; ++q) {
          const V2 vr = hr[q] * wr - hi[q] * wi;
          const V2 vi = hr[q] * wi + hi[q] * wr;
          const V2 ur = lr[q];
          const V2 ui = li[q];
          lr[q] = ur + vr;
          li[q] = ui + vi;
          hr[q] = ur - vr;
          hi[q] = ui - vi;
        }
      }
    }
  }
}

// The Hermitian (un)tangle of rows k and n2 - k, k in [1, n2/2], in split
// form: with z = row k and zc = conj(row n2 - k),
//   e = 0.5 * (z + zc), o = 0.5 * (z - zc), t = cmul(c[k], o),
//   row k <- e + t, row n2 - k <- conj(e - t),
// written to rows map[k] and map[n2 - k] of `out` (identity when map is
// null).  When k == n2 - k the second write wins, as in place.
void tangle(Rows in, int n2, const cplx* c, const int* map, Rows out) {
  const V2 half = splat(0.5);
  for (int k = 1; 2 * k <= n2; ++k) {
    const V2 cr = splat(c[k].real());
    const V2 ci = splat(c[k].imag());
    const V2* zr = in.re_row(k);
    const V2* zi = in.im_row(k);
    const V2* zcr = in.re_row(n2 - k);
    const V2* zcim = in.im_row(n2 - k);
    V2* lr = out.re_row(map != nullptr ? map[k] : k);
    V2* li = out.im_row(map != nullptr ? map[k] : k);
    V2* hr = out.re_row(map != nullptr ? map[n2 - k] : n2 - k);
    V2* hi = out.im_row(map != nullptr ? map[n2 - k] : n2 - k);
    for (int q = 0; q < kVecs; ++q) {
      const V2 zci = -zcim[q];
      const V2 er = half * (zr[q] + zcr[q]);
      const V2 ei = half * (zi[q] + zci);
      const V2 odr = half * (zr[q] - zcr[q]);
      const V2 odi = half * (zi[q] - zci);
      const V2 tr = cr * odr - ci * odi;
      const V2 ti = cr * odi + ci * odr;
      lr[q] = er + tr;
      li[q] = ei + ti;
      hr[q] = er - tr;
      hi[q] = -(ei - ti);
    }
  }
}

// Applies a Derivative to an x-pass tile: row r holds element ix = rev[r],
// lane q the pencil inner = iy*nz + iz.  Each value v becomes
// cmul((0, -k[i_a]), v) = (0*vr - k*vi, 0*vi + k*vr) with k = -k[i_a] -- the
// operations of the cmul, so the bits are the cmul's -- or 0 on the Nyquist
// plane 2*i_a == n.
void apply_derivative(const Derivative& d, const TileIndex& tile, int n, int nz,
                      const int* rev, Rows t) {
  V2 kneg[kVecs] = {};
  bool nyquist[kLanes] = {};
  bool any_nyquist = false;
  if (d.axis != 0) {
    for (int q = 0; q < kLanes; ++q) {
      const auto i = static_cast<int>(d.axis == 1 ? tile.inner[q] / nz : tile.inner[q] % nz);
      kneg[q / 2][q % 2] = -d.k[i];
      nyquist[q] = 2 * i == n;
      any_nyquist = any_nyquist || nyquist[q];
    }
  }
  const V2 zero = splat(0.0);
  for (int r = 0; r < n; ++r) {
    V2* re = t.re_row(r);
    V2* im = t.im_row(r);
    const int ix = rev[r];
    if (d.axis == 0 && 2 * ix == n) {
      std::fill(re, re + kVecs, zero);
      std::fill(im, im + kVecs, zero);
      continue;
    }
    const V2 kx = splat(d.axis == 0 ? -d.k[ix] : 0.0);
    for (int q = 0; q < kVecs; ++q) {
      const V2 k = d.axis == 0 ? kx : kneg[q];
      const V2 vr = re[q];
      const V2 vi = im[q];
      re[q] = zero * vr - k * vi;
      im[q] = zero * vi + k * vr;
    }
    if (any_nyquist) {
      for (int q = 0; q < kLanes; ++q) {
        if (nyquist[q]) re[q / 2][q % 2] = im[q / 2][q % 2] = 0.0;
      }
    }
  }
}

std::vector<int> bit_reversal(int len) {
  std::vector<int> rev(static_cast<std::size_t>(len), 0);
  for (int i = 1, j = 0; i < len; ++i) {
    int bit = len >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev[i] = j;
  }
  return rev;
}

double* as_doubles(cplx* p) { return reinterpret_cast<double*>(p); }
const double* as_doubles(const cplx* p) { return reinterpret_cast<const double*>(p); }

}  // namespace

bool is_pow2(int n) { return n >= 2 && (n & (n - 1)) == 0; }

Twiddles::Twiddles(int n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("Twiddles: size must be a power of two");
  fwd_.resize(static_cast<std::size_t>(n) - 1);
  inv_.resize(static_cast<std::size_t>(n) - 1);
  for (int len = 2; len <= n; len <<= 1) {
    const std::size_t off = static_cast<std::size_t>(len / 2) - 1;
    for (int k = 0; k < len / 2; ++k) {
      // Evaluated directly per index: a running product w *= wlen accumulates
      // O(len * eps) phase error on long stages; this stays at O(eps).
      const double ang = -2.0 * M_PI * k / len;
      fwd_[off + k] = cplx(std::cos(ang), std::sin(ang));
      inv_[off + k] = cplx(std::cos(ang), -std::sin(ang));
    }
  }
}

const Twiddles& twiddles_for(int n) {
  static std::mutex mu;
  static std::map<int, std::unique_ptr<Twiddles>> cache;
  std::lock_guard lock(mu);
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<Twiddles>(n);
  return *slot;
}

void fft_1d(cplx* data, int n, bool inverse, const Twiddles& tw) {
  if (!is_pow2(n)) throw std::invalid_argument("fft_1d: size must be a power of two >= 2");
  if (tw.n() < n) {
    // A too-small table would index past the stage arrays.
    throw std::invalid_argument("fft_1d: twiddle table smaller than transform");
  }
  // Bit-reversal permutation.
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  // Iterative butterflies on tabulated twiddles.
  for (int len = 2; len <= n; len <<= 1) {
    const cplx* w = tw.stage(len, inverse);
    const int half = len / 2;
    for (int i = 0; i < n; i += len) {
      cplx* lo = data + i;
      cplx* hi = lo + half;
      for (int k = 0; k < half; ++k) {
        const cplx u = lo[k];
        const cplx v = cmul(hi[k], w[k]);
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
}

void fft_1d(cplx* data, int n, bool inverse) {
  if (!is_pow2(n)) throw std::invalid_argument("fft_1d: size must be a power of two >= 2");
  fft_1d(data, n, inverse, twiddles_for(n));
}

Fft3D::Fft3D(int n, util::ThreadPool& pool)
    : n_(n), pool_(&pool), tw_(&twiddles_for(n)) {
  if (!is_pow2(n)) throw std::invalid_argument("Fft3D: grid size must be a power of two");
  rev_ = bit_reversal(n);
  rev_half_ = bit_reversal(n / 2);
  untangle_.resize(static_cast<std::size_t>(n) / 2);
  retangle_.resize(static_cast<std::size_t>(n) / 2);
  for (int k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * M_PI * k / n;
    const cplx unpack(std::cos(ang), std::sin(ang));
    untangle_[k] = cmul(cplx(0.0, -1.0), unpack);
    retangle_[k] = cmul(cplx(0.0, 1.0), std::conj(unpack));
  }
}

void Fft3D::complex_pass(const cplx* src, cplx* dst, int nz, int axis, bool inverse,
                         double scale, const Derivative* derivative) const {
  const int n = n_;
  const std::size_t zrow = 2 * static_cast<std::size_t>(nz);  // doubles per z row
  const std::size_t plane = zrow * n;
  // z: pencil p at p*zrow, unit step (nz == n).  y: pencil (ix, iz) at
  // ix*plane + 2*iz, step zrow.  x: the (iy, iz) pencils are consecutive at
  // 2*(iy*nz + iz), so one run of n*nz lanes covers the plane.
  const std::int64_t outer_count = axis == 1 ? n : 1;
  const std::int64_t inner_count =
      axis == 1 ? nz : static_cast<std::int64_t>(n) * (axis == 0 ? nz : n);
  const Layout l = axis == 2   ? Layout{0, zrow, 2}
                   : axis == 1 ? Layout{plane, 2, zrow}
                               : Layout{0, 2, plane};
  const Twiddles& tw = *tw_;
  const int* rev = rev_.data();
  for_each_tile(*pool_, outer_count, inner_count, n, 0,
                [&](const TileIndex& tile, const Rows& t, const Rows&) {
                  const double* in[kLanes];
                  double* out[kLanes];
                  tile.lanes(as_doubles(src), l, in);
                  tile.lanes(as_doubles(dst), l, out);
                  gather(in, l.step, n, rev, t);
                  if (derivative != nullptr) apply_derivative(*derivative, tile, n, nz, rev, t);
                  butterflies(t, n, tw, inverse);
                  if (scale != 1.0) scale_rows(t, n, scale);
                  scatter(t, n, out, l.step);
                });
}

void Fft3D::forward(std::vector<cplx>& grid) const {
  if (grid.size() != size()) {
    throw std::invalid_argument("Fft3D::forward: grid must hold n^3 values");
  }
  const obs::TraceSpan span("fft.forward");
  for (const int axis : {2, 1, 0}) complex_pass(grid.data(), grid.data(), n_, axis, false);
}

void Fft3D::inverse(std::vector<cplx>& grid) const {
  if (grid.size() != size()) {
    throw std::invalid_argument("Fft3D::inverse: grid must hold n^3 values");
  }
  const obs::TraceSpan span("fft.inverse");
  complex_pass(grid.data(), grid.data(), n_, 2, true);
  complex_pass(grid.data(), grid.data(), n_, 1, true);
  // The 1/n^3 normalization is applied as the last pass writes back.
  complex_pass(grid.data(), grid.data(), n_, 0, true, 1.0 / static_cast<double>(size()));
}

void Fft3D::forward_r2c(std::span<const double> real, std::vector<cplx>& half) const {
  if (real.size() != size()) {
    throw std::invalid_argument("Fft3D::forward_r2c: real field must hold n^3 values");
  }
  const int n = n_;
  const int n2 = n / 2;
  const int nh = half_nz();
  half.resize(half_size());
  // z: real pencils packed two samples per complex slot, transformed at half
  // length, untangled through Hermitian symmetry into nh = n/2 + 1 modes.
  {
    const obs::TraceSpan pass("fft.r2c_z");
    const Layout in{0, static_cast<std::size_t>(n), 2};
    const Layout out{0, 2 * static_cast<std::size_t>(nh), 2};
    const Twiddles& tw = *tw_;
    double* dst = as_doubles(half.data());
    for_each_tile(*pool_, 1, static_cast<std::int64_t>(n) * n, n2, nh,
                  [&](const TileIndex& tile, const Rows& a, const Rows& b) {
                    const double* x[kLanes];
                    double* row[kLanes];
                    tile.lanes(real.data(), in, x);
                    tile.lanes(dst, out, row);
                    gather(x, in.step, n2, rev_half_.data(), a);
                    butterflies(a, n2, tw, false);
                    // z0 -> (z0r + z0i, 0) at k = 0 and (z0r - z0i, 0) at n/2.
                    for (int q = 0; q < kVecs; ++q) {
                      const V2 zr = a.re_row(0)[q];
                      const V2 zi = a.im_row(0)[q];
                      b.re_row(0)[q] = zr + zi;
                      b.im_row(0)[q] = splat(0.0);
                      b.re_row(n2)[q] = zr - zi;
                      b.im_row(n2)[q] = splat(0.0);
                    }
                    tangle(a, n2, untangle_.data(), nullptr, b);
                    scatter(b, nh, row, out.step);
                  });
  }
  {
    const obs::TraceSpan pass("fft.r2c_y");
    complex_pass(half.data(), half.data(), nh, 1, false);
  }
  {
    const obs::TraceSpan pass("fft.r2c_x");
    complex_pass(half.data(), half.data(), nh, 0, false);
  }
}

void Fft3D::inverse_c2r(std::vector<cplx>& half, std::span<double> real) const {
  // In place: the first pass reads `half` and writes it back.
  inverse_c2r(std::span<const cplx>(half), real, half);
}

void Fft3D::inverse_c2r(std::span<const cplx> half, std::span<double> real,
                        std::vector<cplx>& work, const Derivative* derivative) const {
  if (half.size() != half_size() || real.size() != size()) {
    throw std::invalid_argument(
        "Fft3D::inverse_c2r: half must hold half_size() and real n^3 values");
  }
  if (derivative != nullptr &&
      (derivative->axis < 0 || derivative->axis > 2 ||
       derivative->k.size() != static_cast<std::size_t>(n_))) {
    throw std::invalid_argument(
        "Fft3D::inverse_c2r: derivative needs an axis in [0, 2] and n wavenumbers");
  }
  work.resize(half_size());
  const int n = n_;
  const int n2 = n / 2;
  const int nh = half_nz();
  {
    const obs::TraceSpan pass("fft.c2r_x");
    complex_pass(half.data(), work.data(), nh, 0, true, 1.0, derivative);
  }
  {
    const obs::TraceSpan pass("fft.c2r_y");
    complex_pass(work.data(), work.data(), nh, 1, true);
  }
  // z: retangle the half spectrum into the packed half-length spectrum,
  // inverse-transform, and unpack the interleaved real samples.  The single
  // 1/n^3 normalization of the whole inverse is folded into `scale` (the two
  // strided passes above are unnormalized, contributing n^2; the half-length
  // inverse contributes n/2).
  const double scale = 2.0 / (static_cast<double>(n) * n * n);
  const obs::TraceSpan pass("fft.c2r_z");
  const Layout in{0, 2 * static_cast<std::size_t>(nh), 2};
  const Layout out{0, static_cast<std::size_t>(n), 2};
  const Twiddles& tw = *tw_;
  const double* spectrum = as_doubles(work.data());
  for_each_tile(*pool_, 1, static_cast<std::int64_t>(n) * n, nh, n2,
                [&](const TileIndex& tile, const Rows& a, const Rows& b) {
                  const double* row[kLanes];
                  double* x[kLanes];
                  tile.lanes(spectrum, in, row);
                  tile.lanes(real.data(), out, x);
                  gather(row, in.step, nh, nullptr, a);
                  // (x0, xn) -> 0.5 * (x0r + xnr, x0r - xnr) at k = 0.
                  const V2 half = splat(0.5);
                  for (int q = 0; q < kVecs; ++q) {
                    const V2 x0 = a.re_row(0)[q];
                    const V2 xn = a.re_row(n2)[q];
                    b.re_row(0)[q] = half * (x0 + xn);
                    b.im_row(0)[q] = half * (x0 - xn);
                  }
                  tangle(a, n2, retangle_.data(), rev_half_.data(), b);
                  butterflies(b, n2, tw, true);
                  scale_rows(b, n2, scale);
                  scatter(b, n2, x, out.step);
                });
}

}  // namespace hacc::fft

#include "mesh/cic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/trace.hpp"

namespace hacc::mesh {

CicStencil cic_stencil(const util::Vec3d& pos, int n, double box) {
  CicStencil s;
  const double cell = box / n;
  for (int a = 0; a < 3; ++a) {
    // Particle position in cell units, relative to cell centers.
    const double u = pos[a] / cell - 0.5;
    s.i0[a] = cic_axis_i0(pos[a], cell);
    s.w0[a] = 1.0 - (u - s.i0[a]);
  }
  return s;
}

namespace {

inline void deposit_one(GridD& grid, const CicStencil& s, double m) {
  for (int dx = 0; dx < 2; ++dx) {
    const double wx = dx == 0 ? s.w0[0] : 1.0 - s.w0[0];
    for (int dy = 0; dy < 2; ++dy) {
      const double wy = dy == 0 ? s.w0[1] : 1.0 - s.w0[1];
      for (int dz = 0; dz < 2; ++dz) {
        const double wz = dz == 0 ? s.w0[2] : 1.0 - s.w0[2];
        grid.at_wrapped(s.i0[0] + dx, s.i0[1] + dy, s.i0[2] + dz) += m * wx * wy * wz;
      }
    }
  }
}

}  // namespace

void cic_deposit(GridD& grid, std::span<const util::Vec3d> pos,
                 std::span<const double> mass, double box) {
  const int n = grid.n();
  for (std::size_t p = 0; p < pos.size(); ++p) {
    deposit_one(grid, cic_stencil(pos[p], n, box), mass[p]);
  }
}

CicDepositor::CicDepositor(util::ThreadPool& pool) : pool_(&pool) {}

void CicDepositor::deposit(GridD& grid, std::span<const util::Vec3d> pos,
                           std::span<const double> mass, double box) {
  const int n = grid.n();
  const std::size_t np = pos.size();
  // The slab machinery only pays off with enough work per call.
  if (n < 4 || np < 2048) {
    cic_deposit(grid, pos, mass, box);
    return;
  }
  const obs::TraceSpan deposit_span("mesh.cic_deposit");

  // Even number of single-row x-slabs (an odd grid folds its last row into
  // the preceding slab).  A particle bucketed in slab s touches rows s and
  // s+1 only (its stencil spans two adjacent rows), so slabs two apart never
  // share rows and each parity phase scatters race-free.  The last slab's
  // upper row wraps to row 0, owned by slab 0 — a different parity because
  // the slab count is even.  The layout depends only on the grid, never on
  // the pool, so the summation order — and the result, bit for bit — is
  // independent of the thread count.
  const int n_slabs = n - (n & 1);

  slab_of_.resize(np);
  order_.resize(np);
  const double cell = box / n;
  // shared: slab_of_ (one element per particle index).
  pool_->parallel_for_chunks(
      static_cast<std::int64_t>(np), 4096, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t p = b; p < e; ++p) {
          // Only the x-axis cell index decides the slab; the full stencil is
          // computed once, in the scatter phase.
          const int i0 = cic_axis_i0(pos[p].x, cell);
          slab_of_[p] = static_cast<std::uint32_t>(std::min(grid.wrap(i0), n_slabs - 1));
        }
      });

  // Stable counting sort of particle indices by slab.
  offsets_.assign(static_cast<std::size_t>(n_slabs) + 1, 0);
  for (std::size_t p = 0; p < np; ++p) ++offsets_[slab_of_[p] + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t p = 0; p < np; ++p) {
    order_[cursor[slab_of_[p]]++] = static_cast<std::uint32_t>(p);
  }

  const auto scatter_phase = [&](int parity) {
    const std::int64_t count = (n_slabs - parity + 1) / 2;
    // shared: grid (same-parity slabs touch disjoint stencil rows).
    pool_->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
      // Per-chunk span: the scatter shows up on every worker lane it ran on.
      const obs::TraceSpan chunk_span("mesh.cic_scatter");
      for (std::int64_t si = b; si < e; ++si) {
        const int s = static_cast<int>(2 * si) + parity;
        for (std::uint32_t u = offsets_[s]; u < offsets_[s + 1]; ++u) {
          const std::uint32_t p = order_[u];
          deposit_one(grid, cic_stencil(pos[p], n, box), mass[p]);
        }
      }
    });
  };
  scatter_phase(0);
  scatter_phase(1);
}

double cic_interpolate(const GridD& grid, const util::Vec3d& pos, double box) {
  const int n = grid.n();
  const CicStencil s = cic_stencil(pos, n, box);
  double value = 0.0;
  for (int dx = 0; dx < 2; ++dx) {
    const double wx = dx == 0 ? s.w0[0] : 1.0 - s.w0[0];
    for (int dy = 0; dy < 2; ++dy) {
      const double wy = dy == 0 ? s.w0[1] : 1.0 - s.w0[1];
      for (int dz = 0; dz < 2; ++dz) {
        const double wz = dz == 0 ? s.w0[2] : 1.0 - s.w0[2];
        value += grid.at_wrapped(s.i0[0] + dx, s.i0[1] + dy, s.i0[2] + dz) * wx * wy * wz;
      }
    }
  }
  return value;
}

util::Vec3d cic_interpolate3(const GridD& gx, const GridD& gy, const GridD& gz,
                             const util::Vec3d& pos, double box) {
  return {cic_interpolate(gx, pos, box), cic_interpolate(gy, pos, box),
          cic_interpolate(gz, pos, box)};
}

}  // namespace hacc::mesh

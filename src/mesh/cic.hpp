#pragma once

// Cloud-In-Cell deposit and interpolation on a periodic grid — the mass
// assignment scheme of HACC's particle-mesh long-range solver.

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "mesh/grid.hpp"
#include "util/thread_pool.hpp"
#include "util/vec3.hpp"

namespace hacc::mesh {

// The 2x2x2 CIC cloud of a particle: lower cell index per axis (may be
// negative or >= n; wrap before use) and the weight of the lower cell.
struct CicStencil {
  int i0[3];     // lower cell index (wrapped later)
  double w0[3];  // weight of the lower cell per axis
};

// Lower cell index of the CIC cloud along one axis (unwrapped).  The slab
// bucketing of CicDepositor and cic_stencil must agree bit for bit on this
// rounding — both go through here.
inline int cic_axis_i0(double coord, double cell) {
  return static_cast<int>(std::floor(coord / cell - 0.5));
}

// Stencil of a particle at `pos` (box units [0, box)) on an n-cell grid.
CicStencil cic_stencil(const util::Vec3d& pos, int n, double box);

// Deposits `mass[i]` at comoving position pos[i] (box units [0, box)) onto
// the n^3 grid; the grid accumulates mass (not density).
void cic_deposit(GridD& grid, std::span<const util::Vec3d> pos,
                 std::span<const double> mass, double box);

// Threaded deposit through a slab-partitioned scatter.  Particles are
// bucketed by the x-slab owning their stencil, then slabs are processed in
// two phases (even slabs, then odd slabs): a slab's stencil rows never
// overlap those of the next-but-one slab, so every phase writes disjoint
// grid rows with no atomics.  The result is deterministic for a fixed
// particle order regardless of thread count, and differs from the serial
// deposit only by floating-point summation order.
//
// Thread-compatible, not thread-safe: deposit() parallelizes internally over
// the pool but mutates the persistent bucketing scratch, so concurrent
// deposit() calls on one CicDepositor are a race — give each driver thread
// its own instance (docs/CONCURRENCY.md).
class CicDepositor {
 public:
  explicit CicDepositor(util::ThreadPool& pool = util::ThreadPool::global());

  // Accumulates into `grid` exactly like the serial cic_deposit.
  void deposit(GridD& grid, std::span<const util::Vec3d> pos,
               std::span<const double> mass, double box);

 private:
  util::ThreadPool* pool_;
  // Persistent bucketing scratch (hoisted out of the per-call hot path).
  std::vector<std::uint32_t> slab_of_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> offsets_;
};

// Trilinear (CIC) interpolation of a grid field at one position.
double cic_interpolate(const GridD& grid, const util::Vec3d& pos, double box);

// Vector-field interpolation convenience: three grids -> Vec3 per particle.
util::Vec3d cic_interpolate3(const GridD& gx, const GridD& gy, const GridD& gz,
                             const util::Vec3d& pos, double box);

}  // namespace hacc::mesh

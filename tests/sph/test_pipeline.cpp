// Physics invariants of the full xsycl kernel chain.

#include <gtest/gtest.h>

#include <cmath>

#include "gas_fixture.hpp"
#include "sph/pipeline.hpp"

namespace hacc::sph {
namespace {

using testing::GasOptions;
using testing::make_gas;

PipelineOptions default_pipeline() {
  PipelineOptions opt;
  opt.hydro.box = 1.0f;
  return opt;
}

TEST(HydroPipeline, VolumesPositiveAndSumNearBoxVolume) {
  GasOptions g;
  g.n_side = 8;
  g.jitter = 0.2;
  auto p = make_gas(g);
  util::ThreadPool pool(4);
  xsycl::Queue q(pool);
  run_hydro_pipeline(q, p, default_pipeline());
  double vol = 0.0;
  for (const float v : p.V) {
    ASSERT_GT(v, 0.f);
    vol += v;
  }
  // Particle volumes tile the box approximately.
  EXPECT_NEAR(vol, g.box * g.box * g.box, 0.05 * g.box * g.box * g.box);
}

TEST(HydroPipeline, DensityNearTargetOnJitteredLattice) {
  GasOptions g;
  g.n_side = 8;
  g.jitter = 0.15;
  g.rho0 = 2.5;
  auto p = make_gas(g);
  util::ThreadPool pool(4);
  xsycl::Queue q(pool);
  run_hydro_pipeline(q, p, default_pipeline());
  for (const float r : p.rho) ASSERT_NEAR(r, g.rho0, 0.05 * g.rho0);
}

TEST(HydroPipeline, UniformLatticeIsInEquilibrium) {
  // Constant pressure, perfect symmetry: accelerations vanish.
  GasOptions g;
  g.n_side = 8;
  g.jitter = 0.0;
  auto p = make_gas(g);
  util::ThreadPool pool(4);
  xsycl::Queue q(pool);
  run_hydro_pipeline(q, p, default_pipeline());
  // Scale: pressure-gradient acceleration over one spacing would be
  // P/(rho*dx) ~ 0.67/(1*0.125) ~ 5; equilibrium residuals sit far below.
  for (std::size_t i = 0; i < p.size(); ++i) {
    ASSERT_NEAR(p.ax[i], 0.f, 2e-2) << i;
    ASSERT_NEAR(p.ay[i], 0.f, 2e-2) << i;
    ASSERT_NEAR(p.az[i], 0.f, 2e-2) << i;
    ASSERT_NEAR(p.du[i], 0.f, 2e-2) << i;
  }
}

TEST(HydroPipeline, MomentumConservedWithMotion) {
  GasOptions g;
  g.n_side = 8;
  g.jitter = 0.25;
  g.vel_amp = 0.5;
  auto p = make_gas(g);
  util::ThreadPool pool(4);
  xsycl::Queue q(pool);
  run_hydro_pipeline(q, p, default_pipeline());
  double px = 0, py = 0, pz = 0, scale = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    px += double(p.mass[i]) * p.ax[i];
    py += double(p.mass[i]) * p.ay[i];
    pz += double(p.mass[i]) * p.az[i];
    scale += double(p.mass[i]) * std::abs(p.ax[i]);
  }
  // Pair-wise antisymmetric forces: net momentum change is FP noise.
  EXPECT_NEAR(px, 0.0, 1e-3 * std::max(scale, 1e-10));
  EXPECT_NEAR(py, 0.0, 1e-3 * std::max(scale, 1e-10));
  EXPECT_NEAR(pz, 0.0, 1e-3 * std::max(scale, 1e-10));
}

TEST(HydroPipeline, TotalEnergyBalanced) {
  // Compatible energy update: Σ m (du + v·a) == 0 up to FP noise.
  GasOptions g;
  g.n_side = 8;
  g.jitter = 0.25;
  g.vel_amp = 0.5;
  auto p = make_gas(g);
  util::ThreadPool pool(4);
  xsycl::Queue q(pool);
  run_hydro_pipeline(q, p, default_pipeline());
  double net = 0, scale = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double vdota = double(p.vx[i]) * p.ax[i] + double(p.vy[i]) * p.ay[i] +
                         double(p.vz[i]) * p.az[i];
    net += double(p.mass[i]) * (double(p.du[i]) + vdota);
    scale += double(p.mass[i]) * (std::abs(p.du[i]) + std::abs(vdota));
  }
  EXPECT_NEAR(net, 0.0, 2e-3 * std::max(scale, 1e-10));
}

TEST(HydroPipeline, SignalVelocityBoundedBelowBySoundSpeeds) {
  GasOptions g;
  g.n_side = 6;
  g.jitter = 0.2;
  g.vel_amp = 0.3;
  auto p = make_gas(g);
  util::ThreadPool pool(2);
  xsycl::Queue q(pool);
  run_hydro_pipeline(q, p, default_pipeline());
  for (std::size_t i = 0; i < p.size(); ++i) {
    // vsig >= cs_i + min_j cs_j > cs_i for any interacting neighbor.
    ASSERT_GE(p.vsig[i], p.cs[i]) << i;
  }
}

TEST(HydroPipeline, CorrectorPassRecordsFTimers) {
  GasOptions g;
  g.n_side = 5;
  auto p = make_gas(g);
  util::ThreadPool pool(2);
  xsycl::Queue q(pool);
  auto opt = default_pipeline();
  opt.corrector_pass = true;
  run_hydro_pipeline(q, p, opt);
  auto by_name = q.aggregate_by_kernel();
  for (const char* name :
       {"upGeo", "upCor", "upBarEx", "upBarAc", "upBarDu", "upBarAcF", "upBarDuF"}) {
    EXPECT_GT(by_name[name].launches, 0u) << name;
  }
}

TEST(HydroPipeline, ResultsIndependentOfLeafSize) {
  GasOptions g;
  g.n_side = 6;
  g.jitter = 0.25;
  g.vel_amp = 0.3;
  const auto gas = make_gas(g);
  std::vector<float> rho_ref;
  for (const int leaf : {8, 16, 48}) {
    core::ParticleSet p = gas;
    util::ThreadPool pool(2);
    xsycl::Queue q(pool);
    auto opt = default_pipeline();
    opt.leaf_size = leaf;
    run_hydro_pipeline(q, p, opt);
    if (rho_ref.empty()) {
      rho_ref = p.rho;
    } else {
      for (std::size_t i = 0; i < p.size(); ++i) {
        ASSERT_NEAR(p.rho[i], rho_ref[i], 1e-5 * 2.5) << "leaf " << leaf;
      }
    }
  }
}

TEST(HydroPipeline, ResultsIndependentOfThreadCount) {
  GasOptions g;
  g.n_side = 6;
  g.jitter = 0.25;
  const auto gas = make_gas(g);
  std::vector<float> v1;
  for (const unsigned threads : {1u, 8u}) {
    core::ParticleSet p = gas;
    util::ThreadPool pool(threads);
    xsycl::Queue q(pool);
    run_hydro_pipeline(q, p, default_pipeline());
    if (v1.empty()) {
      v1 = p.V;
    } else {
      // Atomic commit order differs; values agree to float round-off.
      for (std::size_t i = 0; i < p.size(); ++i) {
        ASSERT_NEAR(p.V[i], v1[i], 1e-6) << i;
      }
    }
  }
}

}  // namespace
}  // namespace hacc::sph

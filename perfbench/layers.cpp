#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/checkpoint.hpp"
#include "domain/domain.hpp"
#include "fft/fft.hpp"
#include "fmm/fmm.hpp"
#include "gravity/pm.hpp"
#include "gravity/poisson.hpp"
#include "gravity/pp_short.hpp"
#include "halo/fof.hpp"
#include "ic/power_spectrum.hpp"
#include "ic/zeldovich.hpp"
#include "mesh/cic.hpp"
#include "sph/acceleration.hpp"
#include "sph/corrections.hpp"
#include "sph/energy.hpp"
#include "sph/extras.hpp"
#include "sph/geometry.hpp"
#include "sph/kernel.hpp"
#include "sph/pipeline.hpp"
#include "tree/rcb.hpp"
#include "xsycl/queue.hpp"

namespace perfbench {

using namespace hacc;

namespace {

// Runs f twice inside spans named `name` and returns the second wall: the
// first call sizes and first-touches the layer's workspaces, as the live
// run's earlier steps already did.
template <typename F>
double warm_timed(SpanRecorder& rec, const std::string& name, F&& f) {
  time_call(rec, name, f);
  return time_call(rec, name, f);
}

std::uint64_t history_interactions(const xsycl::Queue& q) {
  std::uint64_t n = 0;
  for (const xsycl::LaunchStats& s : q.history()) n += s.ops.interactions;
  return n;
}

}  // namespace

LayerValues replay_layers(const ReplayContext& ctx, const core::ParticleSet& dm,
                          const core::ParticleSet& gas, util::ThreadPool& pool,
                          SpanRecorder& rec) {
  const core::SimConfig& sim = *ctx.sim;
  const run::RunOptions& run = *ctx.run;
  const double box = sim.box;
  const int ng = sim.pm_grid;
  const double g_code = 3.0 * sim.cosmo.omega_m / (8.0 * M_PI * ctx.scale_factor);
  const double r_split = sim.r_split_cells * box / ng;
  const float softening = static_cast<float>(sim.softening_cells * box / ng);
  const double h0 = sph::kEta * box / sim.np_side;
  const bool treepm = sim.gravity_backend == core::GravityBackend::kTreePm;
  const gravity::PolyShortForce poly(r_split, sim.pp_cut_factor * r_split,
                                     sim.poly_order);
  LayerValues v;

  // Combined dm-then-gas gather, as the solver's assemble stage builds it.
  const std::size_t n_dm = dm.size();
  const std::size_t n = n_dm + gas.size();
  std::vector<util::Vec3d> pos(n);
  std::vector<double> mass(n);
  std::vector<float> fx(n), fy(n), fz(n), fm(n), ax(n), ay(n), az(n);
  for (std::size_t i = 0; i < n; ++i) {
    const core::ParticleSet& p = i < n_dm ? dm : gas;
    const std::size_t k = i < n_dm ? i : i - n_dm;
    pos[i] = p.pos_of(k);
    mass[i] = p.mass[k];
    fx[i] = p.x[k];
    fy[i] = p.y[k];
    fz[i] = p.z[k];
    fm[i] = p.mass[k];
  }
  const gravity::GravityArrays arrays{fx.data(), fy.data(), fz.data(),
                                      fm.data(), ax.data(), ay.data(),
                                      az.data(), n};

  // ---- ic: Zel'dovich generation for the run's species ----
  v["ic.zeldovich_s"] = warm_timed(rec, "ic.zeldovich", [&] {
    const ic::PowerSpectrum pk(sim.cosmo, sim.sigma_norm, sim.r_norm);
    ic::ZeldovichOptions zopt;
    zopt.np_side = sim.np_side;
    zopt.box = box;
    zopt.a_init = ic::Cosmology::a_of_z(sim.z_init);
    zopt.seed = sim.seed;
    const ic::ZeldovichGenerator gen(sim.cosmo, pk, zopt, pool);
    gen.generate(0.0);
    if (sim.hydro) gen.generate(0.5);
  });

  // ---- mesh: CIC deposit and interpolation on the PM grid ----
  mesh::GridD grid(ng);
  mesh::CicDepositor depositor(pool);
  v["mesh.cic_deposit_s"] = warm_timed(rec, "mesh.cic_deposit", [&] {
    std::fill(grid.data().begin(), grid.data().end(), 0.0);
    depositor.deposit(grid, pos, mass, box);
  });
  std::vector<util::Vec3d> gathered(n);
  v["mesh.cic_interp_s"] = warm_timed(rec, "mesh.cic_interp", [&] {
    pool.parallel_for_chunks(
        static_cast<std::int64_t>(n), 4096, [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i) {
            gathered[i] = mesh::cic_interpolate3(grid, grid, grid, pos[i], box);
          }
        });
  });

  // ---- fft: one r2c and one c2r of the deposited field ----
  const fft::Fft3D transform(ng, pool);
  std::vector<fft::cplx> half, scratch;
  std::vector<double> real(transform.size());
  v["fft.r2c_s"] = warm_timed(
      rec, "fft.r2c", [&] { transform.forward_r2c(grid.data(), half); });
  double c2r = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    scratch = half;  // inverse_c2r consumes its input
    c2r = time_call(rec, "fft.c2r", [&] { transform.inverse_c2r(scratch, real); });
  }
  v["fft.c2r_s"] = c2r;
  v["fft.points"] = 2.0 * static_cast<double>(transform.size());

  // ---- gravity (PM): the full long-range solve ----
  gravity::PmOptions pm_opt;
  pm_opt.grid_n = ng;
  pm_opt.box = box;
  pm_opt.r_split = r_split;
  pm_opt.G = g_code;
  pm_opt.gradient = sim.pm_gradient;
  gravity::PmSolver pm(pm_opt, pool);
  std::vector<util::Vec3d> accel_pm(n);
  v["pm.solve_s"] = warm_timed(
      rec, "pm.solve", [&] { pm.compute_forces(pos, mass, accel_pm); });

  // ---- tree / domain ----
  std::optional<tree::RcbTree> rcb;
  v["tree.build_s"] = warm_timed(
      rec, "tree.build", [&] { rcb.emplace(pos, box, sim.leaf_size, pool); });
  v["tree.refresh_s"] = warm_timed(rec, "tree.refresh", [&] { rcb->refresh(pos); });

  domain::DomainOptions dopt;
  dopt.box = box;
  dopt.leaf_size = sim.leaf_size;
  dopt.skin = sim.domain_skin;
  dopt.rebuild = sim.domain_rebuild;
  dopt.pool = &pool;
  std::optional<domain::InteractionDomain> dom;
  v["domain.update_s"] = warm_timed(rec, "domain.update", [&] {
    dom.emplace(dopt);
    dom->update(pos, n_dm);
  });
  std::uint64_t pairs = 0;
  const double walk_s = warm_timed(rec, "domain.pairs", [&] {
    pairs = 0;
    dom->for_each_pair(poly.r_cut(), [&](const tree::LeafPair&) { ++pairs; });
  });
  v["domain.pairs"] = static_cast<double>(pairs);
  v["domain.pairs_per_s"] = static_cast<double>(pairs) / walk_s;

  // ---- sph: the five-kernel chain on the gas (a gravity-only run replays
  // it on its dark matter dressed as fiducial gas) ----
  core::ParticleSet g = gas;
  std::optional<domain::InteractionDomain> gas_only;
  const domain::InteractionDomain* sph_dom = &*dom;
  if (!sim.hydro) {
    g = dm;
    const double dx = box / sim.np_side;
    std::fill(g.h.begin(), g.h.end(), static_cast<float>(h0));
    std::fill(g.V.begin(), g.V.end(), static_cast<float>(dx * dx * dx));
    std::fill(g.u.begin(), g.u.end(), static_cast<float>(sim.u_init));
    gas_only.emplace(dopt);
    gas_only->update(g.positions(), 0);
    sph_dom = &*gas_only;
  }
  const domain::SpeciesView gas_view = sph_dom->second();
  std::vector<tree::LeafPair> sph_pairs;
  const double sph_pairs_s = warm_timed(rec, "sph.pairs", [&] {
    sph_pairs.clear();
    sph_dom->for_each_pair(sph::support_cutoff(g), [&](const tree::LeafPair& lp) {
      if (gas_view.leaves[lp.a].count() == 0 ||
          gas_view.leaves[lp.b].count() == 0) {
        return;
      }
      sph_pairs.push_back(lp);
    });
  });
  xsycl::Queue sph_q(pool);
  const auto hydro = [&](xsycl::CommVariant variant) {
    sph::HydroOptions o;
    o.box = static_cast<float>(box);
    o.variant = variant;
    o.launch.sub_group_size = sim.sub_group_size;
    o.launch.sg_per_wg = sim.sg_per_wg;
    return o;
  };
  const domain::PairSource src(sph_pairs);
  std::uint64_t sph_interactions = 0;
  double sph_total = 0.0;
  const auto sph_kernel = [&](const char* metric, const char* span, auto run) {
    xsycl::LaunchStats stats;
    const double dt = warm_timed(rec, span, [&] { stats = run(); });
    sph_interactions += stats.ops.interactions;
    sph_total += dt;
    v[metric] = dt;
  };
  const auto& var = sim.variants;
  sph_kernel("sph.geometry_s", "sph.geometry", [&] {
    return sph::run_geometry(sph_q, g, gas_view, src, hydro(var.geometry));
  });
  sph_kernel("sph.corrections_s", "sph.corrections", [&] {
    return sph::run_corrections(sph_q, g, gas_view, src, hydro(var.corrections));
  });
  sph_kernel("sph.extras_s", "sph.extras", [&] {
    return sph::run_extras(sph_q, g, gas_view, src, hydro(var.extras));
  });
  sph_kernel("sph.acceleration_s", "sph.acceleration", [&] {
    return sph::run_acceleration(sph_q, g, gas_view, src, hydro(var.acceleration));
  });
  sph_kernel("sph.energy_s", "sph.energy", [&] {
    return sph::run_energy(sph_q, g, gas_view, src, hydro(var.energy));
  });
  v["sph.interactions"] = static_cast<double>(sph_interactions);
  v["sph.interactions_per_s"] = static_cast<double>(sph_interactions) / sph_total;

  // ---- fmm: upward pass, MAC lists, far field (treepm-style cutoff) ----
  std::optional<fmm::FmmEvaluator> evaluator;
  v["fmm.upward_s"] = warm_timed(rec, "fmm.upward", [&] {
    evaluator.emplace(dom->tree(), pos, mass, pool);
  });
  fmm::InteractionLists lists;
  v["fmm.lists_s"] = warm_timed(rec, "fmm.lists", [&] {
    lists = evaluator->build_interactions(sim.fmm_theta, poly.r_cut());
  });
  fmm::FarOptions far;
  far.box = box;
  far.G = g_code;
  far.softening = softening;
  far.poly = &poly;
  fmm::FarFieldStats far_stats;
  v["fmm.far_s"] = warm_timed(rec, "fmm.far", [&] {
    far_stats = evaluator->evaluate_far(lists, arrays, far);
  });
  v["fmm.m2p_ops"] = static_cast<double>(far_stats.m2p_ops);

  // ---- gravity (PP): the short-range kernel over the backend's pair set
  // (the whole cutoff sphere for pm_pp, the MAC near list for treepm) ----
  gravity::PpOptions pp;
  pp.box = static_cast<float>(box);
  pp.G = static_cast<float>(g_code);
  pp.softening = softening;
  pp.variant = sim.variants.gravity;
  pp.launch.sub_group_size = sim.sub_group_size;
  pp.launch.sg_per_wg = sim.sg_per_wg;
  xsycl::Queue pp_q(pool);
  const domain::PairSource pp_pairs =
      treepm ? domain::PairSource(lists.near) : dom->pairs(poly.r_cut());
  v["pp.short_s"] = warm_timed(rec, "pp.short", [&] {
    pp_q.clear_history();
    gravity::run_pp_short(pp_q, arrays, dom->all(), pp_pairs, poly, pp);
  });
  v["pp.interactions"] = static_cast<double>(history_interactions(pp_q));
  v["pp.interactions_per_s"] = v["pp.interactions"] / v["pp.short_s"];

  // ---- shard: residency + ghost exchange of one prepare() ----
  shard::ShardOptions sopt;
  if (ctx.live_shard != nullptr) {
    sopt = *ctx.live_shard;
  } else {
    sopt.box = box;
    sopt.count = 4;
    sopt.range = poly.r_cut();
    if (sim.hydro) sopt.range = std::max(sopt.range, sph::kSupport * 2.0 * h0);
    sopt.ghost_factor = sim.shard_ghost_factor;
    sopt.leaf_size = sim.leaf_size;
    sopt.skin = sim.domain_skin;
    sopt.rebuild = sim.domain_rebuild;
  }
  sopt.pool = &pool;
  shard::EngineStats shard_stats;
  shard::TransportStats traffic;
  const double prepare_s = warm_timed(rec, "shard.prepare", [&] {
    shard::ShardEngine engine(sopt);
    engine.prepare(dm, gas, pos);
    shard_stats = engine.stats();
    traffic = engine.transport_stats();
  });
  v["shard.reshard_s"] = shard_stats.migrate_seconds;
  v["shard.exchange_s"] = shard_stats.exchange_seconds;
  v["shard.ghosts_per_resident"] =
      static_cast<double>(shard_stats.ghost_copies) / static_cast<double>(n);
  v["shard.messages"] = static_cast<double>(traffic.messages);
  v["shard.bytes"] = static_cast<double>(traffic.bytes);
  // A sharded step runs its P-P and SPH chain per shard, ghosts included.
  double shard_chain_s = 0.0;
  if (ctx.live_shard != nullptr) {
    shard::ShardEngine engine(sopt);
    engine.prepare(dm, gas, pos);
    const shard::PpParams shard_pp{&poly, static_cast<float>(box),
                                   static_cast<float>(g_code), softening};
    shard_chain_s += warm_timed(
        rec, "shard.pp", [&] { engine.run_pp(shard_pp, ax, ay, az); });
    if (sim.hydro) {
      shard::SphParams shard_sph;
      shard_sph.geometry = hydro(var.geometry);
      shard_sph.corrections = hydro(var.corrections);
      shard_sph.extras = hydro(var.extras);
      shard_sph.acceleration = hydro(var.acceleration);
      shard_sph.energy = hydro(var.energy);
      core::ParticleSet shard_gas = gas;
      shard_chain_s += warm_timed(rec, "shard.sph", [&] {
        engine.run_sph(shard_gas, sph_q, shard_sph);
      });
    }
  }

  // ---- core checkpoint over io: write + validate one restart file ----
  const std::string path = ctx.scratch_dir + "/replay.ckpt";
  core::RunCheckpointMeta meta;
  meta.box = box;
  meta.scale_factor = ctx.scale_factor;
  meta.config_hash = core::config_signature(sim);
  core::CkptResult wrote, valid;
  v["ckpt.write_s"] = warm_timed(rec, "ckpt.write", [&] {
    wrote = core::write_run_checkpoint(path, dm, gas, meta);
  });
  v["ckpt.validate_s"] = warm_timed(
      rec, "ckpt.validate", [&] { valid = core::validate_run_checkpoint(path); });
  if (!wrote.ok() || !valid.ok()) {
    throw std::runtime_error("checkpoint replay failed: " +
                             (wrote.ok() ? valid : wrote).message());
  }
  const double bytes = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
  v["ckpt.bytes"] = bytes;
  v["ckpt.mb_per_s"] = bytes / 1e6 / v["ckpt.write_s"];

  // ---- halo: FoF over the dark matter, the run's linking length ----
  halo::FofOptions fof;
  fof.linking_length = run.fof_b * box / sim.np_side;
  fof.min_members = run.fof_min_members;
  halo::FofResult halos;
  v["halo.fof_s"] = warm_timed(rec, "halo.fof", [&] {
    halos = halo::friends_of_friends(dm.positions(), box, fof);
  });
  v["halo.n_halos"] = halos.n_halos();

  // The stages one step of this workload runs, back to back.
  double serial = v["pm.solve_s"];
  if (ctx.live_shard != nullptr) {
    serial += prepare_s + shard_chain_s;
  } else {
    serial += v["domain.update_s"] + v["pp.short_s"];
    if (treepm) serial += v["fmm.upward_s"] + v["fmm.lists_s"] + v["fmm.far_s"];
    if (sim.hydro) serial += sph_pairs_s + sph_total;
  }
  v[kSerialStepKey] = serial;
  return v;
}

}  // namespace perfbench

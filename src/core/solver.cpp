#include "core/solver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hacc::core {

bool read_sim_keys(const util::Config& cfg, SimConfig& sim, std::string& error) {
  bool ok = true;
  for_each_sim_field(sim, [&](const util::KeyRow& row, auto& field) {
    ok = ok && cfg.read(row, field, error);
  });
  if (!ok || sim.z_init > sim.z_final) return ok;
  error = "invalid z_init/z_final (need z_init > z_final)";
  return false;
}

std::uint64_t config_signature(const SimConfig& cfg) {
  std::uint64_t h = 0x4352'4b48'4143'4321ull;  // "CRKHACC!"
  for_each_sim_field(cfg, [&h](const util::KeyRow& row, const auto& field) {
    using T = std::remove_cvref_t<decltype(field)>;
    if (row.role != util::Role::kPhysics) return;
    // Physics rows are numbers, bools and enums (the scenario label is neutral).
    if constexpr (std::is_floating_point_v<T>) {
      h = util::splitmix64(h ^ std::bit_cast<std::uint64_t>(field));
    } else if constexpr (!std::is_same_v<T, std::string>) {
      h = util::splitmix64(h ^ static_cast<std::uint64_t>(field));
    }
  });
  return h;
}

namespace {

// The tree-walk chain stages that StepStats::short_range_seconds sums.
constexpr const char* kShortRangeStages[] = {"sph", "fmm_build", "short_range",
                                             "far_field"};

// The SPH chain's launch options, threading the per-kernel variants.
sph::ChainOptions chain_options(const SimConfig& cfg, bool corrector) {
  const auto hydro = [&cfg](xsycl::CommVariant v) {
    sph::HydroOptions opt;
    opt.box = static_cast<float>(cfg.box);
    opt.variant = v;
    opt.launch.sub_group_size = cfg.sub_group_size;
    opt.launch.sg_per_wg = cfg.sg_per_wg;
    return opt;
  };
  const VariantSelection& v = cfg.variants;
  return {hydro(v.geometry),     hydro(v.corrections), hydro(v.extras),
          hydro(v.acceleration), hydro(v.energy),      corrector};
}

}  // namespace

Solver::Solver(const SimConfig& cfg, util::ThreadPool& pool)
    : cfg_(cfg), pool_(&pool), queue_(pool) {
  xsycl::check_sub_group_size(cfg_.sub_group_size);
  a_ = ic::Cosmology::a_of_z(cfg_.z_init);
  const double a_final = ic::Cosmology::a_of_z(cfg_.z_final);
  da_ = (a_final - a_) / cfg_.n_steps;
  h0_ = sph::kEta * cfg_.box / cfg_.np_side;

  if (cfg_.gravity_backend == GravityBackend::kFmm) {
    // Mesh-free: the multipole far field replaces the PM solve, so the near
    // field is plain softened Newton and the cutoff only needs to cover the
    // largest possible minimum-image separation (sqrt(3)/2 * box).
    poly_ = std::make_unique<gravity::PolyShortForce>(
        gravity::PolyShortForce::newtonian(cfg_.box));
  } else {
    gravity::PmOptions pm_opt;
    pm_opt.grid_n = cfg_.pm_grid;
    pm_opt.box = cfg_.box;
    pm_opt.r_split = cfg_.r_split_cells * cfg_.box / cfg_.pm_grid;
    pm_opt.G = 1.0;  // rescaled per evaluation
    pm_opt.gradient = cfg_.pm_gradient;
    pm_ = std::make_unique<gravity::PmSolver>(pm_opt, pool);
    poly_ = std::make_unique<gravity::PolyShortForce>(
        pm_opt.r_split, cfg_.pp_cut_factor * pm_opt.r_split, cfg_.poly_order);
  }

  domain::DomainOptions dopt;
  dopt.box = cfg_.box;
  dopt.leaf_size = cfg_.leaf_size;
  dopt.skin = cfg_.domain_skin;
  dopt.rebuild = cfg_.domain_rebuild;
  dopt.pool = pool_;  // level-parallel tree builds (bit-identical, rcb.hpp)
  domain_ = std::make_unique<domain::InteractionDomain>(dopt);

  // Sharded evaluation: the halo must cover the largest interaction range
  // of any sharded consumer.  Short-range gravity needs the P-P cutoff;
  // SPH needs the kernel support at the smoothing-length clamp (h never
  // exceeds 2 h0, update_smoothing_lengths).  Only pm_pp shards its
  // gravity: the fmm and treepm far fields need the global tree, so with
  // those backends only hydro shards — and without hydro there is nothing
  // to shard at all.
  if (cfg_.shard_count > 1) {
    const bool pp_sharded = cfg_.gravity_backend == GravityBackend::kPmPp;
    double range = 0.0;
    if (pp_sharded) range = std::max(range, poly_->r_cut());
    if (cfg_.hydro) range = std::max(range, sph::kSupport * 2.0 * h0_);
    if (range > 0.0) {
      shard::ShardOptions sopt;
      sopt.box = cfg_.box;
      sopt.count = cfg_.shard_count;
      sopt.range = range;
      sopt.ghost_factor = cfg_.shard_ghost_factor;
      sopt.leaf_size = cfg_.leaf_size;
      sopt.skin = cfg_.domain_skin;
      sopt.rebuild = cfg_.domain_rebuild;
      sopt.pool = pool_;
      engine_ = std::make_unique<shard::ShardEngine>(sopt);
    }
  }
}

void Solver::require_initialized(const char* what) const {
  if (!initialized_) {
    throw std::logic_error(std::string("Solver::") + what +
                           " requires initialize() or restore() first");
  }
}

void Solver::initialize() {
  if (initialized_) {
    throw std::logic_error(
        "Solver::initialize() called on an initialized solver; it would "
        "silently discard the evolved particle state");
  }
  if (cfg_.ic_kind == InitialConditions::kSedov) {
    initialize_sedov();
  } else {
    initialize_zeldovich();
  }
  initialized_ = true;
  compute_forces(/*corrector=*/false);
  steps_taken_ = 0;
}

void Solver::initialize_zeldovich() {
  const ic::PowerSpectrum pk(cfg_.cosmo, cfg_.sigma_norm, cfg_.r_norm);
  ic::ZeldovichOptions zopt;
  zopt.np_side = cfg_.np_side;
  zopt.box = cfg_.box;
  zopt.a_init = a_;
  zopt.seed = cfg_.seed;
  const ic::ZeldovichGenerator gen(cfg_.cosmo, pk, zopt, *pool_);

  const std::size_t n = static_cast<std::size_t>(cfg_.np_side) * cfg_.np_side *
                        cfg_.np_side;
  const double m_total = cfg_.box * cfg_.box * cfg_.box;  // mean density 1
  const double fb = cfg_.hydro ? cfg_.baryon_fraction : 0.0;
  const double dx = cfg_.box / cfg_.np_side;
  h0_ = sph::kEta * dx;

  const auto fill_species = [&](ParticleSet& p, const ic::ZeldovichField& f,
                                double mass) {
    p.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      p.x[i] = static_cast<float>(f.position[i].x);
      p.y[i] = static_cast<float>(f.position[i].y);
      p.z[i] = static_cast<float>(f.position[i].z);
      // v (peculiar) = p / a for the Zel'dovich momentum p = a^3 H D' psi.
      p.vx[i] = static_cast<float>(f.momentum[i].x / a_);
      p.vy[i] = static_cast<float>(f.momentum[i].y / a_);
      p.vz[i] = static_cast<float>(f.momentum[i].z / a_);
      p.mass[i] = static_cast<float>(mass);
      p.h[i] = static_cast<float>(h0_);
      p.V[i] = static_cast<float>(dx * dx * dx);
      p.u[i] = static_cast<float>(cfg_.u_init);
    }
  };

  fill_species(dm_, gen.generate(0.0), (1.0 - fb) * m_total / n);
  if (cfg_.hydro) {
    fill_species(gas_, gen.generate(0.5), fb * m_total / n);
  } else {
    gas_.resize(0);
  }
}

void Solver::initialize_sedov() {
  // Sedov–Taylor blast ICs: both species on unperturbed lattices at rest
  // (net gravity vanishes by symmetry), a cold uniform background u_init,
  // and the blast energy E deposited as thermal energy into the gas
  // particles within 1.5 lattice spacings of the box center.  The similarity
  // solution R(t) = xi0 (E t^2 / rho0)^(1/5) is the ctest oracle
  // (tests/run/test_sedov.cpp).
  const std::size_t n = static_cast<std::size_t>(cfg_.np_side) * cfg_.np_side *
                        cfg_.np_side;
  const double m_total = cfg_.box * cfg_.box * cfg_.box;  // mean density 1
  const double fb = cfg_.hydro ? cfg_.baryon_fraction : 0.0;
  const double dx = cfg_.box / cfg_.np_side;
  h0_ = sph::kEta * dx;

  const auto fill_lattice = [&](ParticleSet& p, double offset_cells,
                                double mass) {
    p.resize(n);
    std::size_t i = 0;
    for (int ix = 0; ix < cfg_.np_side; ++ix) {
      for (int iy = 0; iy < cfg_.np_side; ++iy) {
        for (int iz = 0; iz < cfg_.np_side; ++iz, ++i) {
          p.x[i] = static_cast<float>((ix + 0.5 + offset_cells) * dx);
          p.y[i] = static_cast<float>((iy + 0.5 + offset_cells) * dx);
          p.z[i] = static_cast<float>((iz + 0.5 + offset_cells) * dx);
          p.vx[i] = p.vy[i] = p.vz[i] = 0.f;
          p.mass[i] = static_cast<float>(mass);
          p.h[i] = static_cast<float>(h0_);
          p.V[i] = static_cast<float>(dx * dx * dx);
          p.u[i] = static_cast<float>(cfg_.u_init);
        }
      }
    }
  };

  fill_lattice(dm_, 0.0, (1.0 - fb) * m_total / n);
  if (cfg_.hydro) {
    fill_lattice(gas_, 0.5, fb * m_total / n);
  } else {
    gas_.resize(0);
  }

  if (cfg_.hydro && gas_.size() > 0 && cfg_.sedov_energy > 0.0) {
    const util::Vec3d center{0.5 * cfg_.box, 0.5 * cfg_.box, 0.5 * cfg_.box};
    const double r_dep = 1.5 * dx;
    std::vector<std::size_t> hot;
    for (std::size_t i = 0; i < gas_.size(); ++i) {
      const auto d = sph::min_image(gas_.pos_of(i) - center, cfg_.box);
      if (norm(d) <= r_dep) hot.push_back(i);
    }
    if (hot.empty()) {
      throw std::logic_error(
          "Solver::initialize_sedov(): no gas particle within the deposition "
          "radius — np_side is too small for a Sedov blast");
    }
    const double e_per = cfg_.sedov_energy / static_cast<double>(hot.size());
    for (const std::size_t i : hot) {
      gas_.u[i] += static_cast<float>(e_per / gas_.mass[i]);
    }
  }
}

void Solver::restore(ParticleSet dm, ParticleSet gas, double scale_factor,
                     int steps_taken) {
  if (initialized_) {
    throw std::logic_error(
        "Solver::restore() called on an initialized solver; it would "
        "silently discard the evolved particle state");
  }
  const std::size_t n = static_cast<std::size_t>(cfg_.np_side) * cfg_.np_side *
                        cfg_.np_side;
  if (dm.size() != n) {
    throw std::invalid_argument(
        "Solver::restore(): dark-matter particle count does not match "
        "np_side^3 of the configuration");
  }
  if (gas.size() != (cfg_.hydro ? n : 0)) {
    throw std::invalid_argument(
        "Solver::restore(): baryon particle count does not match the "
        "configuration's hydro setting");
  }
  if (!(scale_factor > 0.0)) {
    throw std::invalid_argument("Solver::restore(): scale factor must be > 0");
  }
  dm_ = std::move(dm);
  gas_ = std::move(gas);
  a_ = scale_factor;
  steps_taken_ = steps_taken;
  initialized_ = true;
  forces_ready_ = false;  // recomputed lazily from the restored state
  // KDK evaluates the corrector forces from the *mid-step* state (pre-kick
  // velocities and internal energies), so they cannot be recomputed from the
  // checkpointed end-of-step state.  The checkpoint stores every hydro
  // kernel output instead (ax, du, vsig, ...); the first force evaluation
  // after a restore keeps them and recomputes only gravity, which is a pure
  // function of the checkpointed positions.
  use_restored_hydro_forces_ = true;
}

void Solver::prepare_forces() {
  require_initialized("prepare_forces()");
  if (!forces_ready_) compute_forces(/*corrector=*/false);
}

void Solver::set_time_step(double da) {
  if (!(da > 0.0)) {
    throw std::invalid_argument("Solver::set_time_step(): da must be > 0");
  }
  da_ = da;
}

void Solver::update_smoothing_lengths() {
  // Elementwise with disjoint writes: bit-identical for any thread count.
  // shared: gas_.h (one slot per iteration), gas_.V (read-only).
  pool_->parallel_for_chunks(
      static_cast<std::int64_t>(gas_.size()), 4096,
      [this](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const float h = static_cast<float>(sph::kEta) *
                          std::cbrt(std::max(gas_.V[i], 0.f));
          gas_.h[i] = std::clamp(h, 0.5f * static_cast<float>(h0_),
                                 2.0f * static_cast<float>(h0_));
        }
      });
}

void Solver::assemble_gravity_inputs() {
  const std::size_t total = dm_.size() + gas_.size();
  grav_pos_.resize(total);
  grav_mass_d_.resize(total);
  // Without a mesh (fmm backend) there is no pm stage: the long-range term
  // is zero.
  if (pm_) {
    grav_accel_pm_.resize(total);
  } else {
    grav_accel_pm_.assign(total, util::Vec3d{});
  }
  grav_x_.resize(total);
  grav_y_.resize(total);
  grav_z_.resize(total);
  grav_mass_.resize(total);
  grav_ax_.assign(total, 0.f);
  grav_ay_.assign(total, 0.f);
  grav_az_.assign(total, 0.f);
  const auto copy_in = [&](const ParticleSet& p, std::size_t base) {
    // Pure per-index gather into disjoint slots: bit-identical for any
    // thread count.
    // shared: grav_* scratch (slot base + i owned by iteration i).
    pool_->parallel_for_chunks(
        static_cast<std::int64_t>(p.size()), 4096,
        [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t ii = b; ii < e; ++ii) {
            const std::size_t i = static_cast<std::size_t>(ii);
            grav_pos_[base + i] = p.pos_of(i);
            grav_mass_d_[base + i] = p.mass[i];
            grav_x_[base + i] = p.x[i];
            grav_y_[base + i] = p.y[i];
            grav_z_[base + i] = p.z[i];
            grav_mass_[base + i] = p.mass[i];
          }
        });
  };
  copy_in(dm_, 0);
  copy_in(gas_, dm_.size());
}

gravity::GravityArrays Solver::gravity_arrays() {
  return gravity::GravityArrays{grav_x_.data(),    grav_y_.data(),
                                grav_z_.data(),    grav_mass_.data(),
                                grav_ax_.data(),   grav_ay_.data(),
                                grav_az_.data(),   grav_x_.size()};
}

gravity::PpOptions Solver::pp_options(double g_code) const {
  gravity::PpOptions ppopt;
  ppopt.box = static_cast<float>(cfg_.box);
  ppopt.G = static_cast<float>(g_code);
  ppopt.softening =
      static_cast<float>(cfg_.softening_cells * cfg_.box / cfg_.pm_grid);
  ppopt.variant = cfg_.variants.gravity;
  ppopt.launch.sub_group_size = cfg_.sub_group_size;
  ppopt.launch.sg_per_wg = cfg_.sg_per_wg;
  return ppopt;
}

template <typename Body>
void Solver::run_stage(const char* span_name, Body&& body) {
  constexpr std::string_view kPrefix = "sched.";
  const obs::TraceSpan span(span_name);
  const double t0 = util::wtime();
  body();
  const double wall = util::wtime() - t0;
  StageTotal& total = stage_totals_[span_name + kPrefix.size()];
  total.seconds += wall;
  ++total.runs;
}

void Solver::compute_forces(bool corrector) {
  // One force evaluation is a fixed list of stages, run one after another.
  // One combined-species gather (dm then gas) feeds the WHOLE evaluation:
  // the shared interaction domain builds — or Verlet-skin-reuses — exactly
  // one tree over it, and both the SPH kernels and the short-range gravity
  // kernels consume species-filtered views of that tree.
  //
  //   assemble → tree → shard_update → sph → pm
  //            → (short_range | fmm_build → short_range → far_field)
  //
  // tree is skipped when only the shards build trees (sharded pm_pp),
  // shard_update without a shard engine, sph without hydro work, and pm
  // without a mesh (fmm backend).
  //
  // Restart: the checkpointed kernel outputs stand in for this evaluation's
  // sph stage; gravity is a pure function of the checkpointed positions and
  // recomputes normally (sharded or not).
  const bool restored = use_restored_hydro_forces_;
  if (restored) use_restored_hydro_forces_ = false;
  const bool run_sph_stage = !restored && cfg_.hydro && gas_.size() > 0;
  // With the engine active, short-range gravity runs per shard for pm_pp;
  // the fmm and treepm gravity chains stay on the global tree.
  const bool sharded_pp =
      engine_ != nullptr && cfg_.gravity_backend == GravityBackend::kPmPp;

  run_stage("sched.assemble", [&] {
    // h sets the SPH pair cutoff and feeds the shard ghost loads, so it is
    // updated once, ahead of both the tree and the shard exchange.
    if (run_sph_stage) update_smoothing_lengths();
    assemble_gravity_inputs();
  });
  if (!sharded_pp) {
    run_stage("sched.tree", [&] { domain_->update(grav_pos_, dm_.size()); });
  }
  if (engine_) {
    run_stage("sched.shard_update",
              [&] { engine_->prepare(dm_, gas_, grav_pos_); });
  }

  // ---- Hydro (baryons): the SPH chain, per shard or over the shared
  // domain.  Five kernels read the same pairs, so they are collected once
  // (gravity, a single consumer, streams its pairs instead). ----
  if (run_sph_stage) {
    run_stage("sched.sph", [&] {
      const sph::ChainOptions opt = chain_options(cfg_, corrector);
      if (engine_) {
        engine_->run_sph(gas_, queue_, opt);
        return;
      }
      {
        const obs::TraceSpan span("core.sph_pairs");
        sph::collect_gas_pairs(*domain_, sph::support_cutoff(gas_),
                               sph_pairs_scratch_);
      }
      const sph::ChainPart part{&gas_, domain_->second(), sph_pairs_scratch_};
      sph::run_chain(queue_, {&part, 1}, opt);
    });
  }

  // ---- Gravity (both species): Poisson constant 4 pi G = 3/2 Omega_m / (a rhobar),
  // with rhobar = 1 by the mass normalization. ----
  const double g_code = 3.0 * cfg_.cosmo.omega_m / (8.0 * M_PI * a_);
  if (pm_) {
    run_stage("sched.pm", [&] {
      pm_->set_gravitational_constant(g_code);
      pm_->compute_forces(grav_pos_, grav_mass_d_, grav_accel_pm_);
    });
  }

  if (sharded_pp) {
    // Per-shard P-P over the full cutoff sphere: the same pair set as the
    // unsharded walk, term for term in float.
    run_stage("sched.short_range", [&] {
      shard::PpParams pp;
      pp.poly = poly_.get();
      pp.box = static_cast<float>(cfg_.box);
      pp.G = static_cast<float>(g_code);
      pp.softening =
          static_cast<float>(cfg_.softening_cells * cfg_.box / cfg_.pm_grid);
      engine_->run_pp(pp, grav_ax_, grav_ay_, grav_az_);
    });
  } else if (cfg_.gravity_backend == GravityBackend::kPmPp) {
    run_stage("sched.short_range", [&] {
      run_pp_short(queue_, gravity_arrays(), domain_->all(),
                   domain_->pairs(poly_->r_cut()), *poly_, pp_options(g_code));
    });
  } else {
    const bool treepm = cfg_.gravity_backend == GravityBackend::kTreePm;
    std::optional<fmm::FmmEvaluator> evaluator;
    fmm::InteractionLists lists;
    run_stage("sched.fmm_build", [&] {
      const double r_cut =
          treepm ? poly_->r_cut() : std::numeric_limits<double>::infinity();
      evaluator.emplace(domain_->tree(), grav_pos_, grav_mass_d_, *pool_);
      lists = evaluator->build_interactions(cfg_.fmm_theta, r_cut);
    });
    run_stage("sched.short_range", [&] {
      run_pp_short(queue_, gravity_arrays(), domain_->all(), lists.near,
                   *poly_, pp_options(g_code));
    });
    run_stage("sched.far_field", [&] {
      fmm::FarOptions fopt;
      fopt.box = cfg_.box;
      fopt.G = g_code;
      fopt.softening =
          static_cast<float>(cfg_.softening_cells * cfg_.box / cfg_.pm_grid);
      fopt.poly = treepm ? poly_.get() : nullptr;
      evaluator->evaluate_far(lists, gravity_arrays(), fopt, &fmm_ops_);
    });
  }
  forces_ready_ = true;
}

double Solver::stage_seconds(std::string_view stage) const {
  const auto it = stage_totals_.find(stage);
  return it == stage_totals_.end() ? 0.0 : it->second.seconds;
}

std::vector<util::Vec3d> Solver::gravity_accelerations() const {
  std::vector<util::Vec3d> acc(grav_ax_.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = grav_accel_pm_[i] +
             util::Vec3d{grav_ax_[i], grav_ay_[i], grav_az_[i]};
  }
  return acc;
}

void Solver::kick(double k_factor, double a_for_grav) {
  // Gravity: dv/dt = F/a; hydro: dv/dt = a_hydro; energy: du/dt from kernel.
  const auto apply = [&](ParticleSet& p, std::size_t grav_base, bool hydro) {
    // Pure per-particle update with disjoint writes: bit-identical for any
    // thread count (the kick/drift determinism promise in CONCURRENCY.md).
    // shared: p velocity/energy slots (one per iteration), grav_* read-only.
    pool_->parallel_for_chunks(
        static_cast<std::int64_t>(p.size()), 4096,
        [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t ii = b; ii < e; ++ii) {
            const std::size_t i = static_cast<std::size_t>(ii);
            const std::size_t g = grav_base + i;
            double axt = (grav_accel_pm_[g].x + grav_ax_[g]) / a_for_grav;
            double ayt = (grav_accel_pm_[g].y + grav_ay_[g]) / a_for_grav;
            double azt = (grav_accel_pm_[g].z + grav_az_[g]) / a_for_grav;
            if (hydro) {
              axt += p.ax[i];
              ayt += p.ay[i];
              azt += p.az[i];
              p.u[i] = std::max(
                  0.f, p.u[i] + static_cast<float>(p.du[i] * k_factor));
            }
            p.vx[i] += static_cast<float>(axt * k_factor);
            p.vy[i] += static_cast<float>(ayt * k_factor);
            p.vz[i] += static_cast<float>(azt * k_factor);
          }
        });
  };
  apply(dm_, 0, false);
  apply(gas_, dm_.size(), cfg_.hydro);
}

void Solver::drift(double a0, double a1) {
  const double dtau = cfg_.cosmo.conformal_factor(a0, a1);
  const float box = static_cast<float>(cfg_.box);
  const auto wrap = [box](float x) {
    x = std::fmod(x, box);
    return x < 0.f ? x + box : x;
  };
  // Hubble drag on v and adiabatic expansion on u, as exact split factors.
  const float drag = static_cast<float>(a0 / a1);
  const float cool = static_cast<float>(std::pow(a0 / a1, 3.0 * (sph::kGamma - 1.0)));
  const auto apply = [&](ParticleSet& p, bool hydro) {
    // Pure per-particle update with disjoint writes: bit-identical for any
    // thread count (the kick/drift determinism promise in CONCURRENCY.md).
    // shared: p position/velocity/energy slots (one per iteration).
    pool_->parallel_for_chunks(
        static_cast<std::int64_t>(p.size()), 4096,
        [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t ii = b; ii < e; ++ii) {
            const std::size_t i = static_cast<std::size_t>(ii);
            p.x[i] = wrap(p.x[i] + static_cast<float>(p.vx[i] * dtau));
            p.y[i] = wrap(p.y[i] + static_cast<float>(p.vy[i] * dtau));
            p.z[i] = wrap(p.z[i] + static_cast<float>(p.vz[i] * dtau));
            p.vx[i] *= drag;
            p.vy[i] *= drag;
            p.vz[i] *= drag;
            if (hydro) p.u[i] *= cool;
          }
        });
  };
  apply(dm_, false);
  apply(gas_, cfg_.hydro);
}

StepStats Solver::step() {
  require_initialized("step()");
  // The top-level lane span: tools/trace_report.py and the golden events
  // test reconcile the sum of core.step durations against StepStats wall
  // time, so this span must cover everything t0 below measures.
  const obs::TraceSpan step_span("core.step");
  const double t0 = util::wtime();
  const domain::DomainStats dom0 = domain_->stats();
  const shard::EngineStats eng0 =
      engine_ ? engine_->stats() : shard::EngineStats{};
  const auto chain_seconds = [this] {
    double sum = 0.0;
    for (const char* stage : kShortRangeStages) sum += stage_seconds(stage);
    return sum;
  };
  const double tree_t0 = stage_seconds("tree");
  const double pm_t0 = stage_seconds("pm");
  const double short_t0 = chain_seconds();
  if (!forces_ready_) compute_forces(false);
  const double a0 = a_;
  const double a1 = a_ + da_;
  const double amid = 0.5 * (a0 + a1);

  {
    const obs::TraceSpan span("core.kick");
    kick(cfg_.cosmo.kick_factor(a0, amid), a0);
  }
  {
    const obs::TraceSpan span("core.drift");
    drift(a0, a1);
  }
  a_ = a1;
  compute_forces(/*corrector=*/true);
  {
    const obs::TraceSpan span("core.kick");
    kick(cfg_.cosmo.kick_factor(amid, a1), a1);
  }
  ++steps_taken_;

  StepStats stats;
  stats.step = steps_taken_;
  stats.a0 = a0;
  stats.a1 = a1;
  stats.da = da_;
  stats.z = redshift();
  stats.wall_seconds = util::wtime() - t0;
  stats.max_velocity = max_velocity();
  stats.max_acceleration = max_acceleration();
  stats.tree_builds = static_cast<int>(domain_->stats().builds - dom0.builds);
  stats.tree_reuses = static_cast<int>(domain_->stats().reuses - dom0.reuses);
  stats.tree_seconds = stage_seconds("tree") - tree_t0;
  if (engine_) {
    // Per-shard trees count alongside the global one (which the sharded
    // pm_pp graph no longer builds; the fmm and treepm graphs build both).
    const shard::EngineStats& e = engine_->stats();
    stats.tree_builds += static_cast<int>(e.tree_builds - eng0.tree_builds);
    stats.tree_reuses += static_cast<int>(e.tree_reuses - eng0.tree_reuses);
    stats.tree_seconds += e.domain_seconds - eng0.domain_seconds;
    stats.shard_migrated =
        static_cast<std::int64_t>(e.migrated - eng0.migrated);
    stats.shard_ghosts =
        static_cast<std::int64_t>(e.ghost_copies - eng0.ghost_copies);
    stats.shard_migrate_seconds = e.migrate_seconds - eng0.migrate_seconds;
    stats.shard_exchange_seconds = e.exchange_seconds - eng0.exchange_seconds;
  }
  stats.pm_seconds = stage_seconds("pm") - pm_t0;
  stats.short_range_seconds = chain_seconds() - short_t0;
  const auto tally = [&stats](const ParticleSet& p, bool hydro) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double m = p.mass[i];
      const double v2 = double(p.vx[i]) * p.vx[i] + double(p.vy[i]) * p.vy[i] +
                        double(p.vz[i]) * p.vz[i];
      stats.kinetic_energy += 0.5 * m * v2;
      if (hydro) stats.thermal_energy += m * p.u[i];
    }
  };
  tally(dm_, false);
  tally(gas_, cfg_.hydro);
  return stats;
}

void Solver::run() {
  initialize();
  for (int s = 0; s < cfg_.n_steps; ++s) step();
}

double Solver::max_velocity() const {
  double v2max = 0.0;
  for (const ParticleSet* p : {&dm_, &gas_}) {
    for (std::size_t i = 0; i < p->size(); ++i) {
      const double v2 = double(p->vx[i]) * p->vx[i] +
                        double(p->vy[i]) * p->vy[i] +
                        double(p->vz[i]) * p->vz[i];
      v2max = std::max(v2max, v2);
    }
  }
  return std::sqrt(v2max);
}

double Solver::max_acceleration() const {
  if (!forces_ready_) {
    throw std::logic_error(
        "Solver::max_acceleration() requires a force evaluation "
        "(prepare_forces())");
  }
  // The same per-particle acceleration kick() applies, at the current a.
  double g2max = 0.0;
  const auto scan = [&](const ParticleSet& p, std::size_t base, bool hydro) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      const std::size_t g = base + i;
      double ax = (grav_accel_pm_[g].x + grav_ax_[g]) / a_;
      double ay = (grav_accel_pm_[g].y + grav_ay_[g]) / a_;
      double az = (grav_accel_pm_[g].z + grav_az_[g]) / a_;
      if (hydro) {
        ax += p.ax[i];
        ay += p.ay[i];
        az += p.az[i];
      }
      g2max = std::max(g2max, ax * ax + ay * ay + az * az);
    }
  };
  scan(dm_, 0, false);
  scan(gas_, dm_.size(), cfg_.hydro);
  return std::sqrt(g2max);
}

Solver::Diagnostics Solver::diagnostics() const {
  Diagnostics d;
  const double dx = cfg_.box / cfg_.np_side;
  const auto tally = [&](const ParticleSet& p, bool hydro, double offset_cells) {
    std::size_t i = 0;
    for (int ix = 0; ix < cfg_.np_side; ++ix) {
      for (int iy = 0; iy < cfg_.np_side; ++iy) {
        for (int iz = 0; iz < cfg_.np_side; ++iz, ++i) {
          const double m = p.mass[i];
          d.total_mass += m;
          const double v2 = double(p.vx[i]) * p.vx[i] + double(p.vy[i]) * p.vy[i] +
                            double(p.vz[i]) * p.vz[i];
          d.kinetic_energy += 0.5 * m * v2;
          d.momentum[0] += m * p.vx[i];
          d.momentum[1] += m * p.vy[i];
          d.momentum[2] += m * p.vz[i];
          if (hydro) {
            d.thermal_energy += m * p.u[i];
            d.mean_gas_density += p.rho[i];
          }
          const double qx = (ix + 0.5 + offset_cells) * dx;
          const double qy = (iy + 0.5 + offset_cells) * dx;
          const double qz = (iz + 0.5 + offset_cells) * dx;
          const auto disp = sph::min_image(
              util::Vec3d{p.x[i] - qx, p.y[i] - qy, p.z[i] - qz}, cfg_.box);
          d.max_displacement = std::max(d.max_displacement, norm(disp));
        }
      }
    }
  };
  tally(dm_, false, 0.0);
  if (cfg_.hydro) {
    tally(gas_, true, 0.5);
    if (gas_.size() > 0) d.mean_gas_density /= static_cast<double>(gas_.size());
  }
  return d;
}

}  // namespace hacc::core

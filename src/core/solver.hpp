#pragma once

/// \file
/// The CRK-HACC solver: two particle species (dark matter: gravity only;
/// baryons: gravity + CRK-SPH hydro), KDK leapfrog in the scale factor from
/// z_init to z_final — the paper's benchmark runs five time steps from
/// z = 200 to z = 50 in adiabatic mode (§3.4.3).
///
/// Variable conventions (documented in DESIGN.md):
///   - `x`  comoving position in [0, box)
///   - `v`  peculiar velocity a*dx/dt, with Hubble drag applied as an exact
///          operator-split factor a0/a1 per interval
///   - `u`  specific internal energy, adiabatic expansion applied as the
///          exact factor (a0/a1)^{3(gamma-1)} per drift
///
/// Gravity uses the Gaussian-split PM + short-range polynomial P-P pair;
/// hydro forces act directly on v.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/particles.hpp"
#include "domain/domain.hpp"
#include "fmm/fmm.hpp"
#include "gravity/pm.hpp"
#include "gravity/pp_short.hpp"
#include "ic/cosmology.hpp"
#include "ic/power_spectrum.hpp"
#include "ic/zeldovich.hpp"
#include "sched/task_graph.hpp"
#include "shard/engine.hpp"
#include "sph/pipeline.hpp"
#include "xsycl/queue.hpp"

namespace hacc::core {

/// Per-kernel communication-variant selection: the mechanism behind the
/// paper's "specialized" configurations (§6), where each kernel can use the
/// variant best suited to the target architecture.
struct VariantSelection {
  xsycl::CommVariant geometry = xsycl::CommVariant::kSelect;
  xsycl::CommVariant corrections = xsycl::CommVariant::kSelect;
  xsycl::CommVariant extras = xsycl::CommVariant::kSelect;
  xsycl::CommVariant acceleration = xsycl::CommVariant::kSelect;
  xsycl::CommVariant energy = xsycl::CommVariant::kSelect;
  xsycl::CommVariant gravity = xsycl::CommVariant::kSelect;

  /// The same variant for every kernel (the paper's "portable" baselines).
  static VariantSelection uniform(xsycl::CommVariant v) {
    return {v, v, v, v, v, v};
  }
};

/// Selectable gravity solver:
///   - `kPmPp`   — spectral PM long range + direct particle-particle short
///                 range over RCB leaf pairs (the paper's configuration).
///   - `kFmm`    — mesh-free tree multipoles: near field direct, far field
///                 via monopole+quadrupole M2P under the minimum-image
///                 convention.
///   - `kTreePm` — PM long range + MAC-accelerated short range: close leaf
///                 pairs direct, the rest of the cutoff sphere via
///                 multipoles.
enum class GravityBackend { kPmPp, kFmm, kTreePm };

/// The config-key spelling of a backend ("pm_pp" | "fmm" | "treepm").
const char* to_string(GravityBackend backend);

/// Parses "pm_pp" | "fmm" | "treepm"; returns false (out untouched) for
/// unknown names — the util::Config wiring used by examples and tools.
bool parse_gravity_backend(const std::string& name, GravityBackend& out);

/// Stage-overlap policy for the step propagator (config key sched.overlap):
///   - `kAuto` — overlap iff the pool has more than one worker (the default:
///               a 1-thread run stays strictly serial, so it is bit-identical
///               to the pre-propagator code and serves as the determinism
///               oracle).
///   - `kOn`   — always run the long-range PM stage concurrently with the
///               tree/SPH/short-range chain.
///   - `kOff`  — strictly serial declaration-order execution.
enum class OverlapMode { kAuto, kOn, kOff };

/// The config-key spelling of a mode ("auto" | "on" | "off").
const char* to_string(OverlapMode mode);

/// Parses "auto" | "on" | "off"; returns false (out untouched) otherwise.
bool parse_overlap_mode(const std::string& name, OverlapMode& out);

/// Initial-condition family (config key ic.kind):
///   - `kZeldovich` — cosmological Zel'dovich displacements (the default).
///   - `kSedov`     — unperturbed lattice at rest with the Sedov–Taylor
///                    blast energy deposited thermally at the box center
///                    (the analytic-oracle scenario; docs/PHYSICS checks).
enum class InitialConditions { kZeldovich, kSedov };

/// The config-key spelling of an IC family ("zeldovich" | "sedov").
const char* to_string(InitialConditions ic);

/// Parses "zeldovich" | "sedov"; returns false (out untouched) otherwise.
bool parse_initial_conditions(const std::string& name, InitialConditions& out);

/// Full simulation configuration: problem size, cosmology, gravity solver
/// selection, and the per-kernel execution knobs of the portability study.
/// Every field maps to a config key documented in docs/CONFIG.md.
struct SimConfig {
  /// Named scenario preset this config was derived from (run module);
  /// informational — the physics is entirely determined by the fields below.
  std::string scenario = "paper-benchmark";

  int np_side = 12;             ///< particles per side, per species
  double box = 25.0;            ///< comoving box (code length units)
  double z_init = 200.0;        ///< starting redshift
  double z_final = 50.0;        ///< target redshift
  int n_steps = 5;              ///< fixed-Δa step count (the paper's benchmark)
  ic::Cosmology cosmo;          ///< flat ΛCDM background
  double sigma_norm = 1.0;      ///< power-spectrum normalization at r_norm
  double r_norm = 8.0;          ///< normalization radius
  std::uint64_t seed = 42;      ///< IC random seed (counter-based RNG)

  bool hydro = true;              ///< evolve a baryon species with CRK-SPH
  double baryon_fraction = 0.15;  ///< mass fraction in the baryon species
  double u_init = 1e-4;           ///< initial specific internal energy

  /// IC family (config key ic.kind).  Physics-affecting: both fields below
  /// are part of config_signature().
  InitialConditions ic_kind = InitialConditions::kZeldovich;
  /// Blast energy for `kSedov`, deposited as thermal energy into the gas
  /// particles within ~1.5 lattice spacings of the box center (config key
  /// ic.sedov_energy; ignored for Zel'dovich ICs).
  double sedov_energy = 1.0;

  int pm_grid = 32;  ///< PM mesh cells per side (power of two)
  /// PM force derivation (config key gravity.pm_gradient): "spectral" is the
  /// accuracy reference; "fd4"/"fd6" differentiate the real-space potential,
  /// cutting the inverse transforms per solve from three to one.
  gravity::PmGradient pm_gradient = gravity::PmGradient::kSpectral;
  double r_split_cells = 1.25;  ///< Gaussian split scale in PM cells
  double pp_cut_factor = 5.0;   ///< short-range cutoff in units of r_split
  int poly_order = 5;           ///< HACC_CUDA_POLY_ORDER
  double softening_cells = 0.2; ///< Plummer softening in PM cells

  GravityBackend gravity_backend = GravityBackend::kPmPp;
  double fmm_theta = 0.5;  ///< multipole opening angle for fmm/treepm

  VariantSelection variants;  ///< per-kernel communication variants
  int sub_group_size = 32;    ///< HACC_SYCL_SG_SIZE: a power of two in [2, 64]
  int sg_per_wg = 4;          ///< block size 128 / warp 32 (HACC_CUDA_BLOCK_SIZE)
  int leaf_size = 32;         ///< RCB tree leaf capacity

  /// Interaction-domain reuse knobs (config keys domain.skin /
  /// domain.rebuild).  Execution tuning, not physics: pair enumeration stays
  /// exact under reuse, so — like `variants` — they are excluded from
  /// config_signature() and may change across a restart.
  double domain_skin = 0.0;  ///< Verlet skin; reuse while drift <= skin / 2
  domain::RebuildPolicy domain_rebuild = domain::RebuildPolicy::kAlways;

  /// Step-propagator stage overlap (config key sched.overlap).  Execution
  /// tuning, not physics: the stage graph's dependency edges cover every
  /// read-after-write, so overlap changes wall-clock only — like `variants`
  /// it is excluded from config_signature().
  OverlapMode sched_overlap = OverlapMode::kAuto;

  /// Multi-domain spatial sharding (config keys shard.count /
  /// shard.ghost_factor).  With count > 1 the box is decomposed into that
  /// many sub-domains, each owning its own interaction domain over resident
  /// particles plus an exact ghost halo (src/shard).  Execution tuning like
  /// `variants`: the short-range pair set is exact for any count, so these
  /// are excluded from config_signature() and may change across a restart —
  /// but note the float summation order (and hence the low bits of the
  /// forces) legitimately differs between count == 1 and count > 1; see
  /// docs/CONFIG.md.
  int shard_count = 1;
  double shard_ghost_factor = 1.0;
};

/// Hash of every physics-affecting SimConfig field (particle counts, box,
/// cosmology, seed, gravity solver selection).  Stored in run checkpoints so
/// a restart against a different configuration is rejected instead of
/// silently producing a diverging run.  Execution-tuning knobs (variants,
/// sub-group sizes, thread counts) are deliberately excluded: they may be
/// changed across a restart.
std::uint64_t config_signature(const SimConfig& cfg);

/// What one KDK step did — the record the scenario runner consumes for
/// adaptive stepping, JSONL logs, and benchmarks.  All state-derived fields
/// (velocities, accelerations, energies) describe the post-step state.
struct StepStats {
  int step = 0;          ///< 1-based step index after this step
  double a0 = 0.0;       ///< scale factor before the step
  double a1 = 0.0;       ///< scale factor after the step
  double da = 0.0;       ///< Δa taken
  double z = 0.0;        ///< redshift after the step
  double wall_seconds = 0.0;     ///< wall-clock cost of the step
  double max_velocity = 0.0;     ///< max |v| over both species
  double max_acceleration = 0.0; ///< max total kick acceleration |dv/dt|
  double kinetic_energy = 0.0;   ///< Σ m v²/2 (peculiar)
  double thermal_energy = 0.0;   ///< Σ m u (baryons)
  int tree_builds = 0;           ///< shared-domain tree rebuilds this step
  int tree_reuses = 0;           ///< Verlet-skin reuses this step
  double tree_seconds = 0.0;     ///< wall seconds in tree build/refresh
  double pm_seconds = 0.0;       ///< wall seconds in the propagator's pm stage
  /// Wall seconds in the tree-walk chain stages (sph + fmm build +
  /// short-range P-P + far field).
  double short_range_seconds = 0.0;
  /// Wall-clock won by stage overlap this step: the back-to-back sum of
  /// stage walls minus the actual graph walls (zero when running serially).
  double overlap_seconds = 0.0;
  /// Sharded-run accounting (all zero when shard.count == 1): particles that
  /// changed owner, halo slots filled, and the wall cost of migration and
  /// ghost traffic this step.
  std::int64_t shard_migrated = 0;
  std::int64_t shard_ghosts = 0;
  double shard_migrate_seconds = 0.0;
  double shard_exchange_seconds = 0.0;
};

/// Cumulative wall of one propagator stage (sched::StageTiming) over every
/// force evaluation so far.
struct StageTotal {
  double seconds = 0.0;
  std::uint64_t runs = 0;
};

/// Stage name ("assemble", "tree", "shard_update", "sph", "pm",
/// "fmm_build", "short_range", "far_field") -> its cumulative wall.  Only
/// stages that have run appear.
using StageTotals = std::map<std::string, StageTotal, std::less<>>;

/// The time integrator.  Lifecycle: construct, then exactly one of
/// initialize() (fresh Zel'dovich ICs) or restore() (checkpoint state),
/// then step() repeatedly — or run() for the one-shot construct-to-finish
/// drive.  Double initialization and stepping an uninitialized solver throw
/// std::logic_error.
class Solver {
 public:
  /// Throws std::invalid_argument for a sub_group_size that is not a power
  /// of two in [2, 64].
  explicit Solver(const SimConfig& cfg,
                  util::ThreadPool& pool = util::ThreadPool::global());

  /// Generates Zel'dovich ICs for both species and evaluates initial forces.
  /// Throws std::logic_error if the solver already holds a state (double
  /// initialization would silently discard the evolved run).
  void initialize();

  /// Adopts checkpointed particle state instead of generating ICs: the
  /// restart path.  Species sizes must match the configuration (np_side³
  /// dark-matter particles; np_side³ baryons when hydro is on, none
  /// otherwise) — throws std::invalid_argument otherwise, and
  /// std::logic_error when a state is already present.  Forces are
  /// recomputed lazily on the next step()/prepare_forces().
  void restore(ParticleSet dm, ParticleSet gas, double scale_factor,
               int steps_taken);

  /// True once initialize() or restore() has installed a particle state.
  bool initialized() const { return initialized_; }

  /// Ensures force arrays match the current particle state (no-op when they
  /// already do).  Used after restore() before querying accelerations.
  void prepare_forces();

  /// Advances one KDK step over the current Δa and reports what happened.
  /// Throws std::logic_error before initialize()/restore().
  StepStats step();

  /// initialize() + all n_steps fixed-Δa steps (throws, like initialize(),
  /// if the solver already holds a state).
  void run();

  /// Overrides the Δa of subsequent steps (adaptive stepping).  Throws
  /// std::invalid_argument unless 0 < da.
  void set_time_step(double da);
  /// The Δa the next step() will take.
  double time_step() const { return da_; }

  double scale_factor() const { return a_; }
  double redshift() const { return ic::Cosmology::z_of_a(a_); }
  int steps_taken() const { return steps_taken_; }

  const SimConfig& config() const { return cfg_; }
  ParticleSet& gas() { return gas_; }
  const ParticleSet& gas() const { return gas_; }
  ParticleSet& dm() { return dm_; }
  const ParticleSet& dm() const { return dm_; }

  /// Per-kernel walls live in the queue's LaunchStats history.
  xsycl::Queue& queue() { return queue_; }

  /// Per-stage walls: every propagator stage's cumulative total, filled
  /// from each force evaluation's sched::RunResult.  StepStats'
  /// tree/pm/short_range seconds are per-step diffs of these.
  const StageTotals& stage_totals() const { return stage_totals_; }
  /// Cumulative seconds of one stage (0 when it never ran).
  double stage_seconds(std::string_view stage) const;

  /// Combined-species (dm then gas) gravity accelerations from the most
  /// recent force evaluation: long-range mesh (zero for the fmm backend)
  /// plus short-range/far-field tree contributions.
  std::vector<util::Vec3d> gravity_accelerations() const;

  /// Max |v| over both species (adaptive step control).
  double max_velocity() const;

  /// Max over particles of the total kick acceleration |dv/dt| — gravity
  /// scaled by 1/a as in kick(), plus hydro for baryons.  Requires a force
  /// evaluation (prepare_forces()); throws std::logic_error otherwise.
  double max_acceleration() const;

  /// Far-field M2P work performed by the fmm/treepm backends so far.
  const xsycl::OpCounters& fmm_ops() const { return fmm_ops_; }

  /// True when the step propagator runs the PM stage concurrently with the
  /// tree/SPH/short-range chain (resolved from SimConfig::sched_overlap and
  /// the pool size at construction).
  bool overlap_enabled() const { return overlap_enabled_; }

  /// The shared interaction domain: one tree build (or Verlet-skin reuse)
  /// per force evaluation, consumed by SPH and gravity alike.
  const domain::InteractionDomain& interaction_domain() const {
    return *domain_;
  }

  /// The sharded force-evaluation engine, or nullptr when shard.count == 1
  /// (or when nothing shards: the fmm and treepm backends without hydro
  /// keep their global tree for everything).  Tests and benches read
  /// residency, halo, and traffic statistics through this.
  const shard::ShardEngine* shard_engine() const { return engine_.get(); }

  /// Conserved-quantity summary of the current particle state.
  struct Diagnostics {
    double total_mass = 0.0;
    double kinetic_energy = 0.0;   ///< Σ m v²/2 (peculiar)
    double thermal_energy = 0.0;   ///< Σ m u (baryons)
    double momentum[3] = {0, 0, 0};
    double mean_gas_density = 0.0;
    double max_displacement = 0.0;  ///< vs the unperturbed lattice
  };
  Diagnostics diagnostics() const;

 private:
  void compute_forces(bool corrector);
  void initialize_zeldovich();
  void initialize_sedov();
  void assemble_gravity_inputs();
  gravity::GravityArrays gravity_arrays();
  gravity::PpOptions pp_options(double g_code) const;
  void kick(double k_factor, double a_for_grav);
  void drift(double a0, double a1);
  void update_smoothing_lengths();
  void require_initialized(const char* what) const;

  SimConfig cfg_;
  util::ThreadPool* pool_;
  xsycl::Queue queue_;

  ParticleSet dm_;
  ParticleSet gas_;
  double a_ = 0.0;
  double da_ = 0.0;
  int steps_taken_ = 0;
  bool initialized_ = false;
  bool forces_ready_ = false;
  // Restart: reuse the checkpointed hydro kernel outputs for the first
  // force evaluation (the corrector state they came from is gone).
  bool use_restored_hydro_forces_ = false;
  double h0_ = 0.0;  // fiducial smoothing length

  // Hydro leaf-pair scratch of the unsharded sph stage: filled by one tree
  // walk per force evaluation (sph::collect_gas_pairs) and fed to all five
  // SPH kernels; capacity persists across evaluations.
  // Written only by the driver thread (the streamed traversal visits pairs
  // on the calling thread); worker threads read it through PairSource during
  // kernel launches, after the fill completes — so it needs no lock, but it
  // also makes the Solver thread-compatible rather than thread-safe
  // (docs/CONCURRENCY.md): one driver thread per Solver instance.
  std::vector<tree::LeafPair> sph_pairs_scratch_;

  // Combined-species gravity scratch.
  std::vector<util::Vec3d> grav_pos_;
  std::vector<double> grav_mass_d_;
  std::vector<util::Vec3d> grav_accel_pm_;
  std::vector<float> grav_x_, grav_y_, grav_z_, grav_mass_;
  std::vector<float> grav_ax_, grav_ay_, grav_az_;
  std::unique_ptr<gravity::PmSolver> pm_;
  std::unique_ptr<gravity::PolyShortForce> poly_;
  std::unique_ptr<domain::InteractionDomain> domain_;
  // Sharded evaluation (shard.count > 1): the SPH chain, and for pm_pp the
  // short-range gravity, run per shard; the canonical sets, kick/drift, and
  // checkpointing never see shards.  The fmm and treepm backends keep their
  // gravity on the global tree (a far field is not shardable by a halo).
  std::unique_ptr<shard::ShardEngine> engine_;
  xsycl::OpCounters fmm_ops_;

  // The step propagator: each force evaluation is a named-stage task graph
  // (assemble → tree → sph → short-range chain, with the long-range pm stage
  // hanging off assemble alone) run by this executor.  With overlap enabled
  // the executor owns one lane thread, so pm executes concurrently with the
  // chain; otherwise zero lanes — strict declaration-order serial execution,
  // bit-identical to the pre-propagator code path.
  std::unique_ptr<sched::StageExecutor> exec_;
  bool overlap_enabled_ = false;
  // Cumulative propagator stage walls; step() diffs them.
  StageTotals stage_totals_;
  double overlap_seconds_total_ = 0.0;
};

}  // namespace hacc::core

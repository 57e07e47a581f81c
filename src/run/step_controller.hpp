#pragma once

/// \file
/// Time-step control for scenario runs.  Two modes:
///
/// - **fixed** — the paper's benchmark discipline: Δa = (a_final - a_init) /
///   n_steps, exactly n_steps steps.  The controller leaves the solver's own
///   Δa untouched so a fixed-mode scenario run is bit-identical to
///   Solver::run().
/// - **adaptive** — Δa limited so no particle drifts more than a configured
///   fraction of the mean interparticle spacing per step (a CFL-style bound
///   on v_max) and so the kick-induced displacement stays below the same
///   fraction (an acceleration bound).  Both limits are evaluated in the
///   comoving KDK variables the solver integrates, then clamped to
///   [da_min, da_max] and to the remaining distance to a_final.

#include <string>

#include "core/solver.hpp"

namespace hacc::run {

/// Time-stepping discipline of a scenario.
enum class StepMode { kFixed, kAdaptive };

/// The config-key spelling of a mode ("fixed" | "adaptive").
const char* to_string(StepMode mode);

/// Parses "fixed" | "adaptive"; returns false (out untouched) for unknown
/// names — the util::Config wiring used by hacc_run and the examples.
bool parse_step_mode(const std::string& name, StepMode& out);

/// True once a run at scale factor `a` has arrived at `target`.  One part in
/// 10^12 absorbs the rounding of a += da: fixed-mode steps can sum to just
/// below a_final (14 steps from z = 200 end a few ulps short of 1/11, the
/// a of z = 10).  StepController::done() and the runner's output triggers
/// share it.
inline bool reached(double a, double target) { return a >= target * (1.0 - 1e-12); }

/// Knobs of the adaptive limiter (ignored in fixed mode except `mode`).
struct StepControllerOptions {
  StepMode mode = StepMode::kFixed;
  /// Max drift per step as a fraction of the mean interparticle spacing.
  double displacement_fraction = 0.2;
  double da_min = 1e-6;  ///< floor: guarantees forward progress
  double da_max = 0.0;   ///< cap on Δa; 0 derives (a_final - a_init) / 4
};

/// Stateless Δa proposer: every call derives the next step size from the
/// current solver state, so a restarted run proposes exactly the same
/// sequence as the uninterrupted one.
class StepController {
 public:
  StepController(const core::SimConfig& sim, const StepControllerOptions& opt);

  /// Scale factor the run integrates toward (from SimConfig::z_final).
  double a_final() const { return a_final_; }

  /// True when the run is complete: fixed mode after n_steps steps,
  /// adaptive mode once a reaches a_final.
  bool done(double a, int steps_taken) const;

  /// Proposes Δa for the next step.  `fixed_da` is the solver's current
  /// fixed step (returned unchanged in fixed mode); `max_velocity` and
  /// `max_acceleration` come from the solver's current force evaluation.
  double next_da(double a, double fixed_da, double max_velocity,
                 double max_acceleration) const;

  const StepControllerOptions& options() const { return opt_; }

 private:
  StepControllerOptions opt_;
  ic::Cosmology cosmo_;
  double spacing_ = 0.0;  // mean interparticle separation
  double a_final_ = 0.0;
  int n_steps_ = 0;
};

}  // namespace hacc::run

#include "run/step_controller.hpp"

#include <algorithm>
#include <cmath>

namespace hacc::run {

StepController::StepController(const core::SimConfig& sim,
                               const StepControllerOptions& opt)
    : opt_(opt), cosmo_(sim.cosmo), n_steps_(sim.n_steps) {
  spacing_ = sim.box / sim.np_side;
  a_final_ = ic::Cosmology::a_of_z(sim.z_final);
  if (opt_.da_max <= 0.0) {
    opt_.da_max = (a_final_ - ic::Cosmology::a_of_z(sim.z_init)) / 4.0;
  }
}

bool StepController::done(double a, int steps_taken) const {
  if (opt_.mode == StepMode::kFixed) return steps_taken >= n_steps_;
  return reached(a, a_final_);
}

double StepController::next_da(double a, double fixed_da, double max_velocity,
                               double max_acceleration) const {
  if (opt_.mode == StepMode::kFixed) return fixed_da;

  // Comoving KDK rates at the current epoch: a drift advances x by
  // v dtau with dtau = da / (a^2 E), a kick advances v by g dt_k with
  // dt_k = da / (a E).  Bounding both displacement contributions by
  // eps * spacing gives the two limits below.
  const double eps = opt_.displacement_fraction;
  const double E = cosmo_.e_of_a(a);
  constexpr double kTiny = 1e-30;
  const double da_drift =
      eps * spacing_ * a * a * E / std::max(max_velocity, kTiny);
  // Displacement from a kick over one step: ~ (g dt_k) dtau =
  // g da^2 / (a^3 E^2)  =>  da = a E sqrt(eps spacing a / g).
  const double da_kick =
      a * E * std::sqrt(eps * spacing_ * a / std::max(max_acceleration, kTiny));

  double da = std::min(da_drift, da_kick);
  da = std::min(da, opt_.da_max);
  da = std::max(da, opt_.da_min);
  // Never overshoot the target epoch (da_min may not apply to the last step).
  return std::min(da, a_final_ - a);
}

}  // namespace hacc::run

#pragma once

#include <memory>
#include <vector>

#include "core/transport_solver.hpp"

namespace unsnap::core {

/// Backward-Euler time integration of the transport equation — SNAP's
/// optional time dimension (the paper solves the stationary problem; this
/// is the natural extension a production code carries):
///
///   (1/(v_g dt)) (psi^{n+1} - psi^n) + Omega . grad psi^{n+1}
///       + sigt psi^{n+1} = q + scattering(psi^{n+1})
///
/// folds into the stationary solver as sigt' = sigt + 1/(v_g dt) plus a
/// per-angle source psi^n / (v_g dt); every step runs the standard source
/// iteration warm-started from the previous step.
class TimeDependentSolver {
 public:
  struct StepResult {
    IterationResult iteration;
    double time = 0.0;          // after the step
    double total_density = 0.0; // sum_g (1/v_g) Int phi_g dV after the step
  };

  /// `velocities` holds one particle speed per group (a lowered
  /// library's `velocity`); dt is the step. The cross sections and source
  /// come from `problem`.
  TimeDependentSolver(std::shared_ptr<const Discretization> disc,
                      const snap::Input& input, const ProblemData& problem,
                      std::vector<double> velocities, double dt);

  /// Over the problem data SNAP's generator makes from `input`.
  TimeDependentSolver(std::shared_ptr<const Discretization> disc,
                      const snap::Input& input,
                      std::vector<double> velocities, double dt);

  /// Set a uniform isotropic initial angular flux psi = value (also
  /// refreshes the scalar flux to match).
  void set_initial_condition(double value);

  /// Advance one time step.
  StepResult step();

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] double dt() const { return dt_; }
  /// Total particle density sum_g (1/v_g) Int phi_g dV of the current state.
  [[nodiscard]] double total_density() const;

  [[nodiscard]] TransportSolver& solver() { return *solver_; }
  [[nodiscard]] const TransportSolver& solver() const { return *solver_; }

 private:
  std::vector<double> velocities_;
  double dt_;
  double time_ = 0.0;
  std::unique_ptr<TransportSolver> solver_;

  void fold_time_absorption(int ng);
  void refresh_time_source();
};

}  // namespace unsnap::core

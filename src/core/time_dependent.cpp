#include "core/time_dependent.hpp"

#include "util/assert.hpp"

namespace unsnap::core {

TimeDependentSolver::TimeDependentSolver(
    std::shared_ptr<const Discretization> disc, const snap::Input& input,
    const ProblemData& problem, std::vector<double> velocities, double dt)
    : velocities_(std::move(velocities)), dt_(dt) {
  require(dt > 0.0, "TimeDependentSolver: dt must be positive");
  require(static_cast<int>(velocities_.size()) == input.ng,
          "TimeDependentSolver: one velocity per group required");
  for (const double v : velocities_)
    require(v > 0.0, "TimeDependentSolver: velocities must be positive");

  solver_ = std::make_unique<TransportSolver>(std::move(disc), input, problem);
  fold_time_absorption(input.ng);
}

TimeDependentSolver::TimeDependentSolver(
    std::shared_ptr<const Discretization> disc, const snap::Input& input,
    std::vector<double> velocities, double dt)
    : TimeDependentSolver(disc, input, ProblemData(*disc, input),
                          std::move(velocities), dt) {}

void TimeDependentSolver::fold_time_absorption(int ng) {
  // sigt' = sigt + 1/(v_g dt). The absorption table stays untouched so
  // balance diagnostics keep reporting the physical absorption.
  ProblemData& problem = solver_->problem();
  const int ne = solver_->discretization().num_elements();
  for (int e = 0; e < ne; ++e)
    for (int g = 0; g < ng; ++g)
      problem.sigt_eg(e, g) += 1.0 / (velocities_[g] * dt_);

  solver_->angular_source();  // allocate; refreshed before every step
}

void TimeDependentSolver::set_initial_condition(double value) {
  solver_->angular_flux().fill(value);
  // Scalar flux of an isotropic field equals the field (weights sum to 1).
  solver_->scalar_flux().fill(value);
}

void TimeDependentSolver::refresh_time_source() {
  const Discretization& disc = solver_->discretization();
  AngularFlux& qang = solver_->angular_source();
  const AngularFlux& psi = solver_->angular_flux();
  const int nang = disc.nang();
  const int ne = disc.num_elements();
  const int ng = solver_->input().ng;
  const int n = disc.num_nodes();

#pragma omp parallel for collapse(2) schedule(static)
  for (int oct = 0; oct < angular::kOctants; ++oct)
    for (int a = 0; a < nang; ++a)
      for (int e = 0; e < ne; ++e)
        for (int g = 0; g < ng; ++g) {
          const double inv_vdt = 1.0 / (velocities_[g] * dt_);
          const double* old = psi.at(oct, a, e, g);
          double* q = qang.at(oct, a, e, g);
#pragma omp simd
          for (int i = 0; i < n; ++i) q[i] = inv_vdt * old[i];
        }
}

TimeDependentSolver::StepResult TimeDependentSolver::step() {
  refresh_time_source();
  StepResult result;
  result.iteration = solver_->run();
  time_ += dt_;
  result.time = time_;
  result.total_density = total_density();
  return result;
}

double TimeDependentSolver::total_density() const {
  const Discretization& disc = solver_->discretization();
  const ElementIntegrals& ints = disc.integrals();
  const NodalField& phi = solver_->scalar_flux();
  const int ng = solver_->input().ng;
  const int n = disc.num_nodes();
  double density = 0.0;
  for (int e = 0; e < disc.num_elements(); ++e) {
    const double* w = ints.node_weights(e);
    for (int g = 0; g < ng; ++g) {
      const double* ph = phi.at(e, g);
      double acc = 0.0;
      for (int i = 0; i < n; ++i) acc += w[i] * ph[i];
      density += acc / velocities_[g];
    }
  }
  return density;
}

}  // namespace unsnap::core

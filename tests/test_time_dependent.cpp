#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/time_dependent.hpp"

namespace unsnap::core {
namespace {

snap::Input td_input() {
  snap::Input input;
  input.dims = {3, 3, 3};
  input.order = 1;
  input.nang = 2;
  input.ng = 1;
  input.twist = 0.001;
  input.shuffle_seed = 5;
  input.mat_opt = 0;
  input.src_opt = 0;
  input.scattering_ratio = 0.4;
  input.fixed_iterations = false;
  input.epsi = 1e-8;
  input.iitm = 200;
  input.oitm = 20;
  input.num_threads = 2;
  return input;
}

TEST(TimeDependent, RejectsBadSetup) {
  const snap::Input input = td_input();
  const auto disc = std::make_shared<const Discretization>(input);
  EXPECT_THROW(
      TimeDependentSolver(disc, input, {1.0, 1.0}, 0.1),  // ng mismatch
      InvalidInput);
  EXPECT_THROW(TimeDependentSolver(disc, input, {1.0}, -0.1), InvalidInput);
  EXPECT_THROW(TimeDependentSolver(disc, input, {0.0}, 0.1), InvalidInput);
}

TEST(TimeDependent, SnapVelocitiesDecreaseWithGroup) {
  const auto v = xs::Library::synthetic(4, 0.5).velocity;
  ASSERT_EQ(v.size(), 4u);
  for (std::size_t g = 1; g < v.size(); ++g) EXPECT_LT(v[g], v[g - 1]);
}

TEST(TimeDependent, InitialConditionSetsDensity) {
  const snap::Input input = td_input();
  const auto disc = std::make_shared<const Discretization>(input);
  TimeDependentSolver td(disc, input, {2.0}, 0.1);
  td.set_initial_condition(3.0);
  // Unit-volume domain: density = (1/v) * phi * V = 3 / 2 (up to the
  // O(twist^2) volume perturbation of the trilinear twisted mesh).
  EXPECT_NEAR(td.total_density(), 1.5, 1e-6);
}

TEST(TimeDependent, ApproachesSteadyState) {
  // With a constant source the transient must relax to the stationary
  // solver's answer.
  snap::Input input = td_input();
  TransportSolver steady(input);
  steady.run();

  const auto disc = std::make_shared<const Discretization>(input);
  TimeDependentSolver td(disc, input, {1.0}, 0.5);
  double density = 0.0;
  for (int n = 0; n < 40; ++n) density = td.step().total_density;
  (void)density;

  const auto& phi_td = td.solver().scalar_flux();
  const auto& phi_ss = steady.scalar_flux();
  ASSERT_EQ(phi_td.size(), phi_ss.size());
  for (std::size_t i = 0; i < phi_ss.size(); ++i)
    EXPECT_NEAR(phi_td.data()[i], phi_ss.data()[i],
                1e-4 * (1.0 + std::fabs(phi_ss.data()[i])));
}

TEST(TimeDependent, SourceFreeDecayIsMonotone) {
  snap::Input input = td_input();
  const auto disc = std::make_shared<const Discretization>(input);
  TimeDependentSolver td(disc, input, {1.0}, 0.25);
  td.solver().problem().qext.fill(0.0);
  td.set_initial_condition(1.0);
  double previous = td.total_density();
  EXPECT_GT(previous, 0.0);
  for (int n = 0; n < 10; ++n) {
    const double density = td.step().total_density;
    EXPECT_LT(density, previous);
    previous = density;
  }
  EXPECT_LT(previous, 0.2);  // leakage + absorption drained the box
}

TEST(TimeDependent, FasterParticlesDecayFasterInTime) {
  // Same number of steps and dt: higher speed means more mean free paths
  // per unit time, so the population drains faster.
  auto final_density = [](double v) {
    snap::Input input = td_input();
    const auto disc = std::make_shared<const Discretization>(input);
    TimeDependentSolver td(disc, input, {v}, 0.25);
    td.solver().problem().qext.fill(0.0);
    td.set_initial_condition(1.0);
    double d = 0.0;
    for (int n = 0; n < 6; ++n) d = td.step().total_density;
    // Normalise: initial density is 1/v, so compare the surviving
    // fraction rather than the absolute density.
    return d * v;
  };
  EXPECT_LT(final_density(2.0), final_density(1.0));
}

TEST(TimeDependent, StepBalanceTracksDensityChange) {
  // Backward Euler bookkeeping: ext source + inflow - absorption - leakage
  // evaluated at the new state equals (density_new - density_old) / dt.
  // compute_balance's "source" includes the time source density_old / dt,
  // so its residual must equal density_new / dt.
  snap::Input input = td_input();
  input.epsi = 1e-10;
  const auto disc = std::make_shared<const Discretization>(input);
  const double dt = 0.3;
  TimeDependentSolver td(disc, input, {1.5}, dt);
  td.set_initial_condition(0.7);
  const auto result = td.step();
  const BalanceReport report = td.solver().balance();
  EXPECT_NEAR(report.residual(), result.total_density / dt,
              1e-5 * (1.0 + result.total_density / dt));
}

TEST(TimeDependent, WarmStartReducesIterations) {
  // Near steady state the previous step is an excellent initial guess:
  // late steps must converge in far fewer inner iterations than step one.
  snap::Input input = td_input();
  const auto disc = std::make_shared<const Discretization>(input);
  TimeDependentSolver td(disc, input, {1.0}, 0.5);
  const int first = td.step().iteration.inners;
  int last = first;
  for (int n = 0; n < 20; ++n) last = td.step().iteration.inners;
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace unsnap::core

#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/transport_solver.hpp"
#include "util/threads.hpp"

namespace unsnap::core {
namespace {

snap::Input sweep_input() {
  snap::Input input;
  input.dims = {5, 5, 5};
  input.order = 1;
  input.nang = 3;
  input.ng = 1;
  input.twist = 0.001;
  input.shuffle_seed = 13;
  input.mat_opt = 0;
  input.src_opt = 0;
  input.scattering_ratio = 0.0;
  input.iitm = 1;
  input.oitm = 1;
  input.num_threads = 2;
  return input;
}

TEST(Sweeper, DeltaSourcePropagatesStrictlyDownwind) {
  // Pure absorber with a source only in the centre brick cell (2,2,2):
  // after one sweep, octant (+,+,+) flux can be non-zero only in elements
  // whose brick coordinates are all >= 2 — the upwind DG flux must never
  // leak against the ordinate direction. (This pins the sign conventions
  // of the whole face machinery.)
  snap::Input input = sweep_input();
  TransportSolver solver(input);
  auto& qext = solver.problem().qext;
  qext.fill(0.0);
  const auto& mesh = solver.discretization().mesh();
  int source_elem = -1;
  for (int e = 0; e < mesh.num_elements(); ++e)
    if (mesh.provenance_ijk(e) == std::array<int, 3>{2, 2, 2}) {
      source_elem = e;
      qext(e, 0) = 1.0;
    }
  ASSERT_GE(source_elem, 0);
  solver.run();

  const auto& psi = solver.angular_flux();
  const int n = solver.discretization().num_nodes();
  double downwind_peak = 0.0;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const auto& ijk = mesh.provenance_ijk(e);
    const bool downwind = ijk[0] >= 2 && ijk[1] >= 2 && ijk[2] >= 2;
    for (int a = 0; a < 3; ++a) {
      const double* ps = psi.at(/*octant +++*/ 0, a, e, 0);
      double mag = 0.0;
      for (int i = 0; i < n; ++i) mag = std::max(mag, std::fabs(ps[i]));
      if (downwind)
        downwind_peak = std::max(downwind_peak, mag);
      else
        EXPECT_EQ(mag, 0.0) << "upwind leak at brick (" << ijk[0] << ","
                            << ijk[1] << "," << ijk[2] << ")";
    }
  }
  EXPECT_GT(downwind_peak, 0.0);
}

TEST(Sweeper, OppositeOctantMirrorsThePattern) {
  // Same setup; octant (-,-,-) must light up only elements with all
  // coordinates <= 2.
  snap::Input input = sweep_input();
  TransportSolver solver(input);
  auto& qext = solver.problem().qext;
  qext.fill(0.0);
  const auto& mesh = solver.discretization().mesh();
  for (int e = 0; e < mesh.num_elements(); ++e)
    if (mesh.provenance_ijk(e) == std::array<int, 3>{2, 2, 2})
      qext(e, 0) = 1.0;
  solver.run();

  const auto& psi = solver.angular_flux();
  const int n = solver.discretization().num_nodes();
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const auto& ijk = mesh.provenance_ijk(e);
    if (ijk[0] <= 2 && ijk[1] <= 2 && ijk[2] <= 2) continue;
    const double* ps = psi.at(/*octant ---*/ 7, 0, e, 0);
    for (int i = 0; i < n; ++i) EXPECT_EQ(ps[i], 0.0);
  }
}

TEST(Sweeper, RepeatedSweepIdempotentForPureAbsorber) {
  // With no scattering the sweep is a direct solve: phi must not change
  // between the first and second sweep (and must not accumulate).
  snap::Input input = sweep_input();
  input.iitm = 2;
  TransportSolver solver(input);
  solver.update_outer_source();
  solver.update_inner_source();
  solver.sweep();
  std::vector<double> first(solver.scalar_flux().data(),
                            solver.scalar_flux().data() +
                                solver.scalar_flux().size());
  solver.update_inner_source();
  solver.sweep();
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_NEAR(solver.scalar_flux().data()[i], first[i],
                1e-13 * (1.0 + std::fabs(first[i])));
}

TEST(Sweeper, SolveTimerSubsetOfSweepTimer) {
  snap::Input input = sweep_input();
  input.time_solve = true;
  input.scheme = snap::ConcurrencyScheme::Serial;
  TransportSolver solver(input);
  const IterationResult result = solver.run();
  EXPECT_GT(result.solve_seconds, 0.0);
  EXPECT_LT(result.solve_seconds, result.assemble_solve_seconds);

  // The solve time is per thread, so it stays a share of the sweep's wall
  // time above one thread (a sum over 4 threads once read 138%).
  const int before = omp_get_max_threads();
  snap::Input threaded = sweep_input();
  threaded.dims = {8, 8, 8};
  threaded.nang = 4;
  threaded.ng = 4;
  threaded.iitm = 4;
  threaded.time_solve = true;
  threaded.scheme = snap::ConcurrencyScheme::ElementsGroups;
  threaded.num_threads = 4;
  TransportSolver threaded_solver(threaded);
  const IterationResult threaded_result = threaded_solver.run();
  EXPECT_GT(threaded_result.solve_seconds, 0.0);
  EXPECT_LT(threaded_result.solve_seconds,
            threaded_result.assemble_solve_seconds);
  omp_set_num_threads(before);
}

TEST(Sweeper, SolveTimerZeroWhenDisabled) {
  snap::Input input = sweep_input();
  input.time_solve = false;
  TransportSolver solver(input);
  EXPECT_DOUBLE_EQ(solver.run().solve_seconds, 0.0);
}

TEST(Sweeper, SurvivesThreadCountRaisedAfterConstruction) {
  // The per-thread scratch is sized at construction; raising the OpenMP
  // thread count afterwards (even past the hardware concurrency) must
  // grow it rather than index contexts_[] out of bounds. The sanitizer
  // job turns a regression here into a hard failure; everywhere else the
  // flux comparison against a pre-raise reference run pins the answer.
  const int before = omp_get_max_threads();
  snap::Input input = sweep_input();
  input.num_threads = 1;
  TransportSolver reference(input);
  reference.run();
  const std::vector<double> expected(
      reference.scalar_flux().data(),
      reference.scalar_flux().data() + reference.scalar_flux().size());

  TransportSolver solver(input);  // constructed while omp max threads = 1
  omp_set_num_threads(util::hardware_threads() + 3);
  solver.run();
  const double* flux = solver.scalar_flux().data();
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(flux[i], expected[i], 1e-12 * (1.0 + std::fabs(expected[i])));
  omp_set_num_threads(before);
}

TEST(Sweeper, ScalarFluxIsWeightedAngularSum) {
  // phi = sum_a w_a psi_a must hold exactly at every node after a sweep.
  snap::Input input = sweep_input();
  input.nang = 4;
  TransportSolver solver(input);
  solver.run();
  const auto& disc = solver.discretization();
  const auto& quad = disc.quadrature();
  const auto& psi = solver.angular_flux();
  const int n = disc.num_nodes();
  for (int e = 0; e < disc.num_elements(); e += 11) {
    for (int i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int oct = 0; oct < angular::kOctants; ++oct)
        for (int a = 0; a < input.nang; ++a)
          acc += quad.weight(a) * psi.at(oct, a, e, 0)[i];
      EXPECT_NEAR(solver.scalar_flux().at(e, 0)[i], acc,
                  1e-13 * (1.0 + std::fabs(acc)));
    }
  }
}

// A NumericalError raised by a kernel inside an OpenMP region (a sweep
// loop or the operator build) reaches the caller instead of calling
// std::terminate. The total cross section of the only material is inf, so
// every element's pivot is non-finite.
TEST(Sweeper, NonFinitePivotThrowsOnTheCallingThread) {
  const int before = omp_get_max_threads();
  for (const ConcurrencyScheme scheme :
       {ConcurrencyScheme::ElementsGroups, ConcurrencyScheme::AngleBatch,
        ConcurrencyScheme::Elements, ConcurrencyScheme::Groups,
        ConcurrencyScheme::AnglesAtomic})
    for (const int threads : {1, 2})
      for (const bool preassembly : {false, true}) {
        SCOPED_TRACE(snap::to_string(scheme) + " x " +
                     std::to_string(threads) + " threads, preassembly " +
                     (preassembly ? "explicit-inverse" : "none"));
        snap::Input input = sweep_input();
        input.ng = 2;
        input.scheme = scheme;
        input.num_threads = threads;
        const auto disc = std::make_shared<const Discretization>(input);
        snap::CrossSections xs = snap::make_cross_sections(input.ng, 0.0);
        for (int g = 0; g < input.ng; ++g)
          xs.sigt(0, g) = std::numeric_limits<double>::infinity();
        const auto ne = static_cast<std::size_t>(disc->num_elements());
        ProblemData data(*disc, std::move(xs), std::vector<int>(ne, 0),
                         NDArray<double, 2>({ne, 2}, 1.0));
        EXPECT_THROW(
            {
              TransportSolver solver(disc, input, std::move(data));
              if (preassembly) solver.enable_preassembly();
              solver.run();
            },
            NumericalError);
      }
  omp_set_num_threads(before);
}

}  // namespace
}  // namespace unsnap::core

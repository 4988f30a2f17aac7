#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/transport_solver.hpp"

namespace unsnap::core {
namespace {

snap::Input base_input() {
  snap::Input input;
  input.dims = {4, 4, 4};
  input.extent = {1.0, 1.0, 1.0};
  input.order = 2;
  input.nang = 3;
  input.ng = 3;
  input.twist = 0.001;
  input.shuffle_seed = 31;
  input.mat_opt = 1;
  input.src_opt = 1;
  input.scattering_ratio = 0.5;
  input.iitm = 3;
  input.oitm = 1;
  input.num_threads = 4;
  return input;
}

// Extract phi into a canonical (element, group, node) ordering regardless
// of the storage layout.
std::vector<double> canonical_phi(const TransportSolver& solver) {
  const Discretization& disc = solver.discretization();
  const int ng = solver.problem().xs.ng;
  const int n = disc.num_nodes();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(disc.num_elements()) * ng * n);
  for (int e = 0; e < disc.num_elements(); ++e)
    for (int g = 0; g < ng; ++g) {
      const double* ph = solver.scalar_flux().at(e, g);
      out.insert(out.end(), ph, ph + n);
    }
  return out;
}

std::vector<double> solve_with(const snap::Input& input) {
  TransportSolver solver(input);
  solver.run();
  return canonical_phi(solver);
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

// psi in a canonical (octant, angle, element, group, node) ordering,
// whatever the layout.
std::vector<double> canonical_psi(const TransportSolver& solver) {
  const Discretization& disc = solver.discretization();
  const int ng = solver.problem().xs.ng;
  const int n = disc.num_nodes();
  std::vector<double> out;
  for (int oct = 0; oct < angular::kOctants; ++oct)
    for (int a = 0; a < disc.nang(); ++a)
      for (int e = 0; e < disc.num_elements(); ++e)
        for (int g = 0; g < ng; ++g) {
          const double* p = solver.angular_flux().at(oct, a, e, g);
          out.insert(out.end(), p, p + n);
        }
  return out;
}

struct Fluxes {
  std::vector<double> phi, psi;
};

Fluxes solve_fluxes(const snap::Input& input) {
  TransportSolver solver(input);
  solver.run();
  return {canonical_phi(solver), canonical_psi(solver)};
}

// Entries that differ at all (== on doubles, so only rounding shows).
std::size_t mismatches(const std::vector<double>& a,
                       const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t count = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    count += a[i] != b[i];
  return count;
}

void expect_bitwise(const Fluxes& reference, const snap::Input& input,
                    const std::string& what) {
  const Fluxes candidate = solve_fluxes(input);
  EXPECT_EQ(mismatches(reference.phi, candidate.phi), 0u) << what << " phi";
  EXPECT_EQ(mismatches(reference.psi, candidate.psi), 0u) << what << " psi";
}

struct SchemeCase {
  snap::ConcurrencyScheme scheme;
  snap::FluxLayout layout;
};

class SchemeInvariance : public ::testing::TestWithParam<SchemeCase> {};

// The paper's whole Figure 3/4 sweep varies loop order, threading and data
// layout; none of it may change the numbers. Every scheme/layout pairing
// must reproduce the serial reference solution essentially bitwise (the
// sum order inside one (element, group) solve is identical; the
// atomic-angle and angle-batch schemes reorder the scalar-flux reduction
// across angles, so they get a looser rounding allowance).
TEST_P(SchemeInvariance, MatchesSerialReference) {
  snap::Input reference = base_input();
  reference.scheme = snap::ConcurrencyScheme::Serial;
  reference.layout = snap::FluxLayout::AngleElementGroup;
  const std::vector<double> phi_ref = solve_with(reference);

  snap::Input candidate = base_input();
  candidate.scheme = GetParam().scheme;
  candidate.layout = GetParam().layout;
  const std::vector<double> phi = solve_with(candidate);

  const double tolerance =
      GetParam().scheme == snap::ConcurrencyScheme::AnglesAtomic ||
              GetParam().scheme == snap::ConcurrencyScheme::AngleBatch
          ? 1e-11
          : 1e-13;
  EXPECT_LT(max_diff(phi_ref, phi), tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeInvariance,
    ::testing::Values(
        SchemeCase{snap::ConcurrencyScheme::Serial,
                   snap::FluxLayout::AngleGroupElement},
        SchemeCase{snap::ConcurrencyScheme::Elements,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::Elements,
                   snap::FluxLayout::AngleGroupElement},
        SchemeCase{snap::ConcurrencyScheme::Groups,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::Groups,
                   snap::FluxLayout::AngleGroupElement},
        SchemeCase{snap::ConcurrencyScheme::ElementsGroups,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::ElementsGroups,
                   snap::FluxLayout::AngleGroupElement},
        SchemeCase{snap::ConcurrencyScheme::AnglesAtomic,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::AngleBatch,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::AngleBatch,
                   snap::FluxLayout::AngleGroupElement}));

class SolverInvariance
    : public ::testing::TestWithParam<linalg::SolverKind> {};

TEST_P(SolverInvariance, MatchesGaussianElimination) {
  snap::Input reference = base_input();
  reference.solver = linalg::SolverKind::GaussianElimination;
  const std::vector<double> phi_ref = solve_with(reference);

  snap::Input candidate = base_input();
  candidate.solver = GetParam();
  const std::vector<double> phi = solve_with(candidate);
  // Different elimination orders differ only by rounding.
  EXPECT_LT(max_diff(phi_ref, phi), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, SolverInvariance,
    ::testing::Values(linalg::SolverKind::GaussianEliminationNoPivot,
                      linalg::SolverKind::LapackLu));

TEST(ThreadInvariance, ThreadCountDoesNotChangeResults) {
  std::vector<double> reference;
  for (const int threads : {1, 2, 8}) {
    snap::Input input = base_input();
    input.num_threads = threads;
    const std::vector<double> phi = solve_with(input);
    if (reference.empty())
      reference = phi;
    else
      EXPECT_LT(max_diff(reference, phi), 1e-13) << threads << " threads";
  }
}

// ---- element-renumbering invariance -------------------------------------

// Solve the same physical problem under two different element numberings
// (shuffle seeds) and compare flux element-by-element via centroids. The
// mesh geometry, materials and sources are all centroid-derived, so the
// physical problem is identical; only ids and schedule order change.
std::vector<std::array<double, 3>> centroids(const TransportSolver& solver) {
  const Discretization& disc = solver.discretization();
  std::vector<std::array<double, 3>> out(
      static_cast<std::size_t>(disc.num_elements()));
  for (int e = 0; e < disc.num_elements(); ++e) {
    const auto c = disc.mesh().centroid(e);
    out[static_cast<std::size_t>(e)] = {c[0], c[1], c[2]};
  }
  return out;
}

// Max abs difference between the two solutions with element ids matched by
// centroid (exact double equality: both numberings compute centroids from
// bit-identical corner coordinates).
double renumbered_diff(const TransportSolver& a, const TransportSolver& b) {
  const int ng = a.problem().xs.ng;
  const int n = a.discretization().num_nodes();
  const auto ca = centroids(a);
  const auto cb = centroids(b);
  std::map<std::array<double, 3>, int> b_of;
  for (int e = 0; e < b.discretization().num_elements(); ++e)
    b_of[cb[static_cast<std::size_t>(e)]] = e;

  double worst = 0.0;
  for (int ea = 0; ea < a.discretization().num_elements(); ++ea) {
    const auto it = b_of.find(ca[static_cast<std::size_t>(ea)]);
    EXPECT_NE(it, b_of.end()) << "no centroid match for element " << ea;
    if (it == b_of.end()) continue;
    for (int g = 0; g < ng; ++g) {
      const double* pa = a.scalar_flux().at(ea, g);
      const double* pb = b.scalar_flux().at(it->second, g);
      for (int i = 0; i < n; ++i)
        worst = std::max(worst, std::fabs(pa[i] - pb[i]));
    }
  }
  return worst;
}

TEST(RenumberingInvariance, ShuffleSeedDoesNotChangeTheFlux) {
  // Acyclic case: every element sees bit-identical inputs under both
  // numberings, so the solutions agree to rounding.
  snap::Input a = base_input();
  a.shuffle_seed = 31;
  snap::Input b = base_input();
  b.shuffle_seed = 77;
  TransportSolver solver_a(a), solver_b(b);
  solver_a.run();
  solver_b.run();
  EXPECT_LT(renumbered_diff(solver_a, solver_b), 1e-13);
}

TEST(RenumberingInvariance, HoldsUnderSccCycleBreaking) {
  // Cyclic case: the lagged-face tie-break keys on element ids, so the two
  // numberings may lag *different* faces — the iteration path differs but
  // the converged fixed point must not. Compare at the iteration
  // tolerance, not at rounding.
  snap::Input a;
  a.dims = {6, 6, 3};
  a.twist = 2.5;
  a.quadrature = angular::QuadratureKind::Product;
  a.nang = 9;
  a.ng = 1;
  a.mat_opt = 0;
  a.src_opt = 1;
  a.scattering_ratio = 0.0;
  a.cycle_strategy = sweep::CycleStrategy::LagScc;
  a.fixed_iterations = false;
  a.epsi = 1e-10;
  a.iitm = 80;
  a.oitm = 3;
  a.shuffle_seed = 5;
  snap::Input b = a;
  b.shuffle_seed = 444;

  TransportSolver solver_a(a), solver_b(b);
  // The deck must actually exercise the cycle breaker.
  ASSERT_GT(sweep::schedule_set_stats(solver_a.discretization().schedules(), 1)
                .total_lagged,
            0);

  ASSERT_TRUE(solver_a.run().converged);
  ASSERT_TRUE(solver_b.run().converged);
  EXPECT_LT(renumbered_diff(solver_a, solver_b), 1e-6);
}

// With the previous-iterate psi snapshot, lagged faces read well-defined
// data even when both ends of a lagged edge share a bucket — so scheme
// and thread count must not change a cycle-broken sweep's numbers at all.
TEST(TwistedLagInvariance, SchemesAndThreadsBitwiseEqualUnderLagging) {
  snap::Input reference;
  reference.dims = {6, 6, 3};
  reference.twist = 2.5;
  reference.quadrature = angular::QuadratureKind::Product;
  reference.nang = 9;
  reference.ng = 2;
  reference.mat_opt = 0;
  reference.src_opt = 1;
  reference.scattering_ratio = 0.3;
  reference.cycle_strategy = sweep::CycleStrategy::LagScc;
  reference.iitm = 4;
  reference.oitm = 1;
  reference.scheme = snap::ConcurrencyScheme::Serial;
  reference.num_threads = 1;
  const Fluxes expected = solve_fluxes(reference);

  // Order 1: the lockstep batches differ per scheme and thread count, and
  // still not one value of phi or psi may change.
  for (const snap::ConcurrencyScheme scheme :
       {snap::ConcurrencyScheme::Elements, snap::ConcurrencyScheme::Groups,
        snap::ConcurrencyScheme::ElementsGroups}) {
    for (const int threads : {1, 2, 8}) {
      snap::Input candidate = reference;
      candidate.scheme = scheme;
      candidate.num_threads = threads;
      expect_bitwise(expected, candidate,
                     snap::to_string(scheme) + " x " +
                         std::to_string(threads) + " threads");
    }
  }

  // AngleBatch is the twisted deck's scheme, so its lagged
  // reads must be covered too: bitwise thread-invariant against itself,
  // and equal to serial up to the angle-accumulation reorder batching
  // introduces.
  snap::Input batched = reference;
  batched.scheme = snap::ConcurrencyScheme::AngleBatch;
  batched.num_threads = 2;
  const Fluxes batch = solve_fluxes(batched);
  batched.num_threads = 8;
  expect_bitwise(batch, batched, "angle-batch at 8 threads under lagging");
  EXPECT_LT(max_diff(expected.phi, batch.phi), 1e-11);
}

// At order 1 the sweep solves its element systems in lockstep batches, and
// every scheme, thread count and layout groups the units of a bucket into
// batches differently (and leaves different tails). Each lane reproduces
// the scalar kernel bitwise, so none of that may change a single value of
// phi or psi.
TEST(LockstepInvariance, OrderOneBitwiseAcrossSchemesThreadsAndLayouts) {
  snap::Input reference = base_input();
  reference.order = 1;
  reference.scheme = snap::ConcurrencyScheme::Serial;
  reference.layout = snap::FluxLayout::AngleElementGroup;
  reference.num_threads = 1;
  const Fluxes expected = solve_fluxes(reference);

  for (const snap::ConcurrencyScheme scheme :
       {snap::ConcurrencyScheme::Serial, snap::ConcurrencyScheme::Elements,
        snap::ConcurrencyScheme::Groups,
        snap::ConcurrencyScheme::ElementsGroups})
    for (const int threads : {1, 2, 8})
      for (const snap::FluxLayout layout :
           {snap::FluxLayout::AngleElementGroup,
            snap::FluxLayout::AngleGroupElement}) {
        snap::Input candidate = reference;
        candidate.scheme = scheme;
        candidate.num_threads = threads;
        candidate.layout = layout;
        expect_bitwise(expected, candidate,
                       snap::to_string(scheme) + " x " +
                           std::to_string(threads) + " threads, " +
                           snap::to_string(layout));
      }

  // Angle batching accumulates phi over angles in its own order, so it is
  // held bitwise to itself across threads and layouts.
  snap::Input batched = reference;
  batched.scheme = snap::ConcurrencyScheme::AngleBatch;
  const Fluxes expected_batch = solve_fluxes(batched);
  for (const int threads : {2, 8})
    for (const snap::FluxLayout layout :
         {snap::FluxLayout::AngleElementGroup,
          snap::FluxLayout::AngleGroupElement}) {
      batched.num_threads = threads;
      batched.layout = layout;
      expect_bitwise(expected_batch, batched,
                     "angle-batch x " + std::to_string(threads) +
                         " threads, " + snap::to_string(layout));
    }
}

TEST(QuadratureInvariance, ProductQuadratureAlsoConsistent) {
  // Not equality across quadratures (different ordinates), but each
  // quadrature must itself be scheme-invariant.
  snap::Input a = base_input();
  a.quadrature = angular::QuadratureKind::Product;
  a.nang = 4;
  a.scheme = snap::ConcurrencyScheme::Serial;
  snap::Input b = a;
  b.scheme = snap::ConcurrencyScheme::ElementsGroups;
  b.layout = snap::FluxLayout::AngleGroupElement;
  EXPECT_LT(max_diff(solve_with(a), solve_with(b)), 1e-13);
}

}  // namespace
}  // namespace unsnap::core

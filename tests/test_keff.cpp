// The k-eigenvalue driver (src/xs/keff.*): analytic infinite-medium
// eigenvalues through reflective boundaries, groupset-partition
// invariance, bitwise-reproducible k histories across thread counts,
// the fission-extended balance ledger, and the converging inner policy
// with its error-bound outer test.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "api/report.hpp"
#include "core/problem_data.hpp"
#include "xs/keff.hpp"
#include "xs/library.hpp"

namespace unsnap::xs {
namespace {

/// One fissile group: k_inf = nu_sigf / (sigt - sigs) = 0.6 / 0.5 = 1.2.
Library one_group_library() {
  Library lib;
  lib.ng = 1;
  Material fuel;
  fuel.name = "fuel";
  fuel.sigt = {1.0};
  fuel.nu_sigf = {0.6};
  fuel.chi = {1.0};
  fuel.sigs.resize({1, 1, 1}, 0.0);
  fuel.sigs(0, 0, 0) = 0.5;
  lib.materials.push_back(fuel);
  lib.validate();
  return lib;
}

/// The criticality-deck fuel (decks/xs/criticality.xs) alone: two groups,
/// pure downscatter, tuned so k_inf is exactly 1 (see the deck header for
/// the closed form).
Library two_group_fuel() {
  Library lib;
  lib.ng = 2;
  Material fuel;
  fuel.name = "fuel";
  fuel.sigt = {2.0, 3.2};
  fuel.nu_sigf = {0.48, 0.96};
  fuel.chi = {1.0, 0.0};
  fuel.sigs.resize({1, 2, 2}, 0.0);
  fuel.sigs(0, 0, 0) = 1.2;
  fuel.sigs(0, 0, 1) = 0.4;
  fuel.sigs(0, 1, 1) = 2.0;
  lib.materials.push_back(fuel);
  lib.validate();
  return lib;
}

/// A lowered keff problem: the flat deck, its discretisation and the
/// library's cross sections mapped onto the mesh.
struct Problem {
  snap::Input input;
  std::shared_ptr<const core::Discretization> disc;
  core::ProblemData data;

  [[nodiscard]] KeffSolver solver(const KeffOptions& options) const {
    return KeffSolver(disc, input, data, options);
  }
};

/// `lib` over the mesh of `input`, material by element centroid
/// (source-free: keff ignores the external source).
Problem make_problem(const snap::Input& input, const Library& lib,
                     const std::function<int(const fem::Vec3&)>& material_of) {
  auto disc = std::make_shared<const core::Discretization>(input);
  const int ne = disc->num_elements();
  std::vector<int> material;
  for (int e = 0; e < ne; ++e)
    material.push_back(material_of(disc->mesh().centroid(e)));
  core::ProblemData data(
      *disc, lib.select(), std::move(material),
      NDArray<double, 2>({static_cast<std::size_t>(ne),
                          static_cast<std::size_t>(lib.ng)},
                         0.0));
  return {input, std::move(disc), std::move(data)};
}

/// Homogeneous cube of `lib`'s material 0 with reflective boundaries
/// everywhere: the transport solution is the infinite-medium one, so k
/// must hit the closed form to solver precision.
Problem reflective_problem(const Library& lib) {
  snap::Input input;
  input.dims = {2, 2, 2};
  input.nang = 2;
  input.ng = lib.ng;
  input.boundary.fill(snap::Input::Bc::Reflective);
  input.epsi = 1e-12;
  input.iitm = 100;
  input.oitm = 10;
  input.fixed_iterations = false;
  return make_problem(input, lib, [](const fem::Vec3&) { return 0; });
}

KeffOptions tight_options() {
  KeffOptions options;
  options.k_tol = 1e-12;
  options.fission_tol = 1e-11;
  options.max_outers = 200;
  return options;
}

TEST(Keff, OneGroupInfiniteMediumAnalytic) {
  const Library lib = one_group_library();
  KeffSolver solver = reflective_problem(lib).solver(tight_options());
  const KeffResult result = solver.run();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.k, 1.2, 1e-10);
  EXPECT_EQ(solver.num_groupsets(), 1);
  EXPECT_EQ(result.k_history.size(), static_cast<std::size_t>(result.outers));
}

TEST(Keff, TwoGroupDownscatterClosedForm) {
  // k_inf = (nu0 + nu1 * s01 / (sigt1 - s11)) / (sigt0 - s00) = 1 exactly,
  // under both the per-group split (the pure-downscatter default) and the
  // fused single-set partition.
  const Library lib = two_group_fuel();
  const Problem problem = reflective_problem(lib);
  for (const bool fused : {false, true}) {
    KeffOptions options = tight_options();
    if (fused) options.groupsets = {{0, 1}};
    KeffSolver solver = problem.solver(options);
    const KeffResult result = solver.run();
    EXPECT_TRUE(result.converged);
    EXPECT_NEAR(result.k, 1.0, 1e-10) << (fused ? "fused" : "split");
    EXPECT_EQ(solver.num_groupsets(), fused ? 1 : 2);
    // Infinite-medium spectrum: phi1/phi0 = s01 / (sigt1 - s11) = 1/3.
    const core::NodalField& phi = solver.scalar_flux();
    EXPECT_NEAR(phi.at(0, 1)[0] / phi.at(0, 0)[0], 1.0 / 3.0, 1e-9);
  }
}

TEST(Keff, DefaultGroupsetsSplitPureDownscatter) {
  const Library lib = two_group_fuel();
  KeffSolver solver = reflective_problem(lib).solver(tight_options());
  ASSERT_EQ(solver.groupsets().size(), 2u);
  EXPECT_EQ(solver.groupsets()[0].lo, 0);
  EXPECT_EQ(solver.groupsets()[1].hi, 1);
}

/// A leaky two-material configuration (fuel cube in a pure absorber
/// jacket) exercising the spatially varying fission source.
Problem leaky_problem(const Library& lib, int num_threads) {
  snap::Input input;
  input.dims = {4, 4, 4};
  input.extent = {4.0, 4.0, 4.0};
  input.nang = 2;
  input.ng = lib.ng;
  input.epsi = 1e-8;
  input.iitm = 30;
  input.oitm = 5;
  input.fixed_iterations = false;
  input.num_threads = num_threads;
  return make_problem(input, lib, [](const fem::Vec3& c) {
    const bool fuel = 1.0 < c[0] && c[0] < 3.0 && 1.0 < c[1] &&
                      c[1] < 3.0 && 1.0 < c[2] && c[2] < 3.0;
    return fuel ? 0 : 1;
  });
}

/// Fuel + water pair of the criticality deck.
Library fuel_water_library() {
  Library lib = two_group_fuel();
  Material water;
  water.name = "water";
  water.sigt = {2.4, 4.8};
  water.sigs.resize({1, 2, 2}, 0.0);
  water.sigs(0, 0, 0) = 1.8;
  water.sigs(0, 0, 1) = 0.56;
  water.sigs(0, 1, 1) = 4.2;
  lib.materials.push_back(water);
  lib.validate();
  return lib;
}

std::vector<double> run_history(int num_threads, bool preassembly = false) {
  const Library lib = fuel_water_library();
  KeffOptions options;
  options.k_tol = 1e-8;
  options.fission_tol = 1e-7;
  options.max_outers = 60;
  KeffSolver solver = leaky_problem(lib, num_threads).solver(options);
  if (preassembly) solver.enable_preassembly();
  const KeffResult result = solver.run();
  EXPECT_TRUE(result.converged);
  return result.k_history;
}

TEST(Keff, KHistoryBitwiseInvariantAcrossThreadCounts) {
  // Serial element-ordered reductions: the entire convergence history,
  // not just the converged k, is bitwise-reproducible under threading.
  const std::vector<double> serial = run_history(1);
  const std::vector<double> threaded = run_history(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], threaded[i]) << "outer " << i;
}

TEST(Keff, KHistoryMatchesUnderPreassembly) {
  // The stored inverses reassociate the per-system eliminations, so the
  // history agrees to round-off (the same tolerance the fixed-source
  // preassembly tests pin), outer by outer — same length, same path.
  const std::vector<double> assembled = run_history(2);
  const std::vector<double> pre = run_history(2, true);
  ASSERT_EQ(assembled.size(), pre.size());
  for (std::size_t i = 0; i < assembled.size(); ++i)
    EXPECT_NEAR(assembled[i], pre[i], 1e-10 * (1.0 + assembled[i]))
        << "outer " << i;
}

TEST(Keff, BalanceLedgerClosesAndBucketsSum) {
  const Library lib = fuel_water_library();
  KeffOptions options;
  options.k_tol = 1e-9;
  options.fission_tol = 1e-8;
  options.max_outers = 80;
  KeffSolver solver = leaky_problem(lib, 2).solver(options);
  const KeffResult result = solver.run();
  ASSERT_TRUE(result.converged);

  const core::BalanceReport report = solver.balance();
  // Eigenvalue balance: fission production / k = absorption + leakage.
  EXPECT_GT(report.fission, 0.0);
  EXPECT_DOUBLE_EQ(report.source, 0.0);  // no external source
  EXPECT_LT(std::fabs(report.relative()), 1e-6);

  ASSERT_EQ(report.num_groups(), 2);
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  EXPECT_NEAR(sum(report.group_fission), report.fission, 1e-12);
  EXPECT_NEAR(sum(report.group_absorption), report.absorption, 1e-12);
  EXPECT_NEAR(sum(report.group_leakage), report.leakage, 1e-12);
  // The ledger bins production by the group it occurs in: downscatter
  // feeds the thermal flux, so both groups produce.
  EXPECT_GT(report.group_absorption[1], 0.0);
  EXPECT_GT(report.group_fission[1], 0.0);
  EXPECT_GT(report.group_fission[0], report.group_fission[1]);
}

TEST(Keff, ExtrapolationReachesTheSameEigenvalue) {
  const Library lib = fuel_water_library();
  const Problem problem = leaky_problem(lib, 2);
  KeffOptions plain;
  plain.k_tol = 1e-9;
  plain.fission_tol = 1e-8;
  plain.max_outers = 80;
  KeffOptions shifted = plain;
  shifted.extrapolate = true;

  KeffSolver a = problem.solver(plain);
  KeffSolver b = problem.solver(shifted);
  const KeffResult ra = a.run();
  const KeffResult rb = b.run();
  ASSERT_TRUE(ra.converged);
  ASSERT_TRUE(rb.converged);
  EXPECT_NEAR(ra.k, rb.k, 1e-7);
}

/// A fuel cube in a water bath with vacuum outside, solved with one
/// thread under the inner caps of decks/criticality.inp: a dims^3 mesh of
/// the given extent, fuel wherever the element centroid lies within
/// `fuel_half_width` of the centre on every axis. (6, 4, 1.5) is that
/// deck's problem.
Problem criticality_problem(int dims, double extent, double fuel_half_width,
                            snap::IterationScheme scheme,
                            bool fixed_iterations) {
  snap::Input input;
  input.dims = {dims, dims, dims};
  input.extent = {extent, extent, extent};
  input.nang = 2;
  input.ng = 2;
  input.epsi = 1e-6;
  input.iitm = 20;
  input.oitm = 3;
  input.fixed_iterations = fixed_iterations;
  input.iteration_scheme = scheme;
  input.num_threads = 1;
  return make_problem(input, fuel_water_library(), [=](const fem::Vec3& c) {
    bool fuel = true;
    for (int axis = 0; axis < 3; ++axis)
      fuel = fuel && std::fabs(c[axis] - 0.5 * extent) < fuel_half_width;
    return fuel ? 0 : 1;
  });
}

/// The deck's outer tolerances.
KeffOptions criticality_options() {
  KeffOptions options;
  options.k_tol = 1e-7;
  options.fission_tol = 1e-6;
  return options;
}

struct Answer {
  KeffResult result;
  std::vector<double> group_averages;
};

Answer solve(const Problem& problem, const KeffOptions& options) {
  KeffSolver solver = problem.solver(options);
  Answer answer{solver.run(), {}};
  answer.group_averages =
      api::group_volume_averages(*problem.disc, solver.scalar_flux());
  return answer;
}

/// The acceptance limits of the repository benchmark's gate: 1e-6
/// relative on k, 5e-7 relative on every group average.
void expect_same_answer(const Answer& a, const Answer& reference) {
  EXPECT_NEAR(a.result.k, reference.result.k, 1e-6 * reference.result.k);
  ASSERT_EQ(a.group_averages.size(), reference.group_averages.size());
  for (std::size_t g = 0; g < a.group_averages.size(); ++g)
    EXPECT_NEAR(a.group_averages[g], reference.group_averages[g],
                5e-7 * reference.group_averages[g])
        << "group " << g;
}

TEST(Keff, AdaptiveInnersReachTheFixedInnerAnswer) {
  // Groupset solves that stop at a tolerance tied to the fission-source
  // change reach the answer of solves that spend their whole 20 x 3
  // budget every outer, converged tightly, for a fraction of the sweeps.
  // A 3^3 mesh whose centre element is the fuel keeps the fixed-inner
  // runs short.
  KeffOptions tight = criticality_options();
  tight.k_tol = 1e-10;
  tight.fission_tol = 1e-9;
  for (const auto scheme : {snap::IterationScheme::SourceIteration,
                            snap::IterationScheme::Gmres}) {
    SCOPED_TRACE(snap::to_string(scheme));
    const Answer fixed =
        solve(criticality_problem(3, 3.0, 0.5, scheme, true), tight);
    const Answer adaptive = solve(
        criticality_problem(3, 3.0, 0.5, scheme, false), criticality_options());
    ASSERT_TRUE(fixed.result.converged);
    ASSERT_TRUE(adaptive.result.converged);
    expect_same_answer(adaptive, fixed);
    EXPECT_LE(5 * adaptive.result.sweeps, fixed.result.sweeps);
  }
}

TEST(Keff, OuterTestRejectsOneSweepFalseConvergence) {
  // One sweep per groupset per outer: each outer does little work, so
  // the fission-source step is small long before the error is. A test
  // on the step alone stops this run about 9e-7 from the converged
  // group-1 average; the error bound step * sigma / (1 - sigma) runs on.
  Problem problem = criticality_problem(
      6, 4.0, 1.5, snap::IterationScheme::SourceIteration, false);
  KeffOptions tight = criticality_options();
  tight.k_tol = 1e-10;
  tight.fission_tol = 1e-9;
  const Answer converged = solve(problem, tight);
  ASSERT_TRUE(converged.result.converged);

  problem.input.iitm = 1;
  problem.input.oitm = 1;
  const Answer stopped = solve(problem, criticality_options());
  ASSERT_TRUE(stopped.result.converged);
  EXPECT_EQ(stopped.result.sweeps, 2 * stopped.result.outers);
  expect_same_answer(stopped, converged);
}

}  // namespace
}  // namespace unsnap::xs

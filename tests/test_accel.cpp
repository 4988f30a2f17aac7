// The matrix-free Krylov acceleration subsystem (src/accel/): GMRES
// against dense references, Arnoldi basis quality, right preconditioning
// and the in-cycle recurrence checks, and the transport binding —
// SI-vs-GMRES flux agreement across boundary conditions, scattering
// orders, cycle strategies and threading schemes, the diffusion-
// preconditioned sweeps per digit across c, the DSA-corrected source
// iteration and where it stays off, plus the diffusive-deck acceptance
// bounds (GMRES and DSA-corrected SI in a small fraction of plain SI's
// sweeps as c -> 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/inner.hpp"
#include "accel/krylov.hpp"
#include "api/report.hpp"
#include "api/run.hpp"
#include "linalg/blas_like.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "plain_source_iteration.hpp"
#include "util/rng.hpp"

namespace unsnap {
namespace {

// ---- dense references ----------------------------------------------------

linalg::Matrix diag_dominant(int n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    double row = 0.0;
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
      row += std::fabs(a(i, j));
    }
    a(i, i) += 2.0 * row;
  }
  return a;
}

std::vector<double> random_rhs(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& x : b) x = rng.uniform(-2.0, 2.0);
  return b;
}

accel::LinearOperator matvec_op(const linalg::Matrix& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    linalg::matvec(a.view(), x, y);
  };
}

std::vector<double> lu_reference(const linalg::Matrix& a,
                                 const std::vector<double>& b) {
  linalg::Matrix lu = a;
  std::vector<double> x = b;
  std::vector<int> pivots(b.size());
  linalg::lu_factor(lu.view(), pivots);
  linalg::lu_solve_factored(lu.view(), pivots, x);
  return x;
}

// ---- GMRES on dense systems ----------------------------------------------

TEST(Gmres, FullCycleSolvesDenseSystemExactly) {
  const int n = 12;
  const linalg::Matrix a = diag_dominant(n, 1);
  const std::vector<double> b = random_rhs(n, 2);
  const std::vector<double> reference = lu_reference(a, b);

  accel::Gmres gmres(static_cast<std::size_t>(n), n);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  accel::KrylovOptions options;
  options.max_iters = 3 * n;
  options.rel_tol = 1e-13;
  const accel::KrylovResult result =
      gmres.solve(matvec_op(a), b, x, options);

  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, n);  // full GMRES finishes within n steps
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], reference[i], 1e-9);
}

TEST(Gmres, RestartedSolveMatchesLu) {
  const int n = 24;
  const linalg::Matrix a = diag_dominant(n, 3);
  const std::vector<double> b = random_rhs(n, 4);
  const std::vector<double> reference = lu_reference(a, b);

  accel::Gmres gmres(static_cast<std::size_t>(n), 5);  // force restarts
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  accel::KrylovOptions options;
  options.max_iters = 500;
  options.rel_tol = 1e-12;
  const accel::KrylovResult result =
      gmres.solve(matvec_op(a), b, x, options);

  EXPECT_TRUE(result.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], reference[i], 1e-8);
}

TEST(Gmres, WarmStartIsRespected) {
  const int n = 10;
  const linalg::Matrix a = diag_dominant(n, 5);
  const std::vector<double> b = random_rhs(n, 6);
  std::vector<double> x = lu_reference(a, b);  // start at the solution

  accel::Gmres gmres(static_cast<std::size_t>(n), n);
  accel::KrylovOptions options;
  options.rel_tol = 1e-10;
  const accel::KrylovResult result =
      gmres.solve(matvec_op(a), b, x, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);  // first true residual already passes
  EXPECT_EQ(result.applies, 1);
}

TEST(Gmres, ArnoldiBasisIsOrthonormal) {
  const int n = 30, m = 6;
  const linalg::Matrix a = diag_dominant(n, 7);
  const std::vector<double> b = random_rhs(n, 8);

  accel::Gmres gmres(static_cast<std::size_t>(n), m);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  accel::KrylovOptions options;
  options.max_iters = m;  // exactly one cycle
  const accel::KrylovResult result =
      gmres.solve(matvec_op(a), b, x, options);
  ASSERT_EQ(result.iterations, m);
  ASSERT_EQ(gmres.basis_size(), m + 1);
  for (int i = 0; i < gmres.basis_size(); ++i)
    for (int j = 0; j <= i; ++j) {
      double dot = 0.0;
      for (int k = 0; k < n; ++k)
        dot += gmres.basis_vector(i)[static_cast<std::size_t>(k)] *
               gmres.basis_vector(j)[static_cast<std::size_t>(k)];
      // Single-pass MGS keeps orthogonality to ~sqrt(eps) at worst; this
      // system loses ~1e-11.
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9)
          << "basis entry (" << i << ", " << j << ")";
    }
}

TEST(Gmres, ResidualHistoryDecreasesAndIsRecorded) {
  const int n = 16;
  const linalg::Matrix a = diag_dominant(n, 9);
  const std::vector<double> b = random_rhs(n, 10);

  accel::Gmres gmres(static_cast<std::size_t>(n), n);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  accel::KrylovOptions options;
  options.rel_tol = 1e-12;
  const accel::KrylovResult result =
      gmres.solve(matvec_op(a), b, x, options);
  ASSERT_GE(result.residual_history.size(), 2u);
  // GMRES minimises over a growing subspace: in-cycle estimates never
  // grow. At a cycle boundary the recomputed true residual may exceed the
  // last estimate by rounding noise, so allow slack relative to the
  // initial residual.
  const double slack = 1e-12 * result.residual_history.front();
  for (std::size_t k = 1; k < result.residual_history.size(); ++k)
    EXPECT_LE(result.residual_history[k],
              result.residual_history[k - 1] + slack);
  EXPECT_LT(result.final_residual(),
            result.residual_history.front() * 1e-10);
}

TEST(Gmres, ZeroRhsConvergesImmediately) {
  const int n = 8;
  const linalg::Matrix a = diag_dominant(n, 11);
  const std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  accel::Gmres gmres(static_cast<std::size_t>(n), n);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const accel::KrylovResult result =
      gmres.solve(matvec_op(a), b, x, {});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.applies, 1);
  for (const double xi : x) EXPECT_EQ(xi, 0.0);
}

TEST(Gmres, RespectsApplyBudget) {
  const int n = 40;
  const linalg::Matrix a = diag_dominant(n, 12);
  const std::vector<double> b = random_rhs(n, 13);
  accel::Gmres gmres(static_cast<std::size_t>(n), 4);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  accel::KrylovOptions options;
  options.max_applies = 7;
  options.max_iters = 1000;  // the apply budget must bind first
  const accel::KrylovResult result =
      gmres.solve(matvec_op(a), b, x, options);
  EXPECT_LE(result.applies, 7);
  EXPECT_FALSE(result.converged);  // tol 0, budget-bound
}

// With P^-1 = A^-1 the preconditioned operator A P^-1 is the identity:
// one Arnoldi step spans the solution, and the confirming residual at the
// next cycle start closes the solve.
TEST(Gmres, ExactRightPreconditionerConvergesInOneStep) {
  const int n = 12;
  const linalg::Matrix a = diag_dominant(n, 21);
  const std::vector<double> b = random_rhs(n, 22);
  const std::vector<double> reference = lu_reference(a, b);

  linalg::Matrix lu = a;
  std::vector<int> pivots(static_cast<std::size_t>(n));
  linalg::lu_factor(lu.view(), pivots);
  accel::KrylovOptions options;
  options.rel_tol = 1e-12;
  options.preconditioner = [&](std::span<const double> v,
                               std::span<double> z) {
    std::copy(v.begin(), v.end(), z.begin());
    linalg::lu_solve_factored(lu.view(), pivots, z);
  };
  accel::Gmres gmres(static_cast<std::size_t>(n), n);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const accel::KrylovResult result =
      gmres.solve(matvec_op(a), b, x, options);

  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_EQ(result.applies, 3);  // residual, one Arnoldi step, confirmation
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], reference[i], 1e-10);
}

// Every pointwise check sees an iterate and the residual the Arnoldi
// recurrence carries for it, which must be b - A x. A failed in-cycle
// check continues the cycle: the solve pays no restart per failure, only
// the initial residual and the confirming one.
TEST(Gmres, RecurrenceResidualMatchesTrueResidual) {
  const int n = 30;
  const linalg::Matrix a = diag_dominant(n, 23);
  const std::vector<double> b = random_rhs(n, 24);
  const double bnorm = linalg::norm2(b);

  accel::KrylovOptions options;
  options.max_iters = 2 * n;
  options.rel_tol = 1e-3;
  options.preconditioner = [&](std::span<const double> v,
                               std::span<double> z) {
    for (int i = 0; i < n; ++i) z[i] = v[i] / a(i, i);  // Jacobi
  };
  int checks = 0;
  double worst = 0.0;
  options.converged_test = [&](std::span<const double> xk,
                               std::span<const double> r) {
    ++checks;
    std::vector<double> ax(static_cast<std::size_t>(n));
    linalg::matvec(a.view(), xk, ax);
    double rnorm = 0.0;
    for (int i = 0; i < n; ++i) {
      worst = std::max(worst, std::fabs(b[i] - ax[i] - r[i]));
      rnorm += r[i] * r[i];
    }
    return std::sqrt(rnorm) <= 1e-11 * bnorm;
  };
  accel::Gmres gmres(static_cast<std::size_t>(n), n);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const accel::KrylovResult result =
      gmres.solve(matvec_op(a), b, x, options);

  EXPECT_TRUE(result.converged);
  EXPECT_GE(checks, 4);  // the 2-norm target met and failed in-cycle
  EXPECT_LE(worst, 1e-12 * bnorm);
  EXPECT_EQ(result.applies, result.iterations + 2);
}

// ---- the transport binding -----------------------------------------------

snap::Input base_deck() {
  snap::Input input;
  input.dims = {4, 4, 4};
  input.twist = 0.001;
  input.shuffle_seed = 42;
  input.nang = 4;
  input.ng = 2;
  input.mat_opt = 1;
  input.scattering_ratio = 0.5;
  input.src_opt = 1;
  return input;
}

/// Iterate to `epsi` under `scheme` with a generous budget.
void converge(snap::Input& input, snap::IterationScheme scheme,
              double epsi = 1e-6) {
  input.epsi = epsi;
  input.iitm = 200;
  input.oitm = 40;
  input.fixed_iterations = false;
  input.iteration_scheme = scheme;
}

std::vector<double> solve_flux(const snap::Input& input,
                               core::IterationResult* result = nullptr) {
  core::TransportSolver solver(input);
  const core::IterationResult run = solver.run();
  EXPECT_TRUE(run.converged);
  if (result != nullptr) *result = run;
  const core::NodalField& phi = solver.scalar_flux();
  return {phi.data(), phi.data() + phi.size()};
}

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::vector<double> delta(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) delta[i] = b[i] - a[i];
  return accel::max_pointwise_change(delta, a);
}

TEST(TransportGmres, AgreesWithSourceIteration) {
  snap::Input input = base_deck();
  converge(input, snap::IterationScheme::SourceIteration);
  core::IterationResult si;
  const std::vector<double> phi_si = solve_flux(input, &si);

  converge(input, snap::IterationScheme::Gmres);
  core::IterationResult gm;
  const std::vector<double> phi_gm = solve_flux(input, &gm);

  EXPECT_LT(max_rel_diff(phi_si, phi_gm), 1e-4);
  EXPECT_GT(gm.krylov_iters, 0);
  EXPECT_EQ(si.krylov_iters, 0);
}

TEST(TransportGmres, HistoriesAreRecordedForBothSchemes) {
  snap::Input input = base_deck();
  converge(input, snap::IterationScheme::SourceIteration);
  core::IterationResult si;
  solve_flux(input, &si);
  EXPECT_EQ(static_cast<int>(si.inner_history.size()), si.inners);
  EXPECT_EQ(si.sweeps, si.inners);
  EXPECT_TRUE(si.residual_history.empty());
  EXPECT_EQ(si.inner_history.back(), si.final_inner_change);

  converge(input, snap::IterationScheme::Gmres);
  core::IterationResult gm;
  solve_flux(input, &gm);
  EXPECT_FALSE(gm.inner_history.empty());
  EXPECT_FALSE(gm.residual_history.empty());
  EXPECT_GT(gm.sweeps, gm.krylov_iters);  // seed + residual applies on top
  EXPECT_EQ(gm.sweeps, gm.inners);
  EXPECT_EQ(gm.inner_history.back(), gm.final_inner_change);
}

// A converged solve stops on its cycle-start residual apply at the
// returned x, which left the solver holding F(x) from that very sweep, so
// run_gmres skips the closing sweep. With one outer the count is exact:
// the seed sweep plus one sweep per operator apply, and every apply
// records one residual. Redoing the skipped sweep by hand must give the
// flux the solve left, bit for bit.
TEST(TransportGmres, ConvergedSolveSkipsTheRepeatedClosingSweep) {
  snap::Input input = base_deck();
  converge(input, snap::IterationScheme::Gmres);
  input.oitm = 1;
  core::TransportSolver solver(input);
  int sweeps = 0;
  std::vector<double> last_x;  // the flux the last sweep started from
  core::IterationHooks hooks;
  hooks.sweep_frozen = [&] {
    const core::NodalField& phi = solver.scalar_flux();
    last_x.assign(phi.data(), phi.data() + phi.size());
    solver.sweep(/*frozen_coupling=*/true);
    ++sweeps;
  };
  const core::IterationResult result = solver.run(&hooks);
  ASSERT_LT(result.final_inner_change, input.epsi);  // the solve converged
  EXPECT_EQ(result.sweeps, sweeps);
  EXPECT_EQ(result.inners, sweeps);
  EXPECT_EQ(result.sweeps,
            1 + static_cast<int>(result.residual_history.size()));

  const core::NodalField phi = solver.scalar_flux();
  const core::AngularFlux psi = solver.angular_flux();
  core::NodalField& live = solver.scalar_flux();
  ASSERT_EQ(last_x.size(), live.size());
  std::copy(last_x.begin(), last_x.end(), live.data());
  solver.update_inner_source();
  solver.sweep(/*frozen_coupling=*/true);
  for (std::size_t i = 0; i < phi.size(); ++i)
    ASSERT_EQ(std::memcmp(phi.data() + i, live.data() + i, sizeof(double)),
              0)
        << "phi entry " << i;
  const core::AngularFlux& redone = solver.angular_flux();
  for (std::size_t i = 0; i < psi.size(); ++i)
    ASSERT_EQ(
        std::memcmp(psi.data() + i, redone.data() + i, sizeof(double)), 0)
        << "psi entry " << i;
}

TEST(TransportGmres, ReflectiveBoundariesAgreeWithSi) {
  snap::Input input = base_deck();
  input.boundary.fill(snap::Input::Bc::Reflective);
  converge(input, snap::IterationScheme::SourceIteration);
  const std::vector<double> phi_si = solve_flux(input);

  converge(input, snap::IterationScheme::Gmres);
  const std::vector<double> phi_gm = solve_flux(input);
  EXPECT_LT(max_rel_diff(phi_si, phi_gm), 1e-3);
}

TEST(TransportGmres, AnisotropicMomentsAgreeWithSi) {
  snap::Input input = base_deck();
  input.nmom = 2;
  converge(input, snap::IterationScheme::SourceIteration);
  const std::vector<double> phi_si = solve_flux(input);

  converge(input, snap::IterationScheme::Gmres);
  const std::vector<double> phi_gm = solve_flux(input);
  EXPECT_LT(max_rel_diff(phi_si, phi_gm), 1e-4);
}

TEST(TransportGmres, CycleLaggedSweepsAgreeWithSi) {
  // Strong twist forces sweep cycles; lag-scc breaks them with lagged
  // faces whose frozen-coupling treatment the gmres inners must respect.
  snap::Input input;
  input.dims = {6, 6, 3};
  input.twist = 2.5;
  input.shuffle_seed = 0;
  input.cycle_strategy = sweep::CycleStrategy::LagScc;
  input.nang = 4;
  input.quadrature = angular::QuadratureKind::Product;
  input.ng = 1;
  input.mat_opt = 0;
  input.scattering_ratio = 0.5;
  input.src_opt = 1;
  converge(input, snap::IterationScheme::SourceIteration);
  const std::vector<double> phi_si = solve_flux(input);

  converge(input, snap::IterationScheme::Gmres);
  const std::vector<double> phi_gm = solve_flux(input);
  EXPECT_LT(max_rel_diff(phi_si, phi_gm), 1e-3);
}

TEST(TransportGmres, BitwiseInvariantAcrossConcurrencySchemes) {
  // The Krylov reductions are serial by design, and the sweeps are
  // thread-bitwise-invariant (PR 2's battery), so the whole gmres solve
  // must produce bit-identical fluxes across concurrency schemes.
  snap::Input input = base_deck();
  converge(input, snap::IterationScheme::Gmres);
  input.scheme = snap::ConcurrencyScheme::Serial;
  input.num_threads = 1;
  const std::vector<double> serial = solve_flux(input);

  input.scheme = snap::ConcurrencyScheme::ElementsGroups;
  input.num_threads = 3;
  const std::vector<double> threaded = solve_flux(input);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], threaded[i]) << "flux entry " << i;
}

TEST(TransportGmres, TinyInnerBudgetStillProgresses) {
  snap::Input input = base_deck();
  converge(input, snap::IterationScheme::Gmres);
  input.iitm = 1;  // below the gmres floor of 4 sweeps
  input.oitm = 60;
  core::IterationResult gm;
  const std::vector<double> phi_gm = solve_flux(input, &gm);

  converge(input, snap::IterationScheme::SourceIteration);
  const std::vector<double> phi_si = solve_flux(input);
  EXPECT_LT(max_rel_diff(phi_si, phi_gm), 1e-4);
}

TEST(TransportGmres, FixedIterationRunsAreDeterministic) {
  snap::Input input = base_deck();
  input.epsi = 1e-6;
  input.iitm = 12;
  input.oitm = 2;
  input.fixed_iterations = true;
  input.iteration_scheme = snap::IterationScheme::Gmres;
  const auto disc = std::make_shared<const core::Discretization>(input);
  std::vector<double> runs[2];
  int sweeps[2] = {0, 0};
  for (int k = 0; k < 2; ++k) {
    core::TransportSolver solver(disc, input);
    const core::IterationResult result = solver.run();
    sweeps[k] = result.sweeps;
    const core::NodalField& phi = solver.scalar_flux();
    runs[k].assign(phi.data(), phi.data() + phi.size());
  }
  EXPECT_EQ(sweeps[0], sweeps[1]);
  EXPECT_LE(sweeps[0], 2 * 12);  // the shared iitm sweep budget binds
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i)
    ASSERT_EQ(runs[0][i], runs[1][i]);
}

// ---- diffusion preconditioning --------------------------------------------

// The diffusive deck across the scattering ladder, on a mesh small enough
// for the tier-1 suite: DSA-preconditioned inners hold at most 4 sweeps
// per digit as c -> 1, where the plain sweep-preconditioned GMRES took
// 7-10 and its count grew with c.
TEST(TransportGmres, DiffusiveLadderSweepsPerDigit) {
  api::RunConfig config =
      api::read_deck_file(std::string(UNSNAP_DECK_DIR) + "/diffusive.inp");
  config.mesh.dims = {3, 3, 9};
  config.execution.num_threads = 1;
  for (const double c : {0.9, 0.99, 0.999, 0.9999}) {
    SCOPED_TRACE(::testing::Message() << "c = " << c);
    config.materials.scattering[1] = config.materials.scattering[2] = c;
    const api::RunRecord record = api::Run(config).execute();
    const core::IterationResult& it = *record.iteration;
    ASSERT_TRUE(it.converged);
    EXPECT_TRUE(it.diffusion_preconditioned);
    EXPECT_GT(it.dsa_pcg_iters, 0);
    const double spd = api::sweeps_per_digit(it);
    EXPECT_GT(spd, 0.0);
    EXPECT_LE(spd, 4.0) << it.sweeps << " sweeps";
  }
}

// A rank of a distributed solve keeps the plain sweep operator: its mesh
// has remote faces, and a per-rank diffusion solve would miss the halo
// coupling. The same deck on one domain is preconditioned.
TEST(TransportGmres, PartitionedRanksAreNotPreconditioned) {
  api::RunConfig config;
  config.mesh.dims = {4, 4, 4};
  config.materials.num_groups = 1;
  config.angular.nang = 2;
  config.iteration = {.epsi = 1e-6,
                      .iitm = 200,
                      .oitm = 10,
                      .fixed_iterations = false,
                      .scheme = snap::IterationScheme::Gmres};
  config.execution.scheme = snap::ConcurrencyScheme::Serial;
  config.execution.num_threads = 1;

  const api::RunRecord single = api::Run(config).execute();
  ASSERT_TRUE(single.iteration->converged);
  EXPECT_TRUE(single.iteration->diffusion_preconditioned);
  EXPECT_GT(single.iteration->dsa_pcg_iters, 0);

  config.decomposition = {.px = 2, .py = 2,
                          .exchange = snap::SweepExchange::Pipelined};
  const api::RunRecord ranks = api::Run(config).execute();
  ASSERT_TRUE(ranks.iteration->converged);
  EXPECT_FALSE(ranks.iteration->diffusion_preconditioned);
  EXPECT_EQ(ranks.iteration->dsa_pcg_iters, 0);
  EXPECT_NE(api::to_json(ranks).find("\"preconditioner\": \"none\""),
            std::string::npos);
  // Both answers hold the deck's tolerance.
  for (std::size_t g = 0; g < single.flux->group_averages.size(); ++g)
    EXPECT_NEAR(ranks.flux->group_averages[g],
                single.flux->group_averages[g],
                1e-5 * single.flux->group_averages[g]);
}

// ---- diffusion-corrected source iteration --------------------------------

std::vector<double> values(const core::NodalField& phi) {
  return {phi.data(), phi.data() + phi.size()};
}

/// solve_flux's twin for plain source iteration (plain_source_iteration.hpp).
std::vector<double> plain_flux(const snap::Input& input,
                               core::IterationResult* result) {
  core::TransportSolver solver(input);
  *result = test::plain_source_iteration(solver);
  return values(solver.scalar_flux());
}

void expect_bitwise(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << "flux entry " << i;
}

// On the tier-1 diffusive mesh at c = 0.99 the DSA correction converges
// source iteration to the answer of the preconditioned GMRES inners. Plain
// source iteration stops about c / (1 - c) tolerances short of it.
TEST(SourceIterationDsa, ConvergesDiffusiveDeckToTheGmresAnswer) {
  api::RunConfig config =
      api::read_deck_file(std::string(UNSNAP_DECK_DIR) + "/diffusive.inp");
  config.mesh.dims = {3, 3, 9};
  config.execution.num_threads = 1;
  const api::RunRecord gmres = api::Run(config).execute();
  ASSERT_TRUE(gmres.iteration->converged);

  config.iteration.scheme = snap::IterationScheme::SourceIteration;
  api::Run run(config);
  const api::RunRecord si = run.execute();
  ASSERT_TRUE(si.iteration->converged);
  EXPECT_TRUE(si.iteration->diffusion_preconditioned);
  EXPECT_GT(si.iteration->dsa_pcg_iters, 0);
  EXPECT_EQ(si.iteration->krylov_iters, 0);
  EXPECT_NE(api::to_json(si).find("\"preconditioner\": \"diffusion\""),
            std::string::npos);
  for (std::size_t g = 0; g < si.flux->group_averages.size(); ++g)
    EXPECT_NEAR(si.flux->group_averages[g], gmres.flux->group_averages[g],
                1e-6 * gmres.flux->group_averages[g])
        << "group " << g;
}

// The correction leaves the lagged reflective inflow alone, so an
// all-reflective deck keeps plain source iteration, bit for bit.
TEST(SourceIterationDsa, ReflectiveDeckRunsPlainSourceIteration) {
  api::RunConfig config;
  config.mesh.dims = {4, 4, 4};
  config.angular.nang = 2;
  config.materials.num_groups = 2;
  config.boundary.sides.fill(snap::Input::Bc::Reflective);
  config.iteration = {.epsi = 1e-6, .iitm = 200, .oitm = 40,
                      .fixed_iterations = false};
  config.execution.num_threads = 1;
  api::Run run(config);
  const api::RunRecord record = run.execute();
  const core::IterationResult& it = *record.iteration;
  ASSERT_TRUE(it.converged);
  EXPECT_FALSE(it.diffusion_preconditioned);
  EXPECT_EQ(it.dsa_pcg_iters, 0);
  EXPECT_NE(api::to_json(record).find("\"preconditioner\": \"none\""),
            std::string::npos);

  core::IterationResult plain;
  const std::vector<double> phi_plain = plain_flux(config.to_input(), &plain);
  EXPECT_EQ(it.outers, plain.outers);
  EXPECT_EQ(it.sweeps, plain.sweeps);
  EXPECT_EQ(it.inner_history, plain.inner_history);
  EXPECT_EQ(it.final_outer_change, plain.final_outer_change);
  expect_bitwise(values(run.solver()->scalar_flux()), phi_plain);
}

// The correction's reductions are serial, so threaded sweeps keep the
// corrected iterates bitwise across thread counts.
TEST(SourceIterationDsa, BitwiseAcrossThreadCounts) {
  snap::Input input = base_deck();
  input.scattering_ratio = 0.9;
  converge(input, snap::IterationScheme::SourceIteration);
  input.scheme = snap::ConcurrencyScheme::ElementsGroups;
  std::vector<double> reference;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    input.num_threads = threads;
    core::IterationResult result;
    const std::vector<double> phi = solve_flux(input, &result);
    EXPECT_TRUE(result.diffusion_preconditioned);
    if (threads == 1) reference = phi;
    else expect_bitwise(phi, reference);
  }
}

// A rank of a distributed solve runs plain source iteration: its record
// carries no diffusion solves, and the pipelined exchange repeats the
// single-domain plain iteration sweep for sweep.
TEST(SourceIterationDsa, DistributedRanksRunPlainSourceIteration) {
  api::RunConfig config;
  config.mesh.dims = {4, 4, 4};
  config.materials.num_groups = 1;
  config.angular.nang = 2;
  config.iteration = {.epsi = 1e-6, .iitm = 200, .oitm = 10,
                      .fixed_iterations = false};
  config.execution.scheme = snap::ConcurrencyScheme::Serial;
  config.execution.num_threads = 1;
  core::IterationResult plain;
  (void)plain_flux(config.to_input(), &plain);
  ASSERT_TRUE(plain.converged);

  config.decomposition = {.px = 2, .py = 2,
                          .exchange = snap::SweepExchange::Pipelined};
  const api::RunRecord ranks = api::Run(config).execute();
  ASSERT_TRUE(ranks.iteration->converged);
  EXPECT_FALSE(ranks.iteration->diffusion_preconditioned);
  EXPECT_EQ(ranks.iteration->dsa_pcg_iters, 0);
  EXPECT_NE(api::to_json(ranks).find("\"preconditioner\": \"none\""),
            std::string::npos);
  EXPECT_EQ(ranks.iteration->outers, plain.outers);
  EXPECT_EQ(ranks.iteration->sweeps, plain.sweeps);
  ASSERT_EQ(ranks.iteration->inner_history.size(),
            plain.inner_history.size());
  for (std::size_t i = 0; i < plain.inner_history.size(); ++i)
    EXPECT_NEAR(ranks.iteration->inner_history[i], plain.inner_history[i],
                1e-12 * plain.inner_history[i])
        << "inner " << i;
}

// Under anisotropic scattering only the scalar flux is corrected, as in
// the GMRES preconditioner; the iteration still reaches the plain answer.
TEST(SourceIterationDsa, AnisotropicScatteringReachesThePlainAnswer) {
  snap::Input input = base_deck();
  input.nmom = 2;
  input.scattering_ratio = 0.9;
  converge(input, snap::IterationScheme::SourceIteration, 1e-8);
  core::IterationResult run, plain;
  const std::vector<double> phi_run = solve_flux(input, &run);
  const std::vector<double> phi_plain = plain_flux(input, &plain);
  ASSERT_TRUE(plain.converged);
  EXPECT_TRUE(run.diffusion_preconditioned);
  EXPECT_LT(run.sweeps, plain.sweeps);
  EXPECT_LT(max_rel_diff(phi_plain, phi_run), 1e-6);
}

// ---- the diffusive acceptance bound --------------------------------------

TEST(TransportGmres, DiffusiveDeckAcceptance) {
  // The diffusive scenario's deck (decks/diffusive.inp, c = 0.99: a
  // 16 mfp scattering shield) on a coarser 4 x 4 x 12 mesh, solved by
  // plain source iteration (driven through the single-iteration API), by
  // source iteration with the DSA correction and by GMRES.
  api::RunConfig config =
      api::read_deck_file(std::string(UNSNAP_DECK_DIR) + "/diffusive.inp");
  config.mesh.dims = {4, 4, 12};
  const auto configure = [&](snap::IterationScheme scheme) {
    config.iteration = {.epsi = 1e-6,
                        .iitm = 600,
                        .oitm = 5,
                        .fixed_iterations = false,
                        .scheme = scheme,
                        .gmres_restart = 40};
  };

  configure(snap::IterationScheme::SourceIteration);
  const snap::Input input = config.to_input();
  const auto disc = std::make_shared<const core::Discretization>(input);
  core::TransportSolver plain_solver(disc, input, config.problem_data(*disc));
  const core::IterationResult plain =
      test::plain_source_iteration(plain_solver);
  const std::vector<double> plain_phi = values(plain_solver.scalar_flux());

  api::Run dsa_run(config);
  const core::IterationResult dsa = *dsa_run.execute().iteration;

  configure(snap::IterationScheme::Gmres);
  api::Run gmres_run(config);
  const core::IterationResult gm = *gmres_run.execute().iteration;
  const std::vector<double> gmres_phi =
      values(gmres_run.solver()->scalar_flux());

  ASSERT_TRUE(gm.converged);
  ASSERT_TRUE(dsa.converged);
  EXPECT_TRUE(dsa.diffusion_preconditioned);
  // The acceptance bounds: GMRES in <= 15% and DSA-corrected source
  // iteration in <= 20% of plain SI's sweeps — or plain SI failed to
  // converge inside its budget at all.
  if (plain.converged) {
    EXPECT_LE(gm.sweeps, static_cast<int>(0.15 * plain.sweeps))
        << "plain si " << plain.sweeps << " sweeps vs gmres " << gm.sweeps;
    EXPECT_LE(dsa.sweeps, static_cast<int>(0.20 * plain.sweeps))
        << "plain si " << plain.sweeps << " sweeps vs dsa si " << dsa.sweeps;
    EXPECT_LT(max_rel_diff(plain_phi, gmres_phi), 1e-3);
  }
  // Regardless, GMRES must be squarely in the O(10)-sweeps regime.
  EXPECT_LE(gm.sweeps, 60);
}

}  // namespace
}  // namespace unsnap

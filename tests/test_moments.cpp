#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "angular/harmonics.hpp"
#include "core/transport_solver.hpp"

namespace unsnap {
namespace {

using angular::QuadratureKind;
using angular::QuadratureSet;
using angular::SphericalHarmonics;

TEST(SphericalHarmonics, ZerothMomentIsOne) {
  const SphericalHarmonics sh(3);
  std::vector<double> y(static_cast<std::size_t>(sh.count()));
  sh.evaluate({0.3, -0.5, std::sqrt(1.0 - 0.09 - 0.25)}, y.data());
  EXPECT_DOUBLE_EQ(y[0], 1.0);
}

TEST(SphericalHarmonics, FirstMomentsAreDirectionCosines) {
  // Racah normalisation: Y_1,-1 = Omega_y, Y_1,0 = Omega_z,
  // Y_1,1 = Omega_x.
  const SphericalHarmonics sh(1);
  const fem::Vec3 omega{0.48, 0.6, 0.64};
  std::vector<double> y(4);
  sh.evaluate(omega, y.data());
  EXPECT_NEAR(y[SphericalHarmonics::index(1, -1)], omega[1], 1e-14);
  EXPECT_NEAR(y[SphericalHarmonics::index(1, 0)], omega[2], 1e-14);
  EXPECT_NEAR(y[SphericalHarmonics::index(1, 1)], omega[0], 1e-14);
}

TEST(SphericalHarmonics, AdditionTheoremAtEqualArguments) {
  // sum_m Y_lm(Omega)^2 = P_l(1) = 1 for the Racah normalisation, at any
  // direction — a sharp check of every normalisation factor.
  const SphericalHarmonics sh(4);
  std::vector<double> y(static_cast<std::size_t>(sh.count()));
  const QuadratureSet quad(QuadratureKind::SnapLike, 6);
  for (int oct = 0; oct < angular::kOctants; oct += 3)
    for (int a = 0; a < quad.per_octant(); ++a) {
      sh.evaluate(quad.direction(oct, a), y.data());
      for (int l = 0; l <= 4; ++l) {
        double sum = 0.0;
        for (int m = -l; m <= l; ++m)
          sum += y[SphericalHarmonics::index(l, m)] *
                 y[SphericalHarmonics::index(l, m)];
        EXPECT_NEAR(sum, 1.0, 1e-11) << "l=" << l;
      }
    }
}

TEST(SphericalHarmonics, OrthogonalUnderProductQuadrature) {
  // <Y_lm Y_l'm'> = delta / (2l+1) with weights summing to 1. The product
  // rule integrates these low-order polynomials essentially exactly.
  const SphericalHarmonics sh(2);
  const QuadratureSet quad(QuadratureKind::Product, 36);
  const int count = sh.count();
  std::vector<double> y(static_cast<std::size_t>(count));
  std::vector<double> gram(static_cast<std::size_t>(count) * count, 0.0);
  for (int oct = 0; oct < angular::kOctants; ++oct)
    for (int a = 0; a < quad.per_octant(); ++a) {
      sh.evaluate(quad.direction(oct, a), y.data());
      for (int i = 0; i < count; ++i)
        for (int j = 0; j < count; ++j)
          gram[static_cast<std::size_t>(i) * count + j] +=
              quad.weight(a) * y[i] * y[j];
    }
  for (int i = 0; i < count; ++i)
    for (int j = 0; j < count; ++j) {
      const double expected =
          i == j ? 1.0 / (2 * sh.l_of(i) + 1) : 0.0;
      EXPECT_NEAR(gram[static_cast<std::size_t>(i) * count + j], expected,
                  1e-10)
          << "i=" << i << " j=" << j;
    }
}

TEST(SphericalHarmonics, IndexingRoundTrips) {
  for (int l = 0; l <= 4; ++l)
    for (int m = -l; m <= l; ++m) {
      const int idx = SphericalHarmonics::index(l, m);
      EXPECT_EQ(SphericalHarmonics::degree_of(idx), l);
    }
  const SphericalHarmonics sh(3);
  for (int idx = 0; idx < sh.count(); ++idx)
    EXPECT_EQ(sh.l_of(idx), SphericalHarmonics::degree_of(idx));
}

// ---- transport with scattering moments ---------------------------------

snap::Input moment_input(int nmom) {
  snap::Input input;
  input.dims = {4, 4, 4};
  input.order = 1;
  // Product quadrature integrates the spherical harmonics up to the orders
  // used here exactly; SNAP's artificial set would leak particles through
  // the anisotropic source at its quadrature-error level.
  input.quadrature = angular::QuadratureKind::Product;
  input.nang = 9;
  input.ng = 2;
  input.nmom = nmom;
  input.twist = 0.001;
  input.shuffle_seed = 3;
  input.mat_opt = 0;
  input.src_opt = 0;
  input.scattering_ratio = 0.5;
  input.fixed_iterations = false;
  input.epsi = 1e-9;
  input.iitm = 400;
  input.oitm = 60;
  input.num_threads = 2;
  return input;
}

TEST(AnisotropicScattering, ZeroHigherMomentsReproduceIsotropicRun) {
  // nmom = 2 with the l = 1 transfers forced to zero must match the
  // nmom = 1 solver
  // to rounding: the moment machinery collapses to the isotropic path.
  snap::Input iso = moment_input(1);
  core::TransportSolver iso_solver(iso);
  iso_solver.run();

  snap::Input aniso = moment_input(2);
  const auto disc = std::make_shared<const core::Discretization>(aniso);
  auto xs = xs::Library::synthetic(aniso.ng, aniso.scattering_ratio, 2);
  for (xs::Material& m : xs.materials)
    for (int gf = 0; gf < aniso.ng; ++gf)
      for (int gt = 0; gt < aniso.ng; ++gt) m.sigs(1, gf, gt) = 0.0;
  core::ProblemData problem(
      *disc, std::move(xs), snap::assign_materials(disc->mesh(), 0),
      snap::make_external_source(disc->mesh(), 0, aniso.ng));
  core::TransportSolver aniso_solver(disc, aniso, std::move(problem));
  aniso_solver.run();

  const auto& a = iso_solver.scalar_flux();
  const auto& b = aniso_solver.scalar_flux();
  ASSERT_EQ(a.size(), b.size());
  for (int e = 0; e < disc->num_elements(); ++e)
    for (int g = 0; g < aniso.ng; ++g)
      for (int i = 0; i < disc->num_nodes(); ++i)
        EXPECT_NEAR(a.at(e, g)[i], b.at(e, g)[i],
                    1e-10 * (1.0 + std::fabs(a.at(e, g)[i])));
}

TEST(AnisotropicScattering, InfiniteMediumMomentsVanish) {
  // Fully reflected uniform problem: psi is isotropic, so every l >= 1
  // flux moment integrates to ~0 and phi stays q / siga regardless of the
  // anisotropic orders. One group so q / siga is the exact answer.
  snap::Input input = moment_input(2);
  input.ng = 1;
  input.twist = 0.0;
  for (auto& b : input.boundary) b = snap::Input::Bc::Reflective;
  core::TransportSolver solver(input);
  const core::IterationResult result = solver.run();
  EXPECT_TRUE(result.converged);

  const double expected = 1.0 / solver.problem().siga_eg(0, 0);
  const double* ph = solver.scalar_flux().at(0, 0);
  EXPECT_NEAR(ph[0], expected, 1e-6 * expected);
  for (const auto& moment : solver.flux_moments()) {
    for (int e = 0; e < solver.discretization().num_elements(); ++e)
      for (int i = 0; i < solver.discretization().num_nodes(); ++i)
        EXPECT_NEAR(moment.at(e, 0)[i], 0.0, 1e-6 * expected);
  }
}

TEST(AnisotropicScattering, ChangesSolutionWhenMomentsNonZero) {
  snap::Input iso = moment_input(1);
  core::TransportSolver iso_solver(iso);
  iso_solver.run();
  snap::Input aniso = moment_input(3);
  core::TransportSolver aniso_solver(aniso);
  aniso_solver.run();
  double diff = 0.0;
  for (std::size_t i = 0; i < iso_solver.scalar_flux().size(); ++i)
    diff = std::max(diff,
                    std::fabs(iso_solver.scalar_flux().data()[i] -
                              aniso_solver.scalar_flux().data()[i]));
  EXPECT_GT(diff, 1e-6);  // forward peaking must move the solution
}

TEST(AnisotropicScattering, BalanceStillCloses) {
  // Higher scattering orders redistribute direction, not particles: the
  // l = 0 conservation property keeps the global balance exact.
  snap::Input input = moment_input(3);
  core::TransportSolver solver(input);
  const core::IterationResult result = solver.run();
  EXPECT_TRUE(result.converged);
  EXPECT_LT(std::fabs(solver.balance().relative()), 1e-6);
}

TEST(AnisotropicScattering, SchemeInvarianceHoldsWithMoments) {
  snap::Input serial = moment_input(2);
  serial.fixed_iterations = true;
  serial.iitm = 3;
  serial.oitm = 1;
  serial.scheme = snap::ConcurrencyScheme::Serial;
  core::TransportSolver a(serial);
  a.run();

  snap::Input threaded = serial;
  threaded.scheme = snap::ConcurrencyScheme::ElementsGroups;
  threaded.layout = snap::FluxLayout::AngleGroupElement;
  threaded.num_threads = 4;
  core::TransportSolver b(threaded);
  b.run();

  for (int e = 0; e < a.discretization().num_elements(); ++e)
    for (int g = 0; g < serial.ng; ++g)
      for (int i = 0; i < a.discretization().num_nodes(); ++i)
        EXPECT_NEAR(a.scalar_flux().at(e, g)[i],
                    b.scalar_flux().at(e, g)[i], 1e-13);
}

TEST(AnisotropicScattering, ForwardPeakingShiftsLeakage) {
  // With a central source and forward-peaked scattering, scattered
  // particles keep their direction of travel more often, so fewer return
  // absorptions happen near the source and the leakage fraction rises.
  auto leak_fraction = [](int nmom) {
    snap::Input input = moment_input(nmom);
    input.dims = {5, 5, 5};  // odd count: the central source box is nonempty
    input.src_opt = 2;
    input.scattering_ratio = 0.8;
    core::TransportSolver solver(input);
    solver.run();
    const auto balance = solver.balance();
    return balance.leakage / balance.source;
  };
  EXPECT_GT(leak_fraction(3), leak_fraction(1));
}

}  // namespace
}  // namespace unsnap

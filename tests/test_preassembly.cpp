#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/preassembly.hpp"
#include "core/transport_solver.hpp"
#include "linalg/gauss_elim.hpp"

namespace unsnap::core {
namespace {

snap::Input pre_input(int order = 1) {
  snap::Input input;
  input.dims = {3, 3, 3};
  input.order = order;
  input.nang = 3;
  input.ng = 2;
  input.twist = 0.001;
  input.shuffle_seed = 13;
  input.mat_opt = 1;
  input.src_opt = 0;
  input.scattering_ratio = 0.4;
  input.iitm = 4;
  input.oitm = 1;
  input.num_threads = 2;
  return input;
}

std::vector<double> canonical_phi(const TransportSolver& solver) {
  const Discretization& disc = solver.discretization();
  const int ng = solver.problem().xs.ng;
  std::vector<double> out;
  for (int e = 0; e < disc.num_elements(); ++e)
    for (int g = 0; g < ng; ++g) {
      const double* ph = solver.scalar_flux().at(e, g);
      out.insert(out.end(), ph, ph + disc.num_nodes());
    }
  return out;
}

TEST(Preassembly, MatchesOnTheFlyAssembly) {
  TransportSolver reference(pre_input());
  reference.run();
  const std::vector<double> phi_ref = canonical_phi(reference);

  TransportSolver pre(pre_input());
  pre.enable_preassembly();
  pre.run();
  const std::vector<double> phi_pre = canonical_phi(pre);

  ASSERT_EQ(phi_ref.size(), phi_pre.size());
  for (std::size_t i = 0; i < phi_ref.size(); ++i)
    EXPECT_NEAR(phi_ref[i], phi_pre[i],
                1e-10 * (1.0 + std::fabs(phi_ref[i])));
}

TEST(Preassembly, WorksForQuadraticElements) {
  TransportSolver reference(pre_input(2));
  reference.run();
  TransportSolver pre(pre_input(2));
  pre.enable_preassembly();
  pre.run();
  const auto a = canonical_phi(reference), b = canonical_phi(pre);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], 1e-9 * (1.0 + std::fabs(a[i])));
}

// One system at a time: psi through the stored inverse against
// assemble-and-solve, on a converged state so every upwind trace is live.
template <int N, int NF>
void expect_apply_matches_solve(int order) {
  TransportSolver solver(pre_input(order));
  solver.run();
  const Discretization& disc = solver.discretization();
  const int n = disc.num_nodes();
  ASSERT_TRUE(N == linalg::kDynamic || N == n);
  const Assembler assembler(disc, solver.problem());
  const PreassembledOperator pre(assembler);
  AngularFlux psi = solver.angular_flux();
  NodalField phi = solver.scalar_flux();
  const NodalField q = solver.scalar_flux();
  SweepState state;
  state.psi = &psi;
  state.phi = &phi;
  state.qin = &q;
  AssemblyContext ctx;
  ctx.resize(n, disc.nodes_per_face());
  linalg::Matrix a(n, n);
  std::vector<double> solved(static_cast<std::size_t>(n));
  for (int oct = 0; oct < angular::kOctants; ++oct)
    for (int ang = 0; ang < disc.nang(); ++ang) {
      state.schedule = &disc.schedules().get(oct, ang);
      const Vec3 omega = disc.quadrature().direction(oct, ang);
      for (int e = 0; e < disc.num_elements(); e += 5)
        for (int g = 0; g < solver.problem().xs.ng; ++g) {
          assembler.couple<N, NF>(ctx.coupling, e, omega, /*matrix=*/true);
          assembler.assemble_rhs<N, NF>(ctx, ctx.coupling, state, oct, ang, e,
                                        g);
          solved.assign(ctx.rhs.begin(), ctx.rhs.end());
          const double sigt = solver.problem().sigt_eg(e, g);
          assembler.assemble_matrix<N, NF>(a.data(), ctx.coupling, e,
                                           {&sigt, 1});
          linalg::gauss_solve<N>(a.view(), solved);
          const double* applied = pre.apply<N>(ctx, oct, ang, e, g);
          double scale = 0.0;
          for (const double v : solved) scale = std::max(scale, std::fabs(v));
          for (int i = 0; i < n; ++i)
            ASSERT_NEAR(applied[i], solved[static_cast<std::size_t>(i)],
                        1e-12 * scale)
                << "oct " << oct << " angle " << ang << " element " << e
                << " group " << g << " node " << i;
        }
    }
}

TEST(PreassemblyApply, MatchesAssembleAndSolveAtTheFixedExtent) {
  expect_apply_matches_solve<8, 4>(1);
}

TEST(PreassemblyApply, MatchesAssembleAndSolveAtTheDynamicExtent) {
  expect_apply_matches_solve<linalg::kDynamic, linalg::kDynamic>(2);
}

TEST(PreassemblyFootprint, MatchesPaperFactorEight) {
  // Paper §IV-B-1: for linear elements the pre-assembled matrices cost a
  // factor (p+1)^3 = 8 more than the angular flux array.
  TransportSolver solver(pre_input(1));
  solver.enable_preassembly();
  const auto* pre = solver.preassembly();
  ASSERT_NE(pre, nullptr);
  const std::size_t psi_bytes =
      solver.angular_flux().size() * sizeof(double);
  EXPECT_EQ(pre->bytes(), psi_bytes * 8);
}

TEST(Preassembly, DisableRestoresAssembledPath) {
  TransportSolver solver(pre_input());
  solver.enable_preassembly();
  EXPECT_NE(solver.preassembly(), nullptr);
  solver.set_preassembly(nullptr);
  EXPECT_EQ(solver.preassembly(), nullptr);
  EXPECT_NO_THROW(solver.run());
}

}  // namespace
}  // namespace unsnap::core

#include <gtest/gtest.h>

#include <cmath>

#include "core/source.hpp"
#include "core/transport_solver.hpp"

namespace unsnap::core {
namespace {

snap::Input tiny_input() {
  snap::Input input;
  input.dims = {2, 2, 2};
  input.order = 1;
  input.nang = 2;
  input.ng = 3;
  input.twist = 0.0;
  input.mat_opt = 0;
  input.src_opt = 0;
  input.scattering_ratio = 0.5;
  return input;
}

TEST(SourceUpdater, OuterSourceMatchesHandComputation) {
  const snap::Input input = tiny_input();
  const auto disc = std::make_shared<const Discretization>(input);
  const ProblemData problem(*disc, input);
  const SourceUpdater updater(*disc, problem);
  const int ne = disc->num_elements(), n = disc->num_nodes();

  NodalField phi(input.layout, ne, input.ng, n);
  for (int e = 0; e < ne; ++e)
    for (int g = 0; g < input.ng; ++g)
      for (int i = 0; i < n; ++i) phi.at(e, g)[i] = 1.0 + g;  // flat per group

  NodalField qout(input.layout, ne, input.ng, n);
  updater.update_outer(phi, qout);

  const auto& sigs = problem.xs.materials[0].sigs;
  for (int e = 0; e < ne; ++e)
    for (int g = 0; g < input.ng; ++g) {
      double expected = problem.qext(e, g);
      for (int gp = 0; gp < input.ng; ++gp)
        if (gp != g) expected += sigs(0, gp, g) * (1.0 + gp);
      for (int i = 0; i < n; ++i)
        EXPECT_NEAR(qout.at(e, g)[i], expected, 1e-14);
    }
}

TEST(SourceUpdater, InnerAddsOnlyInGroupTerm) {
  const snap::Input input = tiny_input();
  const auto disc = std::make_shared<const Discretization>(input);
  const ProblemData problem(*disc, input);
  const SourceUpdater updater(*disc, problem);
  const int ne = disc->num_elements(), n = disc->num_nodes();

  NodalField phi(input.layout, ne, input.ng, n);
  phi.fill(2.0);
  NodalField qout(input.layout, ne, input.ng, n);
  qout.fill(0.5);
  NodalField qin(input.layout, ne, input.ng, n);
  updater.update_inner(phi, qout, qin);

  for (int e = 0; e < ne; ++e)
    for (int g = 0; g < input.ng; ++g) {
      const double expected =
          0.5 + problem.xs.materials[0].sigs(0, g, g) * 2.0;
      for (int i = 0; i < n; ++i)
        EXPECT_NEAR(qin.at(e, g)[i], expected, 1e-14);
    }
}

TEST(SourceUpdater, ZeroFluxGivesExternalSourceOnly) {
  const snap::Input input = tiny_input();
  const auto disc = std::make_shared<const Discretization>(input);
  const ProblemData problem(*disc, input);
  const SourceUpdater updater(*disc, problem);
  const int ne = disc->num_elements(), n = disc->num_nodes();
  NodalField phi(input.layout, ne, input.ng, n);
  NodalField qout(input.layout, ne, input.ng, n);
  updater.update_outer(phi, qout);
  for (int e = 0; e < ne; ++e)
    for (int g = 0; g < input.ng; ++g)
      for (int i = 0; i < n; ++i)
        EXPECT_DOUBLE_EQ(qout.at(e, g)[i], problem.qext(e, g));
}

TEST(MaxRelativeChange, RelativeAndAbsoluteRegimes) {
  NodalField a(snap::FluxLayout::AngleElementGroup, 1, 1, 4);
  NodalField b = a;
  a.data()[0] = 2.0;
  b.data()[0] = 1.0;  // relative change 1.0
  a.data()[1] = 1e-16;
  b.data()[1] = 0.0;  // below floor: absolute change 1e-16
  EXPECT_NEAR(max_relative_change(a, b), 1.0, 1e-14);

  b.data()[0] = 2.0;  // now only the tiny absolute diff remains
  EXPECT_NEAR(max_relative_change(a, b), 1e-16, 1e-18);
}

TEST(MaxRelativeChange, IdenticalFieldsGiveZero) {
  NodalField a(snap::FluxLayout::AngleGroupElement, 3, 2, 8);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<double>(i);
  const NodalField b = a;
  EXPECT_DOUBLE_EQ(max_relative_change(a, b), 0.0);
}

TEST(ProblemDataChecks, RejectsInconsistentShapes) {
  const snap::Input input = tiny_input();
  const auto disc = std::make_shared<const Discretization>(input);
  const auto xs = xs::Library::synthetic(input.ng, 0.5);
  std::vector<int> material(static_cast<std::size_t>(disc->num_elements()),
                            0);
  NDArray<double, 2> bad_q({2, 2}, 1.0);  // wrong shape
  EXPECT_THROW(ProblemData(*disc, xs, material, std::move(bad_q)),
               InvalidInput);

  NDArray<double, 2> q(
      {static_cast<std::size_t>(disc->num_elements()),
       static_cast<std::size_t>(input.ng)},
      1.0);
  std::vector<int> bad_material(
      static_cast<std::size_t>(disc->num_elements()), 9);  // no material 9
  EXPECT_THROW(
      ProblemData(*disc, xs, bad_material, std::move(q)),
      InvalidInput);
}

TEST(TransportSolverChecks, RejectsMismatchedSharedDiscretisation) {
  snap::Input input = tiny_input();
  const auto disc = std::make_shared<const Discretization>(input);
  snap::Input wrong_order = input;
  wrong_order.order = 2;
  EXPECT_THROW(TransportSolver(disc, wrong_order), InvalidInput);
  snap::Input wrong_nang = input;
  wrong_nang.nang = 5;
  EXPECT_THROW(TransportSolver(disc, wrong_nang), InvalidInput);
}

}  // namespace
}  // namespace unsnap::core

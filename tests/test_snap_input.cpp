#include <gtest/gtest.h>

#include "snap/input.hpp"
#include "util/assert.hpp"

namespace unsnap::snap {
namespace {

// ---- name round-trips ---------------------------------------------------

TEST(InputStrings, LayoutRoundTrips) {
  for (const FluxLayout layout :
       {FluxLayout::AngleElementGroup, FluxLayout::AngleGroupElement})
    EXPECT_EQ(layout_from_string(to_string(layout)), layout);
}

TEST(InputStrings, LayoutNamesAreStable) {
  EXPECT_EQ(to_string(FluxLayout::AngleElementGroup), "aeg");
  EXPECT_EQ(to_string(FluxLayout::AngleGroupElement), "age");
}

TEST(InputStrings, SchemeRoundTrips) {
  for (const ConcurrencyScheme scheme :
       {ConcurrencyScheme::Serial, ConcurrencyScheme::Elements,
        ConcurrencyScheme::ElementsGroups, ConcurrencyScheme::Groups,
        ConcurrencyScheme::AnglesAtomic, ConcurrencyScheme::AngleBatch})
    EXPECT_EQ(scheme_from_string(to_string(scheme)), scheme);
}

TEST(InputStrings, SchemeNamesAreStable) {
  EXPECT_EQ(to_string(ConcurrencyScheme::ElementsGroups), "elements-groups");
  EXPECT_EQ(to_string(ConcurrencyScheme::AnglesAtomic), "angles-atomic");
  EXPECT_EQ(to_string(ConcurrencyScheme::AngleBatch), "angle-batch");
}

TEST(InputStrings, CycleStrategyRoundTrips) {
  for (const sweep::CycleStrategy strategy :
       {sweep::CycleStrategy::Abort, sweep::CycleStrategy::LagScc})
    EXPECT_EQ(sweep::cycle_strategy_from_string(sweep::to_string(strategy)),
              strategy);
}

TEST(InputStrings, CycleStrategyNamesAreStable) {
  EXPECT_EQ(sweep::to_string(sweep::CycleStrategy::Abort), "abort");
  EXPECT_EQ(sweep::to_string(sweep::CycleStrategy::LagScc), "lag-scc");
}

TEST(InputStrings, UnknownCycleStrategyThrows) {
  EXPECT_THROW(sweep::cycle_strategy_from_string("lag_scc"), InvalidInput);
  EXPECT_THROW(sweep::cycle_strategy_from_string(""), InvalidInput);
}

TEST(InputStrings, IterationSchemeRoundTrips) {
  for (const IterationScheme scheme :
       {IterationScheme::SourceIteration, IterationScheme::Gmres})
    EXPECT_EQ(iteration_scheme_from_string(to_string(scheme)), scheme);
}

TEST(InputStrings, IterationSchemeNamesAreStable) {
  EXPECT_EQ(to_string(IterationScheme::SourceIteration),
            "source-iteration");
  EXPECT_EQ(to_string(IterationScheme::Gmres), "gmres");
  EXPECT_EQ(iteration_scheme_from_string("si"),
            IterationScheme::SourceIteration);
}

TEST(InputStrings, UnknownIterationSchemeThrows) {
  EXPECT_THROW((void)iteration_scheme_from_string("GMRES"), InvalidInput);
  EXPECT_THROW((void)iteration_scheme_from_string("krylov"), InvalidInput);
  EXPECT_THROW((void)iteration_scheme_from_string(""), InvalidInput);
}

TEST(InputStrings, SweepExchangeRoundTrips) {
  for (const SweepExchange exchange :
       {SweepExchange::BlockJacobi, SweepExchange::Pipelined})
    EXPECT_EQ(sweep_exchange_from_string(to_string(exchange)), exchange);
}

TEST(InputStrings, SweepExchangeNamesAreStable) {
  EXPECT_EQ(to_string(SweepExchange::BlockJacobi), "jacobi");
  EXPECT_EQ(to_string(SweepExchange::Pipelined), "pipelined");
  EXPECT_EQ(sweep_exchange_from_string("block-jacobi"),
            SweepExchange::BlockJacobi);
}

TEST(InputStrings, UnknownSweepExchangeThrows) {
  EXPECT_THROW((void)sweep_exchange_from_string("kba"), InvalidInput);
  EXPECT_THROW((void)sweep_exchange_from_string("Pipelined"), InvalidInput);
  EXPECT_THROW((void)sweep_exchange_from_string(""), InvalidInput);
}

TEST(InputStrings, UnknownLayoutThrows) {
  EXPECT_THROW(layout_from_string("gae"), InvalidInput);
  EXPECT_THROW(layout_from_string(""), InvalidInput);
  EXPECT_THROW(layout_from_string("AEG"), InvalidInput);  // case sensitive
}

TEST(InputStrings, UnknownSchemeThrows) {
  EXPECT_THROW(scheme_from_string("elements_groups"), InvalidInput);
  EXPECT_THROW(scheme_from_string("parallel"), InvalidInput);
  EXPECT_THROW(scheme_from_string(""), InvalidInput);
}

TEST(InputStrings, UnknownNameErrorNamesTheOffender) {
  try {
    layout_from_string("bogus");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& err) {
    EXPECT_NE(std::string(err.what()).find("bogus"), std::string::npos);
  }
}

// ---- validation ---------------------------------------------------------

Input valid_input() {
  Input input;
  input.dims = {4, 4, 4};
  input.nang = 4;
  input.ng = 2;
  return input;
}

TEST(InputValidate, AcceptsTheDefaults) {
  EXPECT_NO_THROW(Input{}.validate());
  EXPECT_NO_THROW(valid_input().validate());
}

TEST(InputValidate, RejectsOutOfRangeOrder) {
  Input input = valid_input();
  input.order = 0;
  EXPECT_THROW(input.validate(), InvalidInput);
  input.order = 9;
  EXPECT_THROW(input.validate(), InvalidInput);
  input.order = -1;
  EXPECT_THROW(input.validate(), InvalidInput);
}

TEST(InputValidate, RejectsOutOfRangeNmom) {
  Input input = valid_input();
  input.nmom = 0;
  EXPECT_THROW(input.validate(), InvalidInput);
  input.nmom = 7;
  EXPECT_THROW(input.validate(), InvalidInput);
}

TEST(InputValidate, RejectsNmomBeyondAngleCount) {
  Input input = valid_input();
  input.nang = 2;
  input.nmom = 3;  // in 1..6 but unresolvable by two angles per octant
  EXPECT_THROW(input.validate(), InvalidInput);
  input.nmom = 2;
  EXPECT_NO_THROW(input.validate());
}

TEST(InputValidate, RejectsNonPositiveEpsi) {
  Input input = valid_input();
  input.epsi = 0.0;
  EXPECT_THROW(input.validate(), InvalidInput);
  input.epsi = -1e-6;
  EXPECT_THROW(input.validate(), InvalidInput);
}

TEST(InputValidate, RejectsNonPositiveIterationCounts) {
  Input input = valid_input();
  input.iitm = 0;
  EXPECT_THROW(input.validate(), InvalidInput);
  input = valid_input();
  input.oitm = -1;
  EXPECT_THROW(input.validate(), InvalidInput);
}

TEST(InputValidate, RejectsNonPositiveGmresControls) {
  Input input = valid_input();
  input.gmres_restart = 0;
  EXPECT_THROW(input.validate(), InvalidInput);
  input = valid_input();
  input.gmres_restart = -3;
  EXPECT_THROW(input.validate(), InvalidInput);
  input = valid_input();
  input.gmres_max_iters = 0;
  EXPECT_THROW(input.validate(), InvalidInput);
  input = valid_input();
  input.gmres_max_iters = -1;
  EXPECT_THROW(input.validate(), InvalidInput);
  // The controls are validated regardless of the selected scheme.
  input = valid_input();
  input.iteration_scheme = IterationScheme::SourceIteration;
  input.gmres_restart = 0;
  EXPECT_THROW(input.validate(), InvalidInput);
}

TEST(InputValidate, AcceptsGmresScheme) {
  Input input = valid_input();
  input.iteration_scheme = IterationScheme::Gmres;
  input.gmres_restart = 5;
  input.gmres_max_iters = 50;
  EXPECT_NO_THROW(input.validate());
}

TEST(InputValidate, RejectsReflectiveWithLargeTwist) {
  Input input = valid_input();
  input.boundary[0] = Input::Bc::Reflective;
  input.twist = 0.2;
  EXPECT_THROW(input.validate(), InvalidInput);
  input.twist = -0.2;  // magnitude matters, not sign
  EXPECT_THROW(input.validate(), InvalidInput);
}

TEST(InputValidate, AcceptsReflectiveWithSmallTwist) {
  Input input = valid_input();
  for (auto& b : input.boundary) b = Input::Bc::Reflective;
  input.twist = 0.001;  // the paper's default stress twist
  EXPECT_NO_THROW(input.validate());
  input.twist = 0.0;
  EXPECT_NO_THROW(input.validate());
}

TEST(InputValidate, LargeTwistFineWithoutReflectiveSides) {
  Input input = valid_input();
  input.twist = 0.3;  // sweep_explorer territory
  EXPECT_NO_THROW(input.validate());
}

}  // namespace
}  // namespace unsnap::snap

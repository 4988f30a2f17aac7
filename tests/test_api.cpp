#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "api/driver.hpp"
#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "util/assert.hpp"

namespace unsnap::api {
namespace {

// ---- RunConfig lowering --------------------------------------------------

// A small, fully deterministic problem (serial sweeps, one thread),
// spelled once as a hand-filled snap::Input and once as a RunConfig.
snap::Input reference_input() {
  snap::Input input;
  input.dims = {4, 4, 4};
  input.order = 1;
  input.nang = 4;
  input.ng = 2;
  input.twist = 0.002;
  input.shuffle_seed = 11;
  input.mat_opt = 1;
  input.src_opt = 1;
  input.scattering_ratio = 0.5;
  input.epsi = 1e-6;
  input.iitm = 50;
  input.oitm = 8;
  input.fixed_iterations = false;
  input.scheme = snap::ConcurrencyScheme::Serial;
  input.num_threads = 1;
  return input;
}

RunConfig reference_config() {
  RunConfig config;
  config.mesh.dims = {4, 4, 4};
  config.mesh.twist = 0.002;
  config.mesh.shuffle_seed = 11;
  config.angular.nang = 4;
  config.materials.num_groups = 2;
  config.materials.mat_opt = 1;
  config.materials.scattering_ratio = 0.5;
  config.source.src_opt = 1;
  config.iteration = {
      .epsi = 1e-6, .iitm = 50, .oitm = 8, .fixed_iterations = false};
  config.execution.scheme = snap::ConcurrencyScheme::Serial;
  config.execution.num_threads = 1;
  return config;
}

void expect_inputs_equal(const snap::Input& a, const snap::Input& b) {
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.extent, b.extent);
  EXPECT_EQ(a.twist, b.twist);
  EXPECT_EQ(a.shuffle_seed, b.shuffle_seed);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.nang, b.nang);
  EXPECT_EQ(a.ng, b.ng);
  EXPECT_EQ(a.nmom, b.nmom);
  EXPECT_EQ(a.quadrature, b.quadrature);
  EXPECT_EQ(a.mat_opt, b.mat_opt);
  EXPECT_EQ(a.src_opt, b.src_opt);
  EXPECT_EQ(a.scattering_ratio, b.scattering_ratio);
  EXPECT_EQ(a.boundary, b.boundary);
  EXPECT_EQ(a.epsi, b.epsi);
  EXPECT_EQ(a.iitm, b.iitm);
  EXPECT_EQ(a.oitm, b.oitm);
  EXPECT_EQ(a.fixed_iterations, b.fixed_iterations);
  EXPECT_EQ(a.iteration_scheme, b.iteration_scheme);
  EXPECT_EQ(a.layout, b.layout);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.num_threads, b.num_threads);
  EXPECT_EQ(a.cycle_strategy, b.cycle_strategy);
  EXPECT_EQ(a.validate_mesh, b.validate_mesh);
  EXPECT_EQ(a.time_solve, b.time_solve);
  EXPECT_EQ(a.sweep_exchange, b.sweep_exchange);
}

TEST(RunConfigLowering, ToInputMatchesTheHandFilledInput) {
  expect_inputs_equal(reference_config().to_input(), reference_input());
}

TEST(RunConfigLowering, DecompositionLowersTheExchange) {
  RunConfig config = reference_config();
  config.decomposition = {
      .px = 2, .py = 3, .exchange = snap::SweepExchange::Pipelined};
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.to_input().sweep_exchange, snap::SweepExchange::Pipelined);
  config.decomposition.px = 0;
  EXPECT_THROW(config.validate(), InvalidInput);
}

TEST(RunConfigLowering, SolveMatchesHandFilledInputExactly) {
  // Converged (not fixed-count) iterations through api::Run against the
  // core solver fed the hand-filled input: same counts, flux and balance.
  core::TransportSolver legacy(reference_input());
  const core::IterationResult legacy_result = legacy.run();

  api::Run run(reference_config());
  const RunRecord record = run.execute();
  ASSERT_TRUE(record.iteration.has_value());
  const core::IterationResult& result = *record.iteration;
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.converged, legacy_result.converged);
  EXPECT_EQ(result.outers, legacy_result.outers);
  EXPECT_EQ(result.inners, legacy_result.inners);
  EXPECT_EQ(result.final_inner_change, legacy_result.final_inner_change);
  EXPECT_EQ(result.final_outer_change, legacy_result.final_outer_change);

  const core::NodalField& flux = run.solver()->scalar_flux();
  const core::NodalField& ref = legacy.scalar_flux();
  ASSERT_EQ(flux.size(), ref.size());
  for (std::size_t i = 0; i < flux.size(); ++i)
    ASSERT_EQ(flux.data()[i], ref.data()[i]) << "flux entry " << i;

  ASSERT_TRUE(record.balance.has_value());
  const core::BalanceReport legacy_balance = legacy.balance();
  EXPECT_EQ(record.balance->source, legacy_balance.source);
  EXPECT_EQ(record.balance->absorption, legacy_balance.absorption);
  EXPECT_EQ(record.balance->leakage, legacy_balance.leakage);
  EXPECT_NEAR(record.balance->residual(), legacy_balance.residual(), 1e-12);
}

// ---- scenario registry --------------------------------------------------

Scenario named(const std::string& name) {
  return {name, "summary of " + name, nullptr,
          [](const Cli&) { return 0; }};
}

TEST(ScenarioRegistryTest, LookupFindsRegisteredScenarios) {
  ScenarioRegistry registry;
  registry.add(named("beta"));
  registry.add(named("alpha"));
  EXPECT_TRUE(registry.contains("alpha"));
  EXPECT_FALSE(registry.contains("gamma"));
  EXPECT_EQ(registry.get("beta").summary, "summary of beta");
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ScenarioRegistryTest, ListIsSortedByName) {
  ScenarioRegistry registry;
  registry.add(named("zeta"));
  registry.add(named("alpha"));
  registry.add(named("mid"));
  const auto list = registry.list();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0]->name, "alpha");
  EXPECT_EQ(list[1]->name, "mid");
  EXPECT_EQ(list[2]->name, "zeta");
}

TEST(ScenarioRegistryTest, UnknownNameThrowsAndNamesTheKnownOnes) {
  ScenarioRegistry registry;
  registry.add(named("quickstart"));
  try {
    (void)registry.get("quickstat");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("quickstat"), std::string::npos);
    EXPECT_NE(what.find("quickstart"), std::string::npos);
  }
}

TEST(ScenarioRegistryTest, RejectsDuplicatesAndAnonymousScenarios) {
  ScenarioRegistry registry;
  registry.add(named("only"));
  EXPECT_THROW(registry.add(named("only")), InvalidInput);
  EXPECT_THROW(registry.add(named("")), InvalidInput);
  Scenario no_run = named("no-run");
  no_run.run = nullptr;
  EXPECT_THROW(registry.add(std::move(no_run)), InvalidInput);
  Scenario both = named("both");
  both.run_deck = [](const Cli&, RunConfig) { return 0; };
  EXPECT_THROW(registry.add(std::move(both)), InvalidInput);
}

// ---- driver -------------------------------------------------------------

TEST(DriverTest, MalformedScenarioArgumentsExitWithUsageError) {
  // None of the bundled scenarios is linked into the test binary, so
  // this name is unknown; malformed forms must fail the same way (exit
  // code 2).
  const char* unknown[] = {"unsnap", "--scenario", "not-registered"};
  EXPECT_EQ(run_driver(3, unknown, UNSNAP_DECK_DIR), 2);
  const char* empty_name[] = {"unsnap", "--scenario="};
  EXPECT_EQ(run_driver(2, empty_name, UNSNAP_DECK_DIR), 2);
  const char* dangling[] = {"unsnap", "--scenario"};
  EXPECT_EQ(run_driver(2, dangling, UNSNAP_DECK_DIR), 2);
  const char* stray[] = {"unsnap", "--frobnicate"};
  EXPECT_EQ(run_driver(2, stray, UNSNAP_DECK_DIR), 2);
}

TEST(DriverTest, ScenarioRunsItsTwinDeckUnlessDeckNamesAnother) {
  // The driver reads <deck_dir>/<name>.inp, or the file --deck names, and
  // hands the bound RunConfig to the scenario's run_deck.
  static std::string seen_title;
  if (!ScenarioRegistry::instance().contains("deck-title"))
    ScenarioRegistry::instance().add(
        {.name = "deck-title",
         .summary = "records its deck's title",
         .run_deck = [](const Cli&, RunConfig deck) {
           seen_title = deck.title;
           return 0;
         }});
  const std::string dir = ::testing::TempDir();
  const std::string twin = dir + "deck-title.inp";
  const std::string other = dir + "other-title.inp";
  std::ofstream(twin) << "[run]\ntitle = twin\n";
  std::ofstream(other) << "[run]\ntitle = other\n";

  const char* plain[] = {"unsnap", "--scenario", "deck-title"};
  EXPECT_EQ(run_driver(3, plain, dir), 0);
  EXPECT_EQ(seen_title, "twin");
  const char* named_deck[] = {"unsnap", "--scenario", "deck-title",
                              "--deck", other.c_str()};
  EXPECT_EQ(run_driver(5, named_deck, dir), 0);
  EXPECT_EQ(seen_title, "other");
  // A deck-run flag before the scenario name is a usage error.
  const char* misplaced[] = {"unsnap", "--deck", other.c_str(),
                             "--scenario", "deck-title"};
  EXPECT_EQ(run_driver(5, misplaced, dir), 2);
  std::remove(twin.c_str());
  // So is a missing twin.
  EXPECT_EQ(run_driver(3, plain, dir), 2);
  std::remove(other.c_str());
}

TEST(DriverTest, UnconvergedKeffDeckExitsOneUnlessItsBudgetIsFixed) {
  // A keff deck converges its power iteration by default, so running out
  // of max_outers is a failed run (exit 1); with fixed_iterations = true
  // the budget is the point of the run and it exits 0.
  const std::string path = ::testing::TempDir() + "unconverged_keff.inp";
  const auto run_deck = [&](const std::string& iteration) {
    {
      std::ofstream out(path);
      out << "[run]\nmode = keff\n[mesh]\ndims = 4 4 4\nextent = 4 4 4\n"
             "[angular]\nnang = 2\n[materials]\nmaterial = fuel water\n"
             "default_material = 1\nregion = 0 0.5 3.5 0.5 3.5 0.5 3.5\n"
             "[xs]\nfile = " UNSNAP_DECK_DIR "/xs/criticality.xs\n"
             "max_outers = 2\n[iteration]\n"
          << iteration << "[execution]\nthreads = 1\n";
    }
    const char* argv[] = {"unsnap", "--deck", path.c_str(), "--quiet"};
    return run_driver(4, argv, UNSNAP_DECK_DIR);
  };
  EXPECT_EQ(run_deck(""), 1);
  EXPECT_EQ(run_deck("fixed_iterations = true\n"), 0);
  std::remove(path.c_str());
}

// ---- report helpers -----------------------------------------------------

TEST(ReportHelpers, RegionAverageMatchesGroupAverageOnFullDomain) {
  api::RunConfig config;
  config.mesh = {.dims = {4, 4, 4}, .twist = 0.002, .shuffle_seed = 11};
  config.angular = {.nang = 4};
  config.materials.num_groups = 2;
  config.iteration = {.epsi = 1e-6, .iitm = 50, .oitm = 8,
                      .fixed_iterations = false};
  api::Run run(config);
  (void)run.execute();
  const core::Discretization& disc = run.solver()->discretization();
  const core::NodalField& phi = run.solver()->scalar_flux();
  const auto averages = group_volume_averages(disc, phi);
  ASSERT_EQ(averages.size(), 2u);
  const double full = region_average_flux(
      disc, phi, 0, [](const fem::Vec3&) { return true; });
  EXPECT_NEAR(full, averages[0], 1e-13);
  EXPECT_EQ(region_average_flux(disc, phi, 0,
                                [](const fem::Vec3&) { return false; }),
            0.0);
}

}  // namespace
}  // namespace unsnap::api

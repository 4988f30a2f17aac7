// api::Run facade: deck-driven runs must be bitwise-identical to the core
// solvers fed a hand-filled snap::Input (plus hand-built core::ProblemData
// for region decks) on every lowering route — generated, region and mixed
// materials/sources, distributed, mms, time — an injected discretisation
// must be checked and the deck's thread count pinned in every
// single-domain mode, the RunRecord must serialise to schema-shaped JSON,
// and the observer hooks must fire in lockstep with the recorded
// histories.

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/report.hpp"
#include "api/run.hpp"
#include "api/version.hpp"
#include "comm/distributed.hpp"
#include "core/manufactured.hpp"
#include "core/time_dependent.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace unsnap {
namespace {

void expect_bitwise_equal_flux(const core::NodalField& a,
                               const core::NodalField& b) {
  ASSERT_EQ(a.size(), b.size());
  const double* pa = a.data();
  const double* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(pa[i], pb[i]) << "flux entry " << i;
}

// --- deck path == hand-filled reference, per lowering route ---------------

TEST(Run, GeneratedRouteMatchesHandFilledInputBitwise) {
  const std::string deck =
      "[mesh]\ndims = 4 4 4\ntwist = 0.001\nshuffle_seed = 42\n"
      "[angular]\nnang = 4\n"
      "[materials]\nng = 2\nmat_opt = 1\nscattering_ratio = 0.5\n"
      "[source]\nsrc_opt = 1\n"
      "[iteration]\niitm = 10\noitm = 2\nfixed_iterations = true\n";
  api::Run run(api::read_deck_text(deck));
  const api::RunRecord record = run.execute();

  snap::Input input;
  input.dims = {4, 4, 4};
  input.twist = 0.001;
  input.shuffle_seed = 42;
  input.nang = 4;
  input.ng = 2;
  input.mat_opt = 1;
  input.scattering_ratio = 0.5;
  input.src_opt = 1;
  input.iitm = 10;
  input.oitm = 2;
  input.fixed_iterations = true;
  core::TransportSolver reference(input);
  const core::IterationResult result = reference.run();

  expect_bitwise_equal_flux(run.solver()->scalar_flux(),
                            reference.scalar_flux());
  ASSERT_TRUE(record.iteration.has_value());
  EXPECT_EQ(record.iteration->inners, result.inners);
  EXPECT_EQ(record.iteration->outers, result.outers);
  EXPECT_EQ(record.iteration->final_inner_change,
            result.final_inner_change);
  const core::BalanceReport balance = reference.balance();
  EXPECT_EQ(record.balance->source, balance.source);
  EXPECT_EQ(record.balance->absorption, balance.absorption);
  EXPECT_EQ(record.balance->leakage, balance.leakage);
}

TEST(Run, RegionRoutesMatchHandFilledDataBitwise) {
  // The diffusive geometry on a coarse mesh: three materials by z
  // threshold, a unit source in the z < 1 slab. Each deck below pairs a
  // material route with a source route; the reference problem data is
  // built by hand from the same rules.
  const std::string common =
      "[mesh]\ndims = 4 4 9\nextent = 1 1 3\ntwist = 0.001\n"
      "shuffle_seed = 7\n"
      "[angular]\nnang = 4\nquadrature = product\n"
      "[iteration]\niitm = 8\noitm = 1\nfixed_iterations = true\n";
  const std::string region_materials =
      "[materials]\nng = 2\nsigt = 0.1 5 20\nscattering = 0.5 0.9 0.9\n"
      "default_material = 0\n"
      "region = 1 -inf inf -inf inf -inf 1\n"
      "region = 2 -inf inf -inf inf -inf 1.8\n";
  const std::string region_source =
      "[source]\nregion = 1 -inf inf -inf inf -inf 1\n";

  snap::Input input;
  input.dims = {4, 4, 9};
  input.extent = {1.0, 1.0, 3.0};
  input.twist = 0.001;
  input.shuffle_seed = 7;
  input.nang = 4;
  input.quadrature = angular::QuadratureKind::Product;
  input.ng = 2;
  input.iitm = 8;
  input.oitm = 1;
  input.fixed_iterations = true;
  const auto disc = std::make_shared<const core::Discretization>(input);
  const mesh::HexMesh& mesh = disc->mesh();
  const int ne = disc->num_elements();

  snap::CrossSections xs;
  xs.num_materials = 3;
  xs.ng = 2;
  xs.sigt.resize({3, 2});
  xs.sigs.resize({3, 2});
  xs.siga.resize({3, 2});
  xs.slgg.resize({3, 2, 2}, 0.0);
  const double sigt[3] = {0.1, 5.0, 20.0};
  const double ratio[3] = {0.5, 0.9, 0.9};
  for (int m = 0; m < 3; ++m)
    for (int g = 0; g < 2; ++g) {
      xs.sigt(m, g) = sigt[m];
      xs.sigs(m, g) = ratio[m] * sigt[m];
      xs.siga(m, g) = xs.sigt(m, g) - xs.sigs(m, g);
      xs.slgg(m, g, g) = xs.sigs(m, g);
    }
  std::vector<int> material(static_cast<std::size_t>(ne));
  NDArray<double, 2> qext({static_cast<std::size_t>(ne), 2});
  for (int e = 0; e < ne; ++e) {
    const fem::Vec3 c = mesh.centroid(e);
    material[static_cast<std::size_t>(e)] = c[2] < 1.0 ? 1 : c[2] < 1.8 ? 2 : 0;
    for (int g = 0; g < 2; ++g) qext(e, g) = c[2] < 1.0 ? 1.0 : 0.0;
  }

  const auto check = [&](const std::string& route,
                         const core::ProblemData& data) {
    SCOPED_TRACE(route);
    api::Run run(api::read_deck_text(common + route));
    (void)run.execute();
    core::TransportSolver reference(disc, input, data);
    (void)reference.run();
    EXPECT_EQ(run.solver()->problem().material, data.material);
    expect_bitwise_equal_flux(run.solver()->scalar_flux(),
                              reference.scalar_flux());
  };
  check(region_materials + region_source,
        core::ProblemData(*disc, xs, material, qext));
  // The two mixed routes no shipped deck uses: generated materials with
  // region sources, and region materials with SNAP's src_opt placement.
  check("[materials]\nng = 2\nmat_opt = 1\nscattering_ratio = 0.5\n" +
            region_source,
        core::ProblemData(*disc, snap::make_cross_sections(2, 0.5),
                          snap::assign_materials(mesh, 1), qext));
  check(region_materials + "[source]\nsrc_opt = 2\n",
        core::ProblemData(*disc, xs, material,
                          snap::make_external_source(mesh, 2, 2)));
}

TEST(Run, SourceRegionBalances) {
  // Untwisted mesh: element volumes are exact, so the integrated source
  // (strength 2 in group 0 over x < 0.5) is exactly 2.0 x half the cube.
  const std::string deck =
      "[mesh]\ndims = 4 4 4\ntwist = 0\nshuffle_seed = 11\n"
      "[angular]\nnang = 4\n"
      "[materials]\nng = 2\nsigt = 1\nscattering = 0.4\n"
      "[source]\nregion = 2 -inf 0.5 -inf inf -inf inf 0\n"
      "[iteration]\nepsi = 1e-6\niitm = 50\noitm = 8\n"
      "fixed_iterations = false\n";
  const api::RunRecord record = api::Run(api::read_deck_text(deck)).execute();
  EXPECT_TRUE(record.iteration->converged);
  EXPECT_NEAR(record.balance->source, 1.0, 1e-10);
  EXPECT_LT(std::fabs(record.balance->relative()), 1e-4);
}

TEST(Run, DistributedRouteMatchesBlockJacobiBitwise) {
  const std::string deck =
      "[mesh]\ndims = 6 6 6\ntwist = 0.001\nshuffle_seed = 17\n"
      "[angular]\nnang = 4\n"
      "[materials]\nng = 1\nmat_opt = 1\nscattering_ratio = 0.6\n"
      "[source]\nsrc_opt = 1\n"
      "[iteration]\niitm = 10\noitm = 1\nfixed_iterations = true\n"
      "[decomposition]\npx = 2\npy = 2\nexchange = jacobi\n"
      "[execution]\nscheme = serial\nthreads = 1\n";
  api::Run run(api::read_deck_text(deck));
  const api::RunRecord record = run.execute();

  snap::Input input;
  input.dims = {6, 6, 6};
  input.twist = 0.001;
  input.shuffle_seed = 17;
  input.nang = 4;
  input.ng = 1;
  input.mat_opt = 1;
  input.scattering_ratio = 0.6;
  input.src_opt = 1;
  input.iitm = 10;
  input.oitm = 1;
  input.fixed_iterations = true;
  input.scheme = snap::ConcurrencyScheme::Serial;
  input.num_threads = 1;
  input.sweep_exchange = snap::SweepExchange::BlockJacobi;
  comm::DistributedSweepSolver reference(input, 2, 2);
  const comm::DistributedSweepResult ref_result = reference.run();

  const std::vector<double> mine = run.distributed()->gather_scalar_flux();
  const std::vector<double> theirs = reference.gather_scalar_flux();
  ASSERT_EQ(mine.size(), theirs.size());
  for (std::size_t i = 0; i < mine.size(); ++i)
    ASSERT_EQ(mine[i], theirs[i]);
  ASSERT_TRUE(record.decomposition.has_value());
  EXPECT_EQ(record.decomposition->px, 2);
  EXPECT_EQ(record.decomposition->exchange, "jacobi");
  EXPECT_EQ(record.iteration->inners, ref_result.inners);
}

TEST(Run, MmsRouteMatchesDirectBitwise) {
  const std::string deck =
      "[run]\nmode = mms\n"
      "[mesh]\ndims = 3 3 3\ntwist = 0.01\nshuffle_seed = 5\norder = 2\n"
      "[angular]\nnang = 4\n"
      "[materials]\nng = 1\nmat_opt = 0\nscattering_ratio = 0\n"
      "[iteration]\niitm = 1\noitm = 1\n";
  api::Run run(api::read_deck_text(deck));
  const api::RunRecord record = run.execute();
  ASSERT_TRUE(record.mms_l2_error.has_value());

  snap::Input input;
  input.dims = {3, 3, 3};
  input.twist = 0.01;
  input.shuffle_seed = 5;
  input.order = 2;
  input.nang = 4;
  input.ng = 1;
  input.mat_opt = 0;
  input.scattering_ratio = 0.0;
  input.iitm = 1;
  input.oitm = 1;
  core::TransportSolver solver(input);
  const auto ms = core::ManufacturedSolution::trigonometric();
  core::apply_manufactured(solver, ms);
  (void)solver.run();
  EXPECT_EQ(*record.mms_l2_error, core::l2_error(solver, ms));
}

TEST(Run, TimeRouteMatchesDirectBitwise) {
  const std::string deck =
      "[run]\nmode = time\n"
      "[mesh]\ndims = 3 3 3\ntwist = 0.001\nshuffle_seed = 21\n"
      "[angular]\nnang = 4\n"
      "[materials]\nng = 2\nmat_opt = 0\nscattering_ratio = 0.6\n"
      "[source]\nsrc_opt = 0\n"
      "[iteration]\niitm = 8\noitm = 2\nfixed_iterations = true\n"
      "[time]\ndt = 0.1\nsteps = 2\ninitial = 1\nzero_source = true\n";
  api::Run run(api::read_deck_text(deck));
  const api::RunRecord record = run.execute();

  snap::Input input;
  input.dims = {3, 3, 3};
  input.twist = 0.001;
  input.shuffle_seed = 21;
  input.nang = 4;
  input.ng = 2;
  input.mat_opt = 0;
  input.scattering_ratio = 0.6;
  input.src_opt = 0;
  input.iitm = 8;
  input.oitm = 2;
  input.fixed_iterations = true;
  const auto disc = std::make_shared<const core::Discretization>(input);
  core::TimeDependentSolver td(
      disc, input, core::TimeDependentSolver::snap_velocities(input.ng),
      0.1);
  td.solver().problem().qext.fill(0.0);
  td.set_initial_condition(1.0);
  ASSERT_TRUE(record.initial_density.has_value());
  EXPECT_EQ(*record.initial_density, td.total_density());
  ASSERT_EQ(record.steps.size(), 2u);
  for (const api::RunRecord::TimeStep& step : record.steps) {
    const auto direct = td.step();
    EXPECT_EQ(step.time, direct.time);
    EXPECT_EQ(step.total_density, direct.total_density);
    EXPECT_EQ(step.inners, direct.iteration.inners);
  }
}

// A time record folds every step's Krylov accounting and histories, end to
// end, the way a keff record folds its outers.
TEST(Run, TimeRecordFoldsEveryStepsKrylovAccounting) {
  const std::string deck =
      "[run]\nmode = time\n"
      "[mesh]\ndims = 3 3 3\ntwist = 0.001\nshuffle_seed = 21\n"
      "[angular]\nnang = 2\n"
      "[materials]\nng = 2\nmat_opt = 0\nscattering_ratio = 0.9\n"
      "[source]\nsrc_opt = 0\n"
      "[iteration]\nepsi = 1e-6\niitm = 40\noitm = 5\n"
      "fixed_iterations = false\nscheme = gmres\n"
      "[execution]\nthreads = 1\n"
      "[time]\ndt = 0.1\nsteps = 3\ninitial = 1\n";
  const api::RunConfig config = api::read_deck_text(deck);
  const api::RunRecord record = api::Run(config).execute();

  const snap::Input input = config.to_input();
  const auto disc = std::make_shared<const core::Discretization>(input);
  core::TimeDependentSolver td(
      disc, input, core::TimeDependentSolver::snap_velocities(input.ng),
      0.1);
  td.solver().problem().qext.fill(0.0);  // the deck's zero_source default
  td.set_initial_condition(1.0);
  int sweeps = 0, krylov = 0;
  std::vector<double> inner_history, residual_history;
  for (int n = 0; n < 3; ++n) {
    const core::IterationResult it = td.step().iteration;
    sweeps += it.sweeps;
    krylov += it.krylov_iters;
    inner_history.insert(inner_history.end(), it.inner_history.begin(),
                         it.inner_history.end());
    residual_history.insert(residual_history.end(),
                            it.residual_history.begin(),
                            it.residual_history.end());
  }
  const core::IterationResult& folded = *record.iteration;
  EXPECT_EQ(folded.sweeps, sweeps);
  EXPECT_GT(krylov, 0);
  EXPECT_EQ(folded.krylov_iters, krylov);
  EXPECT_EQ(folded.inner_history, inner_history);
  EXPECT_EQ(folded.residual_history, residual_history);
  EXPECT_GT(api::sweeps_per_digit(folded), 0.0);
}

// --- the single-domain lowering step ---------------------------------------

TEST(Run, SharedDiscretizationReusedAsIs) {
  api::RunConfig config;
  config.mesh.dims = {4, 4, 4};
  config.angular.nang = 2;
  config.materials.num_groups = 2;
  config.iteration = {.iitm = 4, .oitm = 1};
  api::Run first(config);
  (void)first.execute();
  api::Run second(config);
  second.set_shared_discretization(first.shared_discretization());
  (void)second.execute();
  EXPECT_EQ(second.shared_discretization(), first.shared_discretization());
  expect_bitwise_equal_flux(first.solver()->scalar_flux(),
                            second.solver()->scalar_flux());
}

TEST(Run, InjectedDiscretizationCheckedInEveryMode) {
  // A 3^3 discretisation injected into 5^3 decks: every single-domain mode
  // must refuse it instead of running on the stale mesh.
  api::RunConfig small;
  small.mode = api::RunMode::Schedule;
  small.mesh.dims = {3, 3, 3};
  small.angular.nang = 2;
  api::Run build(small);
  (void)build.execute();
  const auto disc = build.shared_discretization();

  const std::string library =
      std::string(UNSNAP_DECK_DIR) + "/xs/criticality.xs";
  for (const std::string mode : {"solve", "mms", "time", "schedule", "keff"}) {
    const std::string deck =
        "[run]\nmode = " + mode + "\n" +
        "[mesh]\ndims = 5 5 5\n[angular]\nnang = 2\n"
        "[iteration]\niitm = 1\noitm = 1\n" +
        (mode == "keff" ? "[xs]\nfile = " + library + "\n"
                        : std::string("[materials]\nng = 1\n"));
    api::Run run(api::read_deck_text(deck));
    run.set_shared_discretization(disc);
    EXPECT_THROW((void)run.execute(), InvalidInput) << "mode " << mode;
  }

  // Same grid, other angular set.
  api::RunConfig finer = small;
  finer.mode = api::RunMode::Solve;
  finer.angular.nang = 4;
  api::Run run(finer);
  run.set_shared_discretization(disc);
  EXPECT_THROW((void)run.execute(), InvalidInput);
}

TEST(Run, SweepTimeRecordedInEveryMode) {
  // The record's sweep time is the wall time inside the sweeps: a keff
  // run sums its groupset solvers, which sweep in turn, and a distributed
  // run reports its slowest rank, since ranks sweep at once. In every
  // solving mode it is positive and within the run's total.
  const std::string problem =
      "[mesh]\ndims = 4 4 4\n[angular]\nnang = 2\n[materials]\nng = 1\n"
      "[iteration]\niitm = 2\noitm = 1\n";
  std::vector<std::pair<std::string, api::RunConfig>> runs;
  for (const std::string mode : {"solve", "mms", "time"})
    runs.emplace_back(mode, api::read_deck_text("[run]\nmode = " + mode +
                                                "\n" + problem));
  for (const std::string exchange : {"jacobi", "pipelined"})
    runs.emplace_back(exchange,
                      api::read_deck_text(problem +
                                          "[decomposition]\npx = 2\npy = 2\n"
                                          "exchange = " + exchange + "\n"));
  api::RunConfig keff = api::read_deck_file(std::string(UNSNAP_DECK_DIR) +
                                            "/golden/criticality.inp");
  keff.xs.max_outers = 2;
  runs.emplace_back("keff", std::move(keff));
  for (auto& [name, config] : runs) {
    const api::RunRecord record = api::Run(std::move(config)).execute();
    ASSERT_TRUE(record.iteration.has_value()) << name;
    EXPECT_GT(record.iteration->sweeps, 0) << name;
    EXPECT_GT(record.iteration->assemble_solve_seconds, 0.0) << name;
    EXPECT_LE(record.iteration->assemble_solve_seconds,
              record.iteration->total_seconds)
        << name;
  }
}

int os_threads() {
  int count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++count;
  return count;
}

TEST(Run, DeckThreadCountPinnedBeforeLowering) {
  // A fresh thread (a daemon worker) starts at the OpenMP default. A
  // threads = 1 deck must keep every parallel region on that thread —
  // including the discretisation's element integrals — so no OpenMP pool
  // threads appear.
  for (const std::string mode : {"solve", "schedule"}) {
    int before = 0, after = 0;
    std::thread worker([&] {
      omp_set_num_threads(4);
      before = os_threads();
      api::Run run(api::read_deck_text(
          "[run]\nmode = " + mode +
          "\n[mesh]\ndims = 4 4 4\n[angular]\nnang = 2\n"
          "[materials]\nng = 1\n[iteration]\niitm = 1\noitm = 1\n"
          "[execution]\nthreads = 1\n"));
      (void)run.execute();
      after = os_threads();
    });
    worker.join();
    EXPECT_EQ(after, before) << "mode " << mode;
  }
}

TEST(Run, ScheduleModeRecordsStructure) {
  // The sweep_explorer golden mesh (6^3, twist 0.3, seed 9, nang 8) has
  // 24 unique schedules and no cycles — frozen here for the deck path.
  const std::string deck =
      "[run]\nmode = schedule\n"
      "[mesh]\ndims = 6 6 6\ntwist = 0.3\nshuffle_seed = 9\n"
      "[angular]\nnang = 8\n";
  api::Run run(api::read_deck_text(deck));
  const api::RunRecord record = run.execute();
  ASSERT_TRUE(record.schedule.has_value());
  EXPECT_EQ(record.schedule->unique, 24);
  EXPECT_EQ(record.schedule->directions, 64);
  EXPECT_EQ(record.schedule->total_lagged, 0);
  EXPECT_GT(record.schedule->max_bucket, 0);
  EXPECT_FALSE(record.iteration.has_value());
  EXPECT_FALSE(record.flux.has_value());
}

// --- RunRecord content ----------------------------------------------------

TEST(Run, RecordDigestMatchesReportHelpers) {
  api::RunConfig config;
  config.mesh.dims = {3, 3, 3};
  config.materials.num_groups = 2;
  config.angular.nang = 2;
  config.iteration = {.iitm = 4, .oitm = 1};
  api::Run run(config);
  const api::RunRecord record = run.execute();
  ASSERT_TRUE(record.flux.has_value());
  const std::vector<double> averages = api::group_volume_averages(
      run.solver()->discretization(), run.solver()->scalar_flux());
  ASSERT_EQ(record.flux->group_averages.size(), averages.size());
  for (std::size_t g = 0; g < averages.size(); ++g)
    EXPECT_NEAR(record.flux->group_averages[g], averages[g],
                1e-12 * std::fabs(averages[g]));
  EXPECT_GE(record.flux->max, record.flux->min);
  // Config echo round-trips to the very config that ran.
  EXPECT_TRUE(api::read_deck_text(record.deck) == run.config());
}

TEST(Run, JsonContainsSchemaBlocks) {
  api::RunConfig config;
  config.title = "json check";
  config.mesh.dims = {3, 3, 3};
  config.materials.num_groups = 1;
  config.angular.nang = 2;
  config.iteration = {.iitm = 3, .oitm = 1};
  api::Run run(config);
  const std::string json = api::to_json(run.execute());
  for (const char* needle :
       {"\"unsnap\"", "\"version\"", "\"git_describe\"", "\"build_type\"",
        "\"compiler\"", "\"title\": \"json check\"", "\"mode\": \"solve\"",
        "\"deck\"", "\"configuration\"", "\"schedule\"", "\"iteration\"",
        "\"inner_history\"", "\"timers\"", "\"balance\"", "\"flux\"",
        "\"group_averages\""})
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  EXPECT_EQ(json.find("\"decomposition\""), std::string::npos);
}

TEST(Run, KeffRecordCarriesConvergenceHistory) {
  // A keff record's iteration block is the power iteration's: one
  // fission-source change per outer, ending at the folded final change,
  // so sweeps_per_digit reports sweeps per digit of that convergence.
  api::RunConfig config =
      api::read_deck_file(std::string(UNSNAP_DECK_DIR) + "/criticality.inp");
  config.execution.num_threads = 1;
  config.output.report = false;
  const api::RunRecord record = api::Run(config).execute();
  ASSERT_TRUE(record.keff.has_value());
  ASSERT_TRUE(record.iteration.has_value());
  const core::IterationResult& it = *record.iteration;
  ASSERT_EQ(static_cast<int>(it.inner_history.size()), record.keff->outers);
  EXPECT_EQ(it.inner_history.back(), it.final_inner_change);
  EXPECT_EQ(it.inner_history.back(), record.keff->final_fission_change);
  EXPECT_GT(it.inner_history.front(), it.inner_history.back());
  EXPECT_GT(api::sweeps_per_digit(it), 0.0);
}

TEST(Run, VersionInfoIsPopulated) {
  const api::VersionInfo& info = api::version_info();
  EXPECT_FALSE(info.version.empty());
  EXPECT_FALSE(info.git_describe.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_NE(info.summary().find("unsnap"), std::string::npos);
}

// --- observer hooks -------------------------------------------------------

struct CountingObserver : core::IterationObserver {
  int outers_begun = 0, outers_ended = 0, inners = 0, krylov = 0;
  double last_change = -1.0;
  void on_outer_begin(int) override { ++outers_begun; }
  void on_inner(int, int, double change) override {
    ++inners;
    last_change = change;
  }
  void on_krylov(int, double) override { ++krylov; }
  void on_outer_end(int, double, bool) override { ++outers_ended; }
};

TEST(Run, ObserverSeesEverySourceIterationEvent) {
  api::RunConfig config;
  config.mesh.dims = {3, 3, 3};
  config.materials.num_groups = 1;
  config.angular.nang = 2;
  config.iteration = {.iitm = 4, .oitm = 2};
  CountingObserver observer;
  api::Run run(config);
  run.set_observer(&observer);
  const api::RunRecord record = run.execute();
  EXPECT_EQ(observer.outers_begun, record.iteration->outers);
  EXPECT_EQ(observer.outers_ended, record.iteration->outers);
  EXPECT_EQ(observer.inners,
            static_cast<int>(record.iteration->inner_history.size()));
  EXPECT_EQ(observer.krylov, 0);
  EXPECT_EQ(observer.last_change, record.iteration->final_inner_change);
}

TEST(Run, ObserverSeesEveryKrylovIteration) {
  api::RunConfig config;
  config.mesh.dims = {3, 3, 3};
  config.materials.num_groups = 1;
  config.angular.nang = 2;
  config.iteration = {.iitm = 8,
                      .oitm = 2,
                      .scheme = snap::IterationScheme::Gmres};
  CountingObserver observer;
  api::Run run(config);
  run.set_observer(&observer);
  const api::RunRecord record = run.execute();
  EXPECT_EQ(observer.krylov,
            static_cast<int>(record.iteration->residual_history.size()));
  EXPECT_EQ(observer.inners,
            static_cast<int>(record.iteration->inner_history.size()));
  EXPECT_EQ(observer.outers_begun, record.iteration->outers);
}

TEST(Run, ObserverSeesDistributedGlobalEvents) {
  api::RunConfig config;
  config.mesh.dims = {4, 4, 4};
  config.materials.num_groups = 1;
  config.angular.nang = 2;
  config.iteration = {.iitm = 5, .oitm = 1};
  config.decomposition = {.px = 2, .py = 1};
  config.execution.scheme = snap::ConcurrencyScheme::Serial;
  config.execution.num_threads = 1;
  CountingObserver observer;
  api::Run run(config);
  run.set_observer(&observer);
  const api::RunRecord record = run.execute();
  EXPECT_EQ(observer.inners, record.iteration->inners);
  EXPECT_EQ(observer.outers_ended, record.iteration->outers);
  EXPECT_EQ(observer.last_change, record.iteration->final_inner_change);
}

// --- distributed records --------------------------------------------------

// A 4^3 deck on 2x2 ranks, 5 sweeps, one serial thread per rank.
api::RunConfig two_by_two(snap::SweepExchange exchange) {
  api::RunConfig config;
  config.mesh.dims = {4, 4, 4};
  config.materials.num_groups = 1;
  config.angular.nang = 2;
  config.iteration = {.iitm = 5, .oitm = 1};
  config.decomposition = {.px = 2, .py = 2, .exchange = exchange};
  config.execution.scheme = snap::ConcurrencyScheme::Serial;
  config.execution.num_threads = 1;
  return config;
}

TEST(Run, BlockJacobiRecordMeasuresHaloWaits) {
  // Every jacobi rank blocks on its neighbours' halos after each sweep,
  // so its idle time is measured, not left at a zero that would read as
  // "never waited".
  const api::RunRecord record =
      api::Run(two_by_two(snap::SweepExchange::BlockJacobi)).execute();
  ASSERT_TRUE(record.decomposition.has_value());
  const api::RunRecord::DecompositionStats& d = *record.decomposition;
  ASSERT_EQ(d.rank_idle_seconds.size(), 4u);
  for (const double idle : d.rank_idle_seconds) EXPECT_GT(idle, 0.0);
  EXPECT_GT(d.mean_idle_fraction, 0.0);
  EXPECT_LE(d.mean_idle_fraction, d.max_idle_fraction);
  EXPECT_LT(d.max_idle_fraction, 1.0);
}

TEST(Run, DistributedSweepsReachTheSweepMetrics) {
  // Each rank sweep counts once in unsnap_sweeps_total, whichever
  // exchange ran it.
  const obs::Counter& total = obs::MetricsRegistry::global().counter(
      "unsnap_sweeps_total",
      "Transport sweeps executed (distributed runs: one per rank sweep)");
  for (const snap::SweepExchange exchange :
       {snap::SweepExchange::BlockJacobi, snap::SweepExchange::Pipelined}) {
    const long before = total.value();
    const api::RunRecord record = api::Run(two_by_two(exchange)).execute();
    EXPECT_EQ(record.iteration->sweeps, 5) << snap::to_string(exchange);
    EXPECT_EQ(total.value() - before, 4L * record.iteration->sweeps)
        << snap::to_string(exchange);
  }
}

TEST(Run, DistributedGmresRecordKeepsResidualHistory) {
  // The pipelined sweep is an exact global sweep, so the ranks' GMRES
  // reproduces the single-domain residuals up to the order of the
  // reduced partial dot products.
  api::RunConfig config = two_by_two(snap::SweepExchange::Pipelined);
  config.iteration = {.iitm = 8,
                      .oitm = 2,
                      .scheme = snap::IterationScheme::Gmres};
  CountingObserver observer;
  api::Run run(config);
  run.set_observer(&observer);
  const api::RunRecord record = run.execute();
  const std::vector<double>& history = record.iteration->residual_history;
  EXPECT_GT(observer.krylov, 0);
  EXPECT_EQ(static_cast<int>(history.size()), observer.krylov);

  config.decomposition = {};
  const api::RunRecord single = api::Run(config).execute();
  const std::vector<double>& reference = single.iteration->residual_history;
  ASSERT_EQ(history.size(), reference.size());
  for (std::size_t i = 0; i < history.size(); ++i)
    EXPECT_NEAR(history[i], reference[i], 1e-6 * std::fabs(reference[i]))
        << "entry " << i;
}

}  // namespace
}  // namespace unsnap

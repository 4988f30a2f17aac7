// Twisted-mesh scenario: the workload the SCC scheduler exists for. At
// large twists the per-angle dependency graphs develop cycles and the
// paper's bucketed schedule construction aborts; with --cycles lag-scc the
// Tarjan-based breaker lags the weakest face of every cyclic component and
// the solve converges anyway. The scenario reports how many faces were
// lagged, the bucket-occupancy profile and the iteration cost of the lag.
//
//   ./unsnap --scenario twisted                      # lag-scc, 2.5 rad
//   ./unsnap --scenario twisted --cycles abort       # watch it fail
//   ./unsnap --scenario twisted --twist 0.3          # acyclic comparison

#include <cstdio>

#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"

namespace {

using namespace unsnap;

void declare_options(Cli& cli) {
  cli.option("nx", "8", "elements across x and y");
  cli.option("nz", "4", "elements along z");
  cli.option("twist", "2.5", "mesh twist in radians (cycles from ~1)");
  cli.option("nang", "9", "angles per octant");
  cli.option("ng", "2", "energy groups");
  cli.option("c", "0.3", "scattering ratio");
  cli.option("cycles", "lag-scc",
             "cycle strategy: abort | lag-scc");
  cli.option("scheme", "angle-batch",
             "concurrency: serial | elements | groups | elements-groups | "
             "angles-atomic | angle-batch");
  cli.option("epsi", "1e-6", "convergence tolerance");
  cli.option("threads", "0", "OpenMP threads (0 = default)");
}

int run(const Cli& cli) {
  const int nx = cli.get_int("nx");
  const int nz = cli.get_int("nz");
  api::RunConfig config;
  config.mesh = {.dims = {nx, nx, nz},
                 .twist = cli.get_double("twist"),
                 .shuffle_seed = 11,
                 .cycle_strategy =
                     sweep::cycle_strategy_from_string(cli.get("cycles"))};
  config.angular = {.nang = cli.get_int("nang"),
                    .quadrature = angular::QuadratureKind::Product};
  config.materials = {.num_groups = cli.get_int("ng"),
                      .mat_opt = 0,
                      .scattering_ratio = cli.get_double("c")};
  config.source = {.src_opt = 1};
  config.iteration = {.epsi = cli.get_double("epsi"),
                      .iitm = 100,
                      .oitm = 20,
                      .fixed_iterations = false};
  config.execution = {.scheme = snap::scheme_from_string(cli.get("scheme")),
                      .num_threads = cli.get_int("threads")};

  api::Run run(std::move(config));
  const api::RunRecord record = run.execute();
  std::printf("UnSNAP twisted: %.3g rad over %dx%dx%d hexes — the strongly "
              "twisted scenario space\n\n",
              run.config().mesh.twist, nx, nx, nz);
  api::print_configuration(record.config);
  std::printf("\n");
  api::print_iteration_report(*record.iteration,
                              run.config().execution.time_solve);
  std::printf("\n");
  api::print_schedule_report(*record.schedule);
  std::printf("\n");
  api::print_balance_report(*record.balance);
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "twisted",
    .summary = "strongly twisted mesh through the SCC cycle breaker",
    .declare_options = declare_options,
    .run = run,
}};

}  // namespace

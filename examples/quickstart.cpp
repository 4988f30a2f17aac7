// Quickstart scenario: solve a small SNAP-style fixed-source transport
// problem on a twisted unstructured hex mesh and print the iteration
// history, per-group flux summary and the particle balance.
//
//   ./unsnap --scenario quickstart [--nx 8] [--order 1] [--ng 4] ...
//
// This is the minimal end-to-end use of the declarative API: describe the
// problem in an api::RunConfig, execute it through api::Run, inspect.

#include <cstdio>

#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"

namespace {

using namespace unsnap;

void declare_options(Cli& cli) {
  cli.option("nx", "8", "elements per dimension");
  cli.option("order", "1", "finite element order (1..5)");
  cli.option("ng", "4", "energy groups");
  cli.option("nang", "6", "angles per octant");
  cli.option("twist", "0.001", "mesh twist in radians");
  cli.option("epsi", "1e-5", "convergence tolerance");
  cli.option("threads", "0", "OpenMP threads (0 = default)");
}

int run(const Cli& cli) {
  const int nx = cli.get_int("nx");
  api::RunConfig config;
  config.mesh = {.dims = {nx, nx, nx},
                 .twist = cli.get_double("twist"),
                 .shuffle_seed = 42,  // store the brick as a shuffled soup
                 .order = cli.get_int("order")};
  config.angular = {.nang = cli.get_int("nang")};
  config.materials = {.num_groups = cli.get_int("ng"),
                      .mat_opt = 1,  // denser material in the centre box
                      .scattering_ratio = 0.5};
  config.source = {.src_opt = 1};  // source in the centre box
  config.iteration = {.epsi = cli.get_double("epsi"),
                      .iitm = 100,
                      .oitm = 20,
                      .fixed_iterations = false};
  config.execution = {.num_threads = cli.get_int("threads")};

  api::Run run(std::move(config));
  const api::RunRecord record = run.execute();
  const api::RunRecord::Configuration& c = record.config;
  std::printf("UnSNAP quickstart: %d^3 twisted hex mesh, order %d, "
              "%d groups, %d angles/octant\n",
              nx, c.order, c.ng, c.nang);
  std::printf("  %d elements, %d nodes each; %d unique sweep schedules for "
              "%d directions\n",
              c.elements, c.nodes_per_element, c.unique_schedules,
              c.directions);

  const core::IterationResult& result = *record.iteration;
  std::printf("\n%s after %d inners / %d outers "
              "(last inner change %.2e)\n",
              result.converged ? "Converged" : "NOT converged",
              result.inners, result.outers, result.final_inner_change);
  std::printf("  total %.3f s, %.3f s in assemble/solve sweeps\n",
              result.total_seconds, result.assemble_solve_seconds);

  // Per-group volume-average flux.
  std::printf("\ngroup   <phi> (volume average)\n");
  const core::TransportSolver& solver = *run.solver();
  const std::vector<double> averages =
      api::group_volume_averages(solver.discretization(), solver.scalar_flux());
  for (int g = 0; g < c.ng; ++g)
    std::printf("  %2d    %.6f\n", g, averages[static_cast<std::size_t>(g)]);

  const core::BalanceReport& balance = *record.balance;
  std::printf("\nparticle balance:\n"
              "  source      %.6f\n  absorption  %.6f\n  leakage     %.6f\n"
              "  residual    %.2e (relative %.2e)\n",
              balance.source, balance.absorption, balance.leakage,
              balance.residual(), balance.relative());
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "quickstart",
    .summary = "minimal UnSNAP transport solve on a twisted hex mesh",
    .declare_options = declare_options,
    .run = run,
}};

}  // namespace

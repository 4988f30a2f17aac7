// Distributed-memory scenario: the same fixed-source problem solved on one
// domain and on a KBA-partitioned grid of simulated-MPI ranks under both
// halo-exchange disciplines — the paper's parallel block Jacobi schedule
// (§III-A-1, stale halos, convergence degrades with rank count) and the
// pipelined exchange (same-iteration halos staged through the rank-level
// dependency DAG, single-domain iteration counts). Verifies both gathered
// fluxes against the single-domain answer and prints the pipeline
// fill/drain diagnostics. Every solve is one api::Run of the same
// RunConfig; only its DecompositionSpec changes.

#include <cmath>
#include <cstdio>

#include "api/run.hpp"
#include "api/scenario.hpp"

namespace {

using namespace unsnap;

void declare_options(Cli& cli) {
  cli.option("nx", "10", "elements per dimension");
  cli.option("px", "2", "rank grid x");
  cli.option("py", "2", "rank grid y");
  cli.option("ng", "2", "energy groups");
  cli.option("nang", "4", "angles per octant");
  cli.option("epsi", "1e-7", "convergence tolerance");
  cli.option("exchange", "both",
             "halo exchange to run: jacobi, pipelined or both");
}

double max_flux_diff(const core::TransportSolver& reference,
                     const std::vector<double>& global, int ng) {
  const auto& disc = reference.discretization();
  const int n = disc.num_nodes();
  double worst = 0.0;
  for (int e = 0; e < disc.num_elements(); ++e)
    for (int g = 0; g < ng; ++g) {
      const double* ref = reference.scalar_flux().at(e, g);
      const double* mine =
          global.data() + (static_cast<std::size_t>(e) * ng + g) * n;
      for (int i = 0; i < n; ++i)
        worst = std::max(worst, std::fabs(ref[i] - mine[i]));
    }
  return worst;
}

int run(const Cli& cli) {
  const int nx = cli.get_int("nx");
  const std::string which = cli.get("exchange");
  if (which != "both") (void)snap::sweep_exchange_from_string(which);
  api::RunConfig config;
  config.mesh = {.dims = {nx, nx, nx}, .twist = 0.001, .shuffle_seed = 17};
  config.angular = {.nang = cli.get_int("nang")};
  config.materials = {.num_groups = cli.get_int("ng"),
                      .mat_opt = 1,
                      .scattering_ratio = 0.6};
  config.source = {.src_opt = 1};
  config.iteration = {.epsi = cli.get_double("epsi"),
                      .iitm = 500,
                      .oitm = 10,
                      .fixed_iterations = false};
  config.execution = {.scheme = snap::ConcurrencyScheme::Serial,
                      .num_threads = 1};

  const int px = cli.get_int("px"), py = cli.get_int("py");
  std::printf("Domain decomposition: %d^3 elements, %dx%d KBA ranks\n", nx,
              px, py);

  // Reference: one domain, plain sweeps.
  api::Run single(config);
  const core::IterationResult ref_result = *single.execute().iteration;
  std::printf("\nsingle domain : %3d inners / %d outers, %.3f s "
              "(serial sweeps)\n",
              ref_result.inners, ref_result.outers,
              ref_result.total_seconds);

  const int ng = cli.get_int("ng");
  for (const snap::SweepExchange exchange :
       {snap::SweepExchange::BlockJacobi, snap::SweepExchange::Pipelined}) {
    if (which != "both" && exchange != snap::sweep_exchange_from_string(which))
      continue;
    config.decomposition = {.px = px, .py = py, .exchange = exchange};
    api::Run run(config);
    const api::RunRecord record = run.execute();
    std::printf("\n");
    api::print_decomposition_report(*record.decomposition, *record.iteration);
    std::printf("  max |phi_single - phi_distributed| = %.3e\n",
                max_flux_diff(*single.solver(),
                              run.distributed()->gather_scalar_flux(), ng));
  }

  std::printf(
      "\nReading: block Jacobi sweeps concurrently from iteration one but\n"
      "boundary data lags an iteration, so inners grow with the rank\n"
      "count; the pipelined exchange reproduces the single-domain inner\n"
      "count exactly (the sweep is an exact global L^-1 apply) and pays\n"
      "with pipeline fill/drain idle time instead — the trade-off the\n"
      "paper's global-schedule discussion (after Garrett) is about.\n");
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "domain_decomposition",
    .summary = "block Jacobi vs pipelined sweeps over simulated-MPI ranks",
    .declare_options = declare_options,
    .run = run,
}};

}  // namespace

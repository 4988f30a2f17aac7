// Ablation for §IV-B-1 of the paper (future work there, implemented
// here): pre-assemble and explicitly invert the angle-group-element
// matrices once and compare iteration cost against on-the-fly assembly,
// together with the memory this trades away.

#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "core/preassembly.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace unsnap;
  using namespace unsnap::bench;

  Cli cli("bench_preassembly",
          "abl. §IV-B-1: pre-assembled/inverted matrices vs on-the-fly");
  cli.option("nx", "6", "elements per dimension");
  cli.option("nang", "4", "angles per octant");
  cli.option("ng", "4", "energy groups");
  cli.option("inners", "5", "inner iterations");
  cli.option("max-order", "3", "largest finite element order to run");
  cli.option("csv", "", "also write results to this CSV file");
  if (!cli.parse(argc, argv)) return 0;

  Table table({"order", "on-the-fly (s)", "pre-inverted (s)", "setup (s)",
               "matrix storage (MB)", "psi storage (MB)"});

  for (int order = 1; order <= cli.get_int("max-order"); ++order) {
    snap::Input input;
    const int nx = order < 3 ? cli.get_int("nx") : 4;
    input.dims = {nx, nx, nx};
    input.order = order;
    input.nang = cli.get_int("nang");
    input.ng = cli.get_int("ng");
    input.twist = 0.001;
    input.shuffle_seed = 1;
    input.iitm = cli.get_int("inners");
    input.oitm = 1;
    input.fixed_iterations = true;
    input.num_threads = 0;

    print_problem(input,
                  ("Pre-assembly, order " + std::to_string(order)).c_str());
    const auto disc = std::make_shared<const core::Discretization>(input);

    core::TransportSolver fly(disc, input);
    const double t_fly = fly.run().assemble_solve_seconds;

    Stopwatch setup;
    core::TransportSolver inv(disc, input);
    setup.start();
    inv.enable_preassembly();
    const double t_setup = setup.stop();
    const double t_inv = inv.run().assemble_solve_seconds;
    const double storage_mb =
        static_cast<double>(inv.preassembly()->bytes()) / (1024.0 * 1024.0);

    const double psi_mb =
        static_cast<double>(inv.angular_flux().size()) * sizeof(double) /
        (1024.0 * 1024.0);
    std::printf("  order %d: fly %.3f s, inverted %.3f s (setup %.2f s)\n",
                order, t_fly, t_inv, t_setup);
    std::fflush(stdout);
    table.add_row({static_cast<long>(order), t_fly, t_inv, t_setup,
                   storage_mb, psi_mb});
  }

  table.print("Pre-assembly ablation: sweep time for " +
              std::to_string(cli.get_int("inners")) + " inners");
  if (!cli.get("csv").empty()) table.write_csv(cli.get("csv"));

  std::printf(
      "\nExpected shape (paper §IV-B-1): pre-assembly pays off per sweep —\n"
      "most strongly for low orders where assembly dominates (Table II:\n"
      "66%% of order-1 runtime is assembly) — at a storage cost of\n"
      "(p+1)^3 times the already huge angular flux, which is the reason\n"
      "the paper leaves it as a trade study.\n");
  return 0;
}

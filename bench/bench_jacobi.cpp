// Quantifies the paper's §III-A-1 discussion (after Garrett) and its
// missing half: the parallel block Jacobi global schedule trades
// per-iteration concurrency for convergence rate — iterations-to-converge
// grow with the number of KBA subdomains because boundary information is
// one iteration stale — while a pipelined exchange (Vermaak et al.) keeps
// the single-domain iteration count for every decomposition and pays with
// pipeline fill/drain idle time instead. The table prints both sides of
// the trade per rank grid.

#include <cstdio>

#include "bench_common.hpp"
#include "comm/distributed.hpp"

int main(int argc, char** argv) {
  using namespace unsnap;
  using namespace unsnap::bench;

  Cli cli("bench_jacobi",
          "abl. §III-A-1: jacobi vs pipelined exchange across subdomain "
          "counts");
  cli.option("nx", "12", "elements per dimension");
  cli.option("nang", "4", "angles per octant");
  cli.option("ng", "2", "energy groups");
  cli.option("epsi", "1e-6", "inner convergence tolerance");
  cli.option("csv", "", "also write results to this CSV file");
  if (!cli.parse(argc, argv)) return 0;

  snap::Input input;
  const int nx = cli.get_int("nx");
  input.dims = {nx, nx, nx};
  input.nang = cli.get_int("nang");
  input.ng = cli.get_int("ng");
  input.order = 1;
  input.twist = 0.001;
  input.shuffle_seed = 1;
  input.scattering_ratio = 0.7;  // slow convergence shows the effect
  input.epsi = cli.get_double("epsi");
  input.fixed_iterations = false;
  input.iitm = 500;
  input.oitm = 5;  // the ng=2 deck upscatters, so outers matter too

  print_problem(input, "Jacobi vs pipelined exchange convergence study");

  const std::pair<int, int> grids[] = {{1, 1}, {2, 1}, {2, 2},
                                       {3, 2}, {4, 2}, {3, 3}, {4, 3}};
  Table table({"ranks", "grid", "exchange", "outers", "inners",
               "sweep wall (s)", "total (s)", "idle %", "stages"});
  for (const auto& [px, py] : grids) {
    if (px > input.dims[0] || py > input.dims[1]) continue;
    for (const snap::SweepExchange exchange :
         {snap::SweepExchange::BlockJacobi,
          snap::SweepExchange::Pipelined}) {
      input.sweep_exchange = exchange;
      comm::DistributedSweepSolver solver(input, px, py);
      // Sweep wall time is the worst rank's time inside the sweep kernel:
      // ranks barrier on the allreduce each inner, so the worst rank
      // paces everyone.
      const comm::DistributedSweepResult result = solver.run();
      std::printf("  %dx%d %-9s: %d outers, %3d inners, %.3f s\n", px, py,
                  snap::to_string(exchange).c_str(), result.outers,
                  result.inners, result.total_seconds);
      std::fflush(stdout);
      table.add_row({static_cast<long>(px * py),
                     std::to_string(px) + "x" + std::to_string(py),
                     snap::to_string(exchange),
                     static_cast<long>(result.outers),
                     static_cast<long>(result.inners),
                     result.assemble_solve_seconds, result.total_seconds,
                     100.0 * result.max_idle_fraction,
                     static_cast<long>(result.pipeline_stages)});
    }
  }
  table.print("Jacobi vs pipelined: iterations and sweep time vs rank count");
  if (!cli.get("csv").empty()) table.write_csv(cli.get("csv"));

  std::printf(
      "\nExpected shape: block Jacobi's iteration count grows with the\n"
      "number of Jacobi blocks (Garrett, cited in §III-A-1) while the\n"
      "pipelined exchange matches the 1x1 iteration count everywhere;\n"
      "its idle %% and stage depth grow with the rank grid instead.\n"
      "Jacobi's idle %% is its wait on the bulk halo exchange.\n");
  return 0;
}

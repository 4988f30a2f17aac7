// Reproduces Table II of the paper: assemble/solve time and the fraction
// of that time spent in the local dense solve, for the hand-written
// Gaussian elimination versus the LAPACK-style LU (standing in for Intel
// MKL dgesv, which the build does not link), across finite element orders
// 1..4.
//
// The paper runs 32^3 elements / 10 angles / 16 groups flat-MPI on 56
// cores; the default here runs serial sweeps (one "rank") on per-order
// scaled meshes so the whole table finishes in about a minute. Pass
// --paper for the full-size problem.

#include <cstdio>
#include <memory>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace unsnap;
  using namespace unsnap::bench;

  Cli cli("bench_table2",
          "Table II: Gaussian elimination vs LAPACK-style LU per order");
  cli.option("nang", "4", "angles per octant");
  cli.option("ng", "8", "energy groups");
  cli.option("inners", "5", "inner iterations");
  cli.option("csv", "", "also write results to this CSV file");
  cli.flag("paper", "paper-size problem (32^3, 10 angles, 16 groups)");
  if (!cli.parse(argc, argv)) return 0;
  const bool paper = cli.get_flag("paper");

  // Mesh sizes per order chosen so each order does comparable total work
  // at the default scale (the GE-vs-LU comparison is within-order).
  const int default_nx[5] = {0, 8, 6, 4, 3};

  Table table({"order", "GE (s)", "GE % in solve", "LU (s)",
               "LU % in solve", "LU/GE"});

  for (int order = 1; order <= 4; ++order) {
    snap::Input input;
    const int nx = paper ? 32 : default_nx[order];
    input.dims = {nx, nx, nx};
    input.order = order;
    input.nang = paper ? 10 : cli.get_int("nang");
    input.ng = paper ? 16 : cli.get_int("ng");
    input.twist = 0.001;
    input.shuffle_seed = 1;
    input.mat_opt = 1;
    input.src_opt = 1;
    input.iitm = cli.get_int("inners");
    input.oitm = 1;
    input.fixed_iterations = true;
    input.scheme = snap::ConcurrencyScheme::Serial;  // flat-MPI style
    input.num_threads = 1;
    input.time_solve = true;

    print_problem(input, ("Table II, order " + std::to_string(order)).c_str());
    const auto disc = std::make_shared<const core::Discretization>(input);

    double seconds[2] = {0, 0}, in_solve[2] = {0, 0};
    const linalg::SolverKind kinds[2] = {
        linalg::SolverKind::GaussianElimination, linalg::SolverKind::LapackLu};
    for (int k = 0; k < 2; ++k) {
      snap::Input config = input;
      config.solver = kinds[k];
      core::TransportSolver solver(disc, config);
      const core::IterationResult result = solver.run();
      seconds[k] = result.assemble_solve_seconds;
      in_solve[k] =
          100.0 * result.solve_seconds / result.assemble_solve_seconds;
      std::printf("  %-3s %.3f s (%.0f%% in solve)\n",
                  linalg::to_string(kinds[k]).c_str(), seconds[k],
                  in_solve[k]);
      std::fflush(stdout);
    }
    table.add_row({static_cast<long>(order), seconds[0], in_solve[0],
                   seconds[1], in_solve[1], seconds[1] / seconds[0]});
  }

  table.print("Table II: assemble/solve time, GE vs LAPACK-style LU");
  if (!cli.get("csv").empty()) table.write_csv(cli.get("csv"));

  std::printf(
      "\nExpected shape (paper Table II): GE wins at low orders (fused,\n"
      "no pivot/factor bookkeeping); the library-style LU catches up as\n"
      "the matrix grows and wins by order 4 (125x125, larger than L1).\n"
      "Percent-in-solve grows with order: ~34%% at order 1 to ~87%% at\n"
      "order 4 for GE in the paper.\n");
  return 0;
}

// Kernel cost decomposition (paper §II-C and §IV-B-1): times the three
// parts of the central computation separately — matrix assembly (O(N^2)
// streamed reads of the precomputed integrals), right-hand-side assembly
// (mass matvec + upwind face gathers) and the dense solve (O(N^3) flops) —
// for each element order. Reproduces the argument behind Table II's
// "% in solve" column. The solve is timed two ways: the scalar kernel one
// system at a time, and as the sweep runs it (Assembler::submit/flush),
// which at order 1 eliminates linalg::kLanes systems in lockstep. The
// "% in solve" column is the sweep's own solve timer over its full kernel.

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/assembler.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace unsnap;
  using namespace unsnap::bench;

  Cli cli("bench_assembly", "kernel cost decomposition per element order");
  cli.option("nx", "4", "elements per dimension");
  cli.option("reps", "3", "repetitions over all elements/angles");
  cli.option("max-order", "4", "largest finite element order");
  cli.option("csv", "", "also write results to this CSV file");
  if (!cli.parse(argc, argv)) return 0;

  Table table({"order", "matrix", "assemble A (us)", "assemble b (us)",
               "scalar solve (us)", "lockstep solve (us)",
               "sweep kernel (us)", "% in solve"});

  for (int order = 1; order <= cli.get_int("max-order"); ++order) {
    snap::Input input;
    const int nx = cli.get_int("nx");
    input.dims = {nx, nx, nx};
    input.order = order;
    input.nang = 2;
    input.ng = 2;
    input.twist = 0.001;
    input.shuffle_seed = 1;

    const auto disc = std::make_shared<const core::Discretization>(input);
    const core::ProblemData problem(*disc, input);
    const core::Assembler assembler(*disc, problem);
    const int n = disc->num_nodes();

    core::AngularFlux psi(input.layout, input.nang, disc->num_elements(),
                          input.ng, n);
    core::NodalField phi(input.layout, disc->num_elements(), input.ng, n);
    core::NodalField qin(input.layout, disc->num_elements(), input.ng, n);
    qin.fill(1.0);
    core::SweepState state;
    state.psi = &psi;
    state.phi = &phi;
    state.qin = &qin;

    core::AssemblyContext ctx;
    ctx.resize(n, disc->nodes_per_face());

    const int reps = cli.get_int("reps");
    // One pass over every (octant, angle, element, group) of the problem.
    auto for_each_system = [&](auto&& body) {
      long count = 0;
      for (int rep = 0; rep < reps; ++rep)
        for (int oct = 0; oct < angular::kOctants; ++oct)
          for (int ang = 0; ang < input.nang; ++ang) {
            const auto omega = disc->quadrature().direction(oct, ang);
            for (int e = 0; e < disc->num_elements(); ++e)
              for (int g = 0; g < input.ng; ++g) {
                body(oct, ang, e, g, omega);
                ++count;
              }
          }
      return count;
    };

    // Microseconds per system of the fastest of three passes of `body`
    // over every system (the host is shared, so single passes are noisy).
    auto best_of_three = [&](auto&& body) {
      double best = 0.0;
      for (int pass = 0; pass < 3; ++pass) {
        Stopwatch watch;
        watch.start();
        const long count = for_each_system(body);
        const double us = watch.stop() / count * 1e6;
        if (pass == 0 || us < best) best = us;
      }
      return best;
    };

    // Time the kernels at the extent the sweep runs them (fixed 8 x 8 at
    // order 1, dynamic otherwise).
    double t_mat = 0.0, t_rhs = 0.0, t_scalar = 0.0, t_kernel = 0.0;
    double t_sweep_solve = 0.0;
    core::with_extent(*disc, [&](auto ext) {
      using E = decltype(ext);
      t_mat = best_of_three([&](int, int, int e, int g, const auto& w) {
        assembler.assemble_matrix<E::n, E::nf>(ctx.a.data(), e, g, w);
      });
      t_rhs = best_of_three(
          [&](int oct, int ang, int e, int g, const auto& w) {
            assembler.assemble_rhs<E::n, E::nf>(ctx, state, oct, ang, e, g,
                                                w);
          });

      // Matrix + solve one system at a time with the scalar kernel (fresh
      // matrix per solve); the solve is what remains after assembly.
      linalg::SolveWorkspace ws;
      t_scalar =
          best_of_three([&](int oct, int ang, int e, int g, const auto& w) {
            assembler.assemble_rhs<E::n, E::nf>(ctx, state, oct, ang, e, g,
                                                w);
            assembler.assemble_matrix<E::n, E::nf>(ctx.a.data(), e, g, w);
            linalg::solve_in_place<E::n>(
                linalg::SolverKind::GaussianElimination, ctx.a.view(),
                {ctx.rhs.data(), ctx.rhs.size()}, ws);
          }) -
          t_mat - t_rhs;

      // The whole kernel as the sweep runs it, psi/phi stores included,
      // with the sweep's solve timer on (kept from the fastest pass).
      const core::KernelOptions options{
          linalg::SolverKind::GaussianElimination, false, true};
      for (int pass = 0; pass < 3; ++pass) {
        ctx.solve_seconds = 0.0;
        Stopwatch watch;
        watch.start();
        const long count =
            for_each_system([&](int oct, int ang, int e, int g, const auto& w) {
              assembler.submit<E::n, E::nf>(
                  ctx,
                  {&state, w, disc->quadrature().weight(ang), oct, ang, e, g},
                  options);
            });
        assembler.flush<E::n, E::nf>(ctx, options);
        const double us = watch.stop() / count * 1e6;
        if (pass > 0 && us >= t_kernel) continue;
        t_kernel = us;
        t_sweep_solve = ctx.solve_seconds / count * 1e6;
      }
    });
    const bool lockstep = core::fixed_extent(n, disc->nodes_per_face());

    std::printf(
        "  order %d: A %.2f us, b %.2f us, scalar solve %.2f us, sweep solve "
        "%.2f us (%s), sweep kernel %.2f us\n",
        order, t_mat, t_rhs, t_scalar, t_sweep_solve,
        lockstep ? "lockstep" : "scalar", t_kernel);
    std::fflush(stdout);
    table.add_row({static_cast<long>(order),
                   std::to_string(n) + " x " + std::to_string(n), t_mat,
                   t_rhs, t_scalar,
                   lockstep ? Table::Cell(t_sweep_solve) : Table::Cell("-"),
                   t_kernel, 100.0 * t_sweep_solve / t_kernel});
  }

  table.print("Kernel cost decomposition per (element, angle, group)");
  if (!cli.get("csv").empty()) table.write_csv(cli.get("csv"));

  std::printf(
      "\nExpected shape (paper Table II / §IV-B-1): the scalar solve is ~1/3\n"
      "of the order-1 kernel, rising beyond 70%% for orders >= 3 as the\n"
      "O(N^3) solve outgrows the O(N^2) assembly. The order-1 sweep solves\n"
      "%d systems in lockstep, which cuts its share of the kernel.\n",
      linalg::kLanes);
  return 0;
}

// Kernel cost decomposition (paper §II-C and §IV-B-1): times the parts of
// the central computation separately for each element order, walking the
// systems the way the sweep's kernel does. Assembly is split into the
// shared per-(angle, element) coupling (Omega . G and the face blocks
// Omega . F_f, built once for all of an element's groups) and the per-lane
// part (sigma_t M plus the outflow faces into the matrix; the source and
// the upwind traces into the right-hand side). At order 1 the systems are
// assembled into linalg::kLanes lanes and solved in lockstep with the
// kernel's bail checks, exactly as Assembler::flush runs them; other
// orders assemble and solve one system at a time, as Assembler::process
// does. The scalar solve column times the one-system kernel on the same
// systems, and the sweep kernel column runs Assembler::submit/flush with
// its psi/phi stores. Reproduces the argument behind Table II's
// "% in solve" column.

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

  Table table({"order", "matrix", "couple (us/elem)", "couple (us)",
               "lane A (us)", "lane b (us)", "solve (us)",
               "scalar solve (us)", "sweep kernel (us)", "% in solve"});

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
    const int ng = input.ng;
    const bool lockstep = core::fixed_extent(n, disc->nodes_per_face());

    core::AngularFlux psi(input.layout, input.nang, disc->num_elements(), ng,
                          n);
    core::NodalField phi(input.layout, disc->num_elements(), ng, n);
    core::NodalField qin(input.layout, disc->num_elements(), ng, n);
    qin.fill(1.0);
    core::SweepState state;
    state.psi = &psi;
    state.phi = &phi;
    state.qin = &qin;

    core::AssemblyContext ctx;
    ctx.resize(n, disc->nodes_per_face());

    // Every (octant, angle, element, group) unit of the problem in the
    // sweep's default order (groups fastest), once per repetition.
    std::vector<core::SweepUnit> units;
    for (int oct = 0; oct < angular::kOctants; ++oct)
      for (int ang = 0; ang < input.nang; ++ang)
        for (int e = 0; e < disc->num_elements(); ++e)
          for (int g = 0; g < ng; ++g)
            units.push_back({&state, disc->quadrature().direction(oct, ang),
                             disc->quadrature().weight(ang), oct, ang, e, g});
    const int reps = cli.get_int("reps");
    const long count = static_cast<long>(units.size()) * reps;

    // Microseconds per unit of the fastest of three passes of `pass` (the
    // host is shared, so single passes are noisy).
    auto best_of_three = [&](auto&& pass) {
      double best = 0.0;
      for (int trial = 0; trial < 3; ++trial) {
        Stopwatch watch;
        watch.start();
        for (int rep = 0; rep < reps; ++rep) pass();
        const double us = watch.stop() / count * 1e6;
        if (trial == 0 || us < best) best = us;
      }
      return best;
    };

    // The kernel's stages, cumulatively: 1 couple, 2 + the per-lane
    // matrices, 3 + the right-hand sides, 4 + the solve. Batches hold
    // kLanes units at order 1 (a lane block, as flush fills it) and one
    // unit otherwise (as process runs it); inside a batch each run of one
    // (angle, element) shares its coupling.
    const int batch = lockstep ? linalg::kLanes : 1;
    long runs = 0;
    double t_stage[5] = {};
    core::with_extent(*disc, [&](auto ext) {
      using E = decltype(ext);
      constexpr int S = E::n == linalg::kDynamic ? 1 : linalg::kLanes;
      auto pass = [&](int stage) {
        runs = 0;
        for (std::size_t b0 = 0; b0 < units.size(); b0 += batch) {
          const std::size_t b1 =
              std::min(units.size(), b0 + static_cast<std::size_t>(batch));
          double* a = S == 1 ? ctx.a.data() : ctx.lanes.a();
          for (std::size_t l0 = b0; l0 < b1;) {
            const core::SweepUnit& u = units[l0];
            std::size_t l1 = l0 + 1;
            while (l1 < b1 && units[l1].e == u.e && units[l1].a == u.a &&
                   units[l1].oct == u.oct)
              ++l1;
            assembler.couple<E::n, E::nf>(ctx.coupling, u.e, u.omega, true);
            ++runs;
            if (stage >= 2) {
              double sigt[linalg::kLanes];
              for (std::size_t l = l0; l < l1; ++l)
                sigt[l - l0] = problem.sigt_eg(u.e, units[l].g);
              assembler.assemble_matrix<E::n, E::nf, S>(
                  a + (l0 - b0), ctx.coupling, u.e, {sigt, l1 - l0});
            }
            if (stage >= 3)
              for (std::size_t l = l0; l < l1; ++l) {
                const core::SweepUnit& v = units[l];
                assembler.assemble_rhs<E::n, E::nf>(ctx, ctx.coupling, state,
                                                    v.oct, v.a, v.e, v.g);
                if constexpr (S != 1)
                  for (int i = 0; i < n; ++i)
                    ctx.lanes.b()[i * S + static_cast<int>(l - b0)] =
                        ctx.rhs[static_cast<std::size_t>(i)];
              }
            l0 = l1;
          }
          if (stage < 4) continue;
          if constexpr (S == 1)
            linalg::solve_in_place<E::n>(
                linalg::SolverKind::GaussianElimination, ctx.a.view(),
                {ctx.rhs.data(), ctx.rhs.size()}, ctx.workspace);
          else
            linalg::gauss_solve_lanes<E::n>(ctx.lanes,
                                            static_cast<int>(b1 - b0), true);
        }
      };
      for (int stage = 1; stage <= 4; ++stage)
        t_stage[stage] = best_of_three([&] { pass(stage); });
    });
    const double t_couple = t_stage[1];
    const double t_mat = t_stage[2] - t_stage[1];
    const double t_rhs = t_stage[3] - t_stage[2];
    const double t_solve = t_stage[4] - t_stage[3];
    const double t_couple_elem =
        t_couple * static_cast<double>(units.size()) / runs;

    // The one-system kernel on the same systems: assemble into a
    // contiguous matrix, solve, minus that assembly.
    double t_scalar = 0.0, t_kernel = 0.0, t_sweep_solve = 0.0;
    core::with_extent(*disc, [&](auto ext) {
      using E = decltype(ext);
      auto assemble_one = [&](const core::SweepUnit& u) {
        assembler.couple<E::n, E::nf>(ctx.coupling, u.e, u.omega, true);
        assembler.assemble_rhs<E::n, E::nf>(ctx, ctx.coupling, state, u.oct,
                                            u.a, u.e, u.g);
        const double sigt = problem.sigt_eg(u.e, u.g);
        assembler.assemble_matrix<E::n, E::nf>(ctx.a.data(), ctx.coupling,
                                               u.e, {&sigt, 1});
      };
      const double t_one = best_of_three([&] {
        for (const core::SweepUnit& u : units) assemble_one(u);
      });
      t_scalar = best_of_three([&] {
                   for (const core::SweepUnit& u : units) {
                     assemble_one(u);
                     linalg::solve_in_place<E::n>(
                         linalg::SolverKind::GaussianElimination,
                         ctx.a.view(), {ctx.rhs.data(), ctx.rhs.size()},
                         ctx.workspace);
                   }
                 }) -
                 t_one;

      // The whole kernel as the sweep runs it, psi/phi stores included,
      // with the sweep's solve timer on (kept from the fastest pass).
      const core::KernelOptions options{
          linalg::SolverKind::GaussianElimination, false, true};
      for (int trial = 0; trial < 3; ++trial) {
        ctx.solve_seconds = 0.0;
        Stopwatch watch;
        watch.start();
        for (int rep = 0; rep < reps; ++rep)
          for (const core::SweepUnit& u : units)
            assembler.submit<E::n, E::nf>(ctx, u, options);
        assembler.flush<E::n, E::nf>(ctx, options);
        const double us = watch.stop() / count * 1e6;
        if (trial > 0 && us >= t_kernel) continue;
        t_kernel = us;
        t_sweep_solve = ctx.solve_seconds / count * 1e6;
      }
    });

    std::printf(
        "  order %d: couple %.3f us per (angle, element) = %.3f us per "
        "unit, lane A %.3f us, lane b %.3f us, %s solve %.3f us, scalar "
        "solve %.3f us, sweep kernel %.3f us\n",
        order, t_couple_elem, t_couple, t_mat, t_rhs,
        lockstep ? "lockstep" : "scalar", t_solve, t_scalar, t_kernel);
    std::fflush(stdout);
    table.add_row({static_cast<long>(order),
                   std::to_string(n) + " x " + std::to_string(n),
                   t_couple_elem, t_couple, t_mat, t_rhs, t_solve, t_scalar,
                   t_kernel, 100.0 * t_sweep_solve / t_kernel});
  }

  table.print("Kernel cost decomposition per (element, angle, group)");
  if (!cli.get("csv").empty()) table.write_csv(cli.get("csv"));

  std::printf(
      "\nExpected shape (paper Table II / §IV-B-1): the scalar solve is ~1/3\n"
      "of the order-1 kernel, rising beyond 70%% for orders >= 3 as the\n"
      "O(N^3) solve outgrows the O(N^2) assembly. The order-1 sweep solves\n"
      "%d systems in lockstep, which cuts its share of the kernel, and\n"
      "builds each (angle, element)'s coupling once for its groups.\n",
      linalg::kLanes);
  return 0;
}

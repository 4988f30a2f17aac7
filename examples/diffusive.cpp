// Diffusive scenario family: the shielding deck re-materialised so the
// shield *scatters* instead of absorbs, with the scattering ratio c pushed
// toward 1 (c = 0.9 / 0.99 / 0.999). Source iteration's error contracts by
// roughly c per sweep on optically thick regions, so these decks need
// hundreds of sweeps — or never converge inside default budgets — while
// the sweep-preconditioned GMRES inners (src/accel/) solve them in O(10)
// sweeps. The scenario runs both schemes on each c and prints the
// sweeps-to-convergence / wall-time / flux-agreement comparison.
//
// Geometry (z axis):  [ source | shield | detector ]
//                     0       1.0      1.8         3.0

#include <cmath>
#include <cstdio>
#include <vector>

#include "accel/inner.hpp"
#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace {

using namespace unsnap;

// Every centroid with z below `z`: the deck's `-inf inf -inf inf -inf z`.
api::Box below_z(double z) {
  api::Box box;
  box.hi[2] = z;
  return box;
}

void declare_options(Cli& cli) {
  cli.option("c", "0",
             "single scattering ratio in (0, 1); 0 runs the whole "
             "0.9 / 0.99 / 0.999 family");
  cli.option("nx", "6", "elements across x and y");
  cli.option("nz", "18", "elements along the shield axis");
  cli.option("nang", "4", "angles per octant");
  cli.option("epsi", "1e-6", "convergence tolerance");
  cli.option("iitm", "600", "sweep budget per outer (both schemes)");
  cli.option("oitm", "5", "max outer iterations");
  cli.option("gmres-restart", "20", "GMRES restart length");
  cli.option("gmres-iters", "100", "max Krylov iterations per inner solve");
  cli.flag("verbose", "print per-inner histories of the GMRES runs");
}

int run(const Cli& cli) {
  std::vector<double> family{0.9, 0.99, 0.999};
  if (cli.get_double("c") != 0.0) {
    require(cli.get_double("c") > 0.0 && cli.get_double("c") < 1.0,
            "diffusive: --c must be in (0, 1)");
    family = {cli.get_double("c")};
  }

  api::RunConfig config;
  config.mesh = {.dims = {cli.get_int("nx"), cli.get_int("nx"),
                          cli.get_int("nz")},
                 .extent = {1.0, 1.0, 3.0},
                 .twist = 0.001,
                 .shuffle_seed = 7};
  config.angular = {.nang = cli.get_int("nang"),
                    .quadrature = angular::QuadratureKind::Product};
  // Three materials: thin filler/detector (0), scattering source medium
  // (1) and a thick diffusive shield (2, 16 mfp). The swept c is the
  // scattering ratio of the source medium and the shield; the filler
  // keeps a benign fixed ratio.
  config.materials = {.num_groups = 2,
                      .sigt = {0.1, 5.0, 20.0},
                      .default_material = 0,
                      .regions = {{.material = 1, .box = below_z(1.0)},
                                  {.material = 2, .box = below_z(1.8)}}};
  config.source = {.regions = {{.strength = 1.0, .box = below_z(1.0)}}};

  std::printf("Diffusive family: %dx%dx%d elements, %d angles/octant, "
              "epsi %.1e, sweep budget %d x %d outers\n",
              cli.get_int("nx"), cli.get_int("nx"), cli.get_int("nz"),
              cli.get_int("nang"), cli.get_double("epsi"),
              cli.get_int("iitm"), cli.get_int("oitm"));

  Table table({"c", "si sweeps", "si s", "gmres sweeps", "krylov",
               "gmres s", "sweep ratio", "max flux diff"});
  std::shared_ptr<const core::Discretization> disc;
  for (const double c : family) {
    config.materials.scattering = {0.5, c, c};
    core::IterationResult results[2];
    std::vector<double> fluxes[2];
    for (const snap::IterationScheme scheme :
         {snap::IterationScheme::SourceIteration,
          snap::IterationScheme::Gmres}) {
      config.iteration = {.epsi = cli.get_double("epsi"),
                          .iitm = cli.get_int("iitm"),
                          .oitm = cli.get_int("oitm"),
                          .fixed_iterations = false,
                          .scheme = scheme,
                          .gmres_restart = cli.get_int("gmres-restart"),
                          .gmres_max_iters = cli.get_int("gmres-iters")};
      api::Run run(config);
      if (disc) run.set_shared_discretization(disc);
      const std::size_t which =
          scheme == snap::IterationScheme::Gmres ? 1 : 0;
      results[which] = *run.execute().iteration;
      disc = run.shared_discretization();
      const core::NodalField& phi = run.solver()->scalar_flux();
      fluxes[which].assign(phi.data(), phi.data() + phi.size());
      if (which == 1 && cli.get_flag("verbose")) {
        std::printf("\nc = %g gmres history:\n", c);
        api::print_iteration_report(results[which], false, true);
      }
    }
    // Pointwise agreement between the two converged fluxes (SNAP's
    // relative measure; large where SI hit its budget without converging).
    std::vector<double> delta(fluxes[0].size());
    for (std::size_t i = 0; i < delta.size(); ++i)
      delta[i] = fluxes[1][i] - fluxes[0][i];
    const double diff = accel::max_pointwise_change(delta, fluxes[0]);
    const core::IterationResult& si = results[0];
    const core::IterationResult& gm = results[1];
    table.add_row(
        {c,
         std::string(std::to_string(si.sweeps) +
                     (si.converged ? "" : " (cap)")),
         si.total_seconds, static_cast<long>(gm.sweeps),
         static_cast<long>(gm.krylov_iters), gm.total_seconds,
         static_cast<double>(gm.sweeps) / si.sweeps, diff});
  }
  table.print("source iteration vs sweep-preconditioned GMRES");
  std::printf(
      "\n(sweep ratio is gmres/si; 'cap' marks SI runs that exhausted the\n"
      "sweep budget before reaching epsi — the flux diff column is then\n"
      "dominated by SI's unconverged error)\n");
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "diffusive",
    .summary = "scattering-dominated shielding family (c -> 1): SI vs "
               "GMRES inners",
    .declare_options = declare_options,
    .run = run,
}};

}  // namespace

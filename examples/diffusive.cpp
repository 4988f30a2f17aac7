// Diffusive scenario family: the shielding deck re-materialised so the
// shield *scatters* instead of absorbs (decks/diffusive.inp), with the
// scattering ratio c of the source medium and shield pushed toward 1
// (c = 0.9 / 0.99 / 0.999). Plain source iteration's error contracts by
// roughly c per sweep on optically thick regions, so these problems need
// hundreds of sweeps — or never converge inside default budgets — while
// the sweep-preconditioned GMRES inners (src/accel/) solve them in O(10)
// sweeps. On a converging single-domain deck both schemes run diffusion
// synthetic acceleration (accel/dsa.hpp): GMRES as its preconditioner,
// source iteration as a correction after every sweep, which takes it to
// O(10) sweeps as well. The scenario runs both schemes on each c and
// prints the sweeps-to-convergence / wall-time / flux-agreement
// comparison; a deck with `verbose = true` also prints the GMRES runs'
// per-inner histories.
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

void declare_options(Cli& cli) {
  cli.option("c", "0",
             "single scattering ratio in (0, 1); 0 runs the whole "
             "0.9 / 0.99 / 0.999 family");
}

int run(const Cli& cli, api::RunConfig config) {
  std::vector<double> family{0.9, 0.99, 0.999};
  if (cli.get_double("c") != 0.0) {
    require(cli.get_double("c") > 0.0 && cli.get_double("c") < 1.0,
            "diffusive: --c must be in (0, 1)");
    family = {cli.get_double("c")};
  }
  require(config.materials.scattering.size() == 3,
          "diffusive: the deck needs three scattering ratios (filler, "
          "source medium, shield)");

  const api::IterationSpec& iteration = config.iteration;
  std::printf("Diffusive family: %s elements, %d angles/octant, "
              "epsi %.1e, sweep budget %d x %d outers\n",
              api::grid_label(config.mesh.dims).c_str(),
              config.angular.nang, iteration.epsi, iteration.iitm,
              iteration.oitm);

  Table table({"c", "si sweeps", "si s", "gmres sweeps", "krylov",
               "gmres s", "sweep ratio", "max flux diff"});
  std::shared_ptr<const core::Discretization> disc;
  for (const double c : family) {
    // The swept c is the scattering ratio of the source medium and the
    // shield; the filler keeps the deck's ratio.
    config.materials.scattering[1] = config.materials.scattering[2] = c;
    core::IterationResult results[2];
    std::vector<double> fluxes[2];
    for (const snap::IterationScheme scheme :
         {snap::IterationScheme::SourceIteration,
          snap::IterationScheme::Gmres}) {
      config.iteration.scheme = scheme;
      api::Run run(config);
      if (disc) run.set_shared_discretization(disc);
      const std::size_t which =
          scheme == snap::IterationScheme::Gmres ? 1 : 0;
      results[which] = *run.execute().iteration;
      disc = run.shared_discretization();
      const core::NodalField& phi = run.solver()->scalar_flux();
      fluxes[which].assign(phi.data(), phi.data() + phi.size());
      if (which == 1 && config.output.verbose) {
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
    .run_deck = run,
}};

}  // namespace

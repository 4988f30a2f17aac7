// Shielding scenario: a slab source, a dense shield of varying total cross
// section, and a detector region behind it — the classic deep-penetration
// configuration that motivates deterministic transport. Sweeps the
// shield's sigt (material 2 of decks/shielding.inp) over a shared
// discretisation and writes a VTK file of the attenuated flux.
//
// Geometry (z axis):  [ source | shield | detector ]
//                     0       1.0      1.8         3.0
// The detector band sits directly behind the shield so the measured
// attenuation tracks the shield optical depth instead of distance decay.

#include <cmath>
#include <cstdio>
#include <vector>

#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "io/vtk_writer.hpp"
#include "util/assert.hpp"

namespace {

using namespace unsnap;

void declare_options(Cli& cli) {
  cli.option("vtk", "shielding.vtk", "VTK output file ('' to disable)");
}

int run(const Cli& cli, api::RunConfig config) {
  require(config.materials.sigt.size() == 3,
          "shielding: the deck needs three sigt materials (filler, source "
          "medium, shield)");
  std::printf("Shielding study: %s elements, order %d\n",
              api::grid_label(config.mesh.dims).c_str(), config.mesh.order);
  std::printf("\nshield sigt   detector <phi>   attenuation vs no shield\n");

  // The mesh/schedules are shared across the sigt sweep: the first run
  // builds the discretisation, the rest reuse it.
  std::shared_ptr<const core::Discretization> disc;
  double unshielded = -1.0;
  for (const double shield_sigt : {0.05, 1.0, 2.0, 4.0}) {
    config.materials.sigt[2] = shield_sigt;
    api::Run run(config);
    if (disc) run.set_shared_discretization(disc);
    (void)run.execute();
    disc = run.shared_discretization();
    const core::TransportSolver& solver = *run.solver();

    // Volume-average group-0 flux in the band directly behind the shield.
    const double detector = api::region_average_flux(
        *disc, solver.scalar_flux(), 0,
        [](const fem::Vec3& c) { return c[2] >= 1.8 && c[2] <= 2.3; });
    if (unshielded < 0.0) unshielded = detector;
    std::printf("  %6.2f      %.6e     %8.2fx\n", shield_sigt, detector,
                unshielded / detector);

    if (shield_sigt == 4.0 && !cli.get("vtk").empty()) {
      std::vector<double> mat_field(solver.problem().material.begin(),
                                    solver.problem().material.end());
      io::write_vtk(cli.get("vtk"), disc->mesh(),
                    {{"flux_g0",
                      io::cell_average_flux(*disc, solver.scalar_flux(), 0)},
                     {"material", mat_field}});
      std::printf("  wrote %s\n", cli.get("vtk").c_str());
    }
  }

  // Rough sanity: a 0.8 mfp-thick shield at sigt=4 (3.2 mfp) should cut
  // the detector flux by orders of magnitude relative to near-void.
  std::printf("\nnormal-incidence beam estimate across the 0.8-thick "
              "shield:\n");
  for (const double s : {1.0, 2.0, 4.0})
    std::printf("  sigt %.1f: exp(-sigt * 0.8) = %.3e\n", s,
                std::exp(-s * 0.8));
  std::printf(
      "(oblique ordinates see longer chords through the slab, so the\n"
      "measured attenuation is somewhat stronger than this estimate;\n"
      "scattering build-up pushes the other way)\n");
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "shielding",
    .summary = "slab source / shield / detector attenuation study",
    .declare_options = declare_options,
    .run_deck = run,
}};

}  // namespace

// Spatial convergence scenario with a manufactured solution (method of
// manufactured solutions): solves the smooth trigonometric exact solution
// of decks/convergence_order.inp (mode = mms) on successively refined
// twisted meshes for several element orders and reports the observed L2
// convergence order. Demonstrates the paper's §II-C claim that
// higher-order elements buy accuracy per element — the reason the FEM's
// extra FLOPs can pay for themselves.

#include <cmath>
#include <cstdio>

#include "api/run.hpp"
#include "api/scenario.hpp"
#include "util/assert.hpp"

namespace {

using namespace unsnap;

void declare_options(Cli& cli) {
  cli.option("max-order", "3", "largest finite element order");
  cli.option("levels", "3", "number of mesh refinements");
}

int run(const Cli& cli, api::RunConfig config) {
  require(config.mode == api::RunMode::Mms,
          "convergence_order: the deck must be a mode = mms deck");
  const int max_order = cli.get_int("max-order");
  const int levels = cli.get_int("levels");
  std::printf("MMS convergence, exact solution 2 + sin/cos products, "
              "twisted meshes\n");

  for (int order = 1; order <= max_order; ++order) {
    std::printf("\norder %d (expected L2 order ~%d):\n", order, order + 1);
    std::printf("  mesh      L2 error      observed order\n");
    config.mesh.order = order;
    double previous = 0.0;
    for (int level = 0; level < levels; ++level) {
      const int cells = 2 << level;  // 2, 4, 8
      config.mesh.dims = {cells, cells, cells};
      const double error = *api::Run(config).execute().mms_l2_error;
      if (previous > 0.0)
        std::printf("  %d^3      %.6e   %.2f\n", cells, error,
                    std::log2(previous / error));
      else
        std::printf("  %d^3      %.6e   --\n", cells, error);
      previous = error;
    }
  }

  std::printf(
      "\nReading: each extra order buys roughly one extra power of h —\n"
      "coarser meshes for the same error, which is the memory trade the\n"
      "paper's §II-C discusses.\n");
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "convergence_order",
    .summary = "MMS h-convergence across element orders",
    .declare_options = declare_options,
    .run_deck = run,
}};

}  // namespace

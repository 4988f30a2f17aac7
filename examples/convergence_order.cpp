// Spatial convergence scenario with a manufactured solution (method of
// manufactured solutions): solves a smooth trigonometric exact solution
// on successively refined twisted meshes for several element orders and
// reports the observed L2 convergence order. Demonstrates the paper's
// §II-C claim that higher-order elements buy accuracy per element —
// the reason the FEM's extra FLOPs can pay for themselves.

#include <cmath>
#include <cstdio>

#include "api/run.hpp"
#include "api/scenario.hpp"

namespace {

using namespace unsnap;

void declare_options(Cli& cli) {
  cli.option("max-order", "3", "largest finite element order");
  cli.option("levels", "3", "number of mesh refinements");
}

int run(const Cli& cli) {
  std::printf("MMS convergence, exact solution 2 + sin/cos products, "
              "twisted meshes\n");

  for (int order = 1; order <= cli.get_int("max-order"); ++order) {
    std::printf("\norder %d (expected L2 order ~%d):\n", order, order + 1);
    std::printf("  mesh      L2 error      observed order\n");
    double previous = 0.0;
    for (int level = 0; level < cli.get_int("levels"); ++level) {
      const int cells = 2 << level;  // 2, 4, 8
      // Homogeneous pure absorber: material 2 always scatters (its ratio
      // is c + 0.1), which would need source iterations; with mat_opt 0
      // and c = 0 a single sweep solves the problem exactly in angle.
      api::RunConfig config;
      config.mode = api::RunMode::Mms;
      config.mesh = {.dims = {cells, cells, cells},
                     .twist = 0.01,
                     .shuffle_seed = 5,
                     .order = order};
      config.angular = {.nang = 4};
      config.materials = {.num_groups = 1,
                          .mat_opt = 0,
                          .scattering_ratio = 0.0};
      config.iteration = {.iitm = 1, .oitm = 1};
      const double error =
          *api::Run(std::move(config)).execute().mms_l2_error;
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
    .run = run,
}};

}  // namespace

// Time-dependent scenario: an initial particle pulse in a scattering box
// with vacuum boundaries decays by absorption and leakage. Demonstrates
// the backward-Euler time integrator (SNAP's optional time dimension) and
// prints the population history together with the per-step iteration
// counts — late steps converge faster because the previous step
// warm-starts the source iteration.

#include <cstdio>

#include "api/run.hpp"
#include "api/scenario.hpp"

namespace {

using namespace unsnap;

void declare_options(Cli& cli) {
  cli.option("nx", "6", "elements per dimension");
  cli.option("ng", "2", "energy groups");
  cli.option("nang", "4", "angles per octant");
  cli.option("dt", "0.25", "time step");
  cli.option("steps", "16", "number of steps");
  cli.option("c", "0.6", "scattering ratio");
}

int run(const Cli& cli) {
  const int nx = cli.get_int("nx");
  api::RunConfig config;
  config.mode = api::RunMode::Time;
  config.mesh = {.dims = {nx, nx, nx}, .twist = 0.001, .shuffle_seed = 21};
  config.angular = {.nang = cli.get_int("nang")};
  config.materials = {.num_groups = cli.get_int("ng"),
                      .mat_opt = 0,
                      .scattering_ratio = cli.get_double("c")};
  config.source = {.src_opt = 0};
  config.iteration = {.epsi = 1e-7,
                      .iitm = 200,
                      .oitm = 10,
                      .fixed_iterations = false};
  // A uniform unit pulse decaying freely: no driving source.
  config.time = {.dt = cli.get_double("dt"),
                 .steps = cli.get_int("steps"),
                 .initial = 1.0,
                 .zero_source = true};
  const api::RunRecord record = api::Run(config).execute();

  const double d0 = *record.initial_density;
  std::printf("Pulse decay: %d^3 box, %d groups, c = %.2f, dt = %.3g\n",
              nx, record.config.ng, cli.get_double("c"), config.time.dt);
  std::printf("\n  time    density     fraction   inners\n");
  std::printf("  %5.2f   %.4e   %7.4f\n", 0.0, d0, 1.0);
  double previous = d0;
  for (const api::RunRecord::TimeStep& step : record.steps) {
    std::printf("  %5.2f   %.4e   %7.4f   %d\n", step.time,
                step.total_density, step.total_density / d0, step.inners);
    if (step.total_density > previous)
      std::printf("  WARNING: density grew without a source!\n");
    previous = step.total_density;
  }
  std::printf(
      "\nReading: the population decays monotonically; the decay rate is\n"
      "bounded by absorption (sigma_a v) plus boundary leakage, and the\n"
      "iteration count per step falls as the solution relaxes.\n");
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "pulse_decay",
    .summary = "decay of an initial pulse (time-dependent mode)",
    .declare_options = declare_options,
    .run = run,
}};

}  // namespace

// Sweep-schedule explorer scenario: builds the twisted unstructured mesh
// of decks/sweep_explorer.inp, constructs the bucketed wavefront schedule
// for a chosen ordinate and writes the bucket index ("tlevel") of every
// element to VTK — load it in ParaView and the wavefronts are directly
// visible as bands marching through the mesh. Also prints the
// bucket-occupancy profile (the paper's available element parallelism)
// and the schedule-dedup statistics.
//
// This scenario deliberately stays below api::Run: it only needs mesh +
// quadrature + schedules, so it skips the element-integrals and
// problem-data construction a full run would pay for.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/report.hpp"
#include "api/scenario.hpp"
#include "io/vtk_writer.hpp"
#include "mesh/mesh_builder.hpp"
#include "sweep/schedule.hpp"
#include "util/assert.hpp"

namespace {

using namespace unsnap;

void declare_options(Cli& cli) {
  cli.option("octant", "0", "octant of the visualised ordinate");
  cli.option("angle", "0", "angle index of the visualised ordinate");
  cli.option("vtk", "sweep_buckets.vtk", "VTK output ('' to disable)");
}

int run(const Cli& cli, api::RunConfig config) {
  const int oct = cli.get_int("octant");
  const int angle = cli.get_int("angle");
  const api::MeshSpec& spec = config.mesh;
  mesh::MeshOptions options;
  options.dims = spec.dims;
  options.extent = {spec.extent[0], spec.extent[1], spec.extent[2]};
  options.twist = spec.twist;
  options.shuffle_seed = spec.shuffle_seed;
  const mesh::HexMesh mesh = mesh::build_brick_mesh(options);

  const angular::QuadratureSet quad(config.angular.quadrature,
                                    config.angular.nang);
  require(oct >= 0 && oct < angular::kOctants && angle >= 0 &&
              angle < quad.per_octant(),
          "sweep_explorer: --octant must be in [0, 8) and --angle in [0, " +
              std::to_string(quad.per_octant()) + ")");
  // Strong twists can make the dependency graph cyclic; retry with the
  // SCC cycle-breaking schedule so exploration never dead-ends.
  sweep::CycleStrategy strategy = spec.cycle_strategy;
  std::unique_ptr<sweep::ScheduleSet> schedules;
  try {
    schedules = std::make_unique<sweep::ScheduleSet>(mesh, quad, strategy);
  } catch (const NumericalError& err) {
    std::printf("note: %s\n      retrying with cycles = lag-scc\n",
                err.what());
    strategy = sweep::CycleStrategy::LagScc;
    schedules = std::make_unique<sweep::ScheduleSet>(mesh, quad, strategy);
  }
  const sweep::ScheduleSet& set = *schedules;
  std::printf("mesh %s twisted %.3g rad: %d unique schedules for %d "
              "directions (cycles: %s)\n",
              api::grid_label(spec.dims).c_str(), options.twist,
              set.unique_count(), angular::kOctants * quad.per_octant(),
              sweep::to_string(strategy).c_str());

  const sweep::SweepSchedule& schedule = set.get(oct, angle);
  const sweep::ScheduleStats stats = sweep::schedule_stats(schedule);
  const auto dir = quad.direction(oct, angle);
  std::printf("ordinate (%.3f, %.3f, %.3f): %d buckets, occupancy "
              "min/mean/max = %d/%.1f/%d, %zu lagged faces\n",
              dir[0], dir[1], dir[2], stats.buckets, stats.min_bucket,
              stats.mean_bucket, stats.max_bucket,
              schedule.lagged_faces().size());

  // Occupancy histogram over the sweep's progress.
  std::printf("\nbucket   elements  (parallel work per wavefront)\n");
  const int step = std::max(1, schedule.num_buckets() / 16);
  for (int b = 0; b < schedule.num_buckets(); b += step)
    std::printf("  %4d   %7zu   %s\n", b, schedule.bucket(b).size(),
                std::string(schedule.bucket(b).size() * 60 /
                                static_cast<std::size_t>(stats.max_bucket),
                            '#')
                    .c_str());

  if (!cli.get("vtk").empty()) {
    std::vector<double> tlevel(static_cast<std::size_t>(mesh.num_elements()));
    for (int b = 0; b < schedule.num_buckets(); ++b)
      for (const int e : schedule.bucket(b)) tlevel[e] = b;
    io::write_vtk(cli.get("vtk"), mesh, {{"tlevel", tlevel}});
    std::printf("\nwrote %s (colour by 'tlevel' to see the wavefronts)\n",
                cli.get("vtk").c_str());
  }
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "sweep_explorer",
    .summary = "visualise wavefront buckets of a sweep",
    .declare_options = declare_options,
    .run_deck = run,
}};

}  // namespace

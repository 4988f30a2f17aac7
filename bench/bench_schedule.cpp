// Schedule-construction study (paper §III-A-2): cost of building the
// per-angle bucketed wavefront schedules, the bucket-occupancy profile
// that determines the available element parallelism, and how the
// signature deduplication collapses identical angles (all angles of an
// octant share a schedule on an untwisted brick).

#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "mesh/mesh_builder.hpp"
#include "sweep/schedule.hpp"
#include "util/timer.hpp"

namespace {

using namespace unsnap;
using namespace unsnap::bench;

void construction_study(int nang, const std::string& csv) {
  const angular::QuadratureSet quad(angular::QuadratureKind::SnapLike, nang);
  Table table({"mesh", "twist", "unique schedules", "build (s)", "buckets",
               "mean bucket", "max bucket", "lagged"});

  for (const int nx : {8, 12, 16}) {
    for (const double twist : {0.0, 0.001, 0.05, 0.5, 2.5}) {
      mesh::MeshOptions opt;
      opt.dims = {nx, nx, nx};
      opt.twist = twist;
      opt.shuffle_seed = 1;
      const mesh::HexMesh mesh = mesh::build_brick_mesh(opt);

      // The big twists are the cyclic regime: lag-scc breaks the cycles
      // (abort would throw there).
      Stopwatch watch;
      watch.start();
      const sweep::ScheduleSet set(mesh, quad, sweep::CycleStrategy::LagScc);
      const double build = watch.stop();

      const sweep::ScheduleStats stats = sweep::schedule_stats(set.get(0, 0));
      const sweep::ScheduleSetStats agg = sweep::schedule_set_stats(set, 1);
      std::printf("  %2d^3 twist %-6g: %3d unique, %5d lagged, %.3f s\n", nx,
                  twist, set.unique_count(), agg.total_lagged, build);
      std::fflush(stdout);
      table.add_row({std::to_string(nx) + "^3", twist,
                     static_cast<long>(set.unique_count()), build,
                     static_cast<long>(stats.buckets), stats.mean_bucket,
                     static_cast<long>(stats.max_bucket),
                     static_cast<long>(agg.total_lagged)});
    }
  }
  table.print("Schedule construction across mesh size and twist");
  if (!csv.empty()) table.write_csv(csv);
}

// Threaded sweep execution on the quickstart deck: serial reference vs the
// element-threaded and angle-batched schemes across the thread axis. This
// is the payoff measurement for the schedule work — report the modelled
// bucket efficiency next to the measured speedup so schedule shape and
// runtime behaviour can be compared directly.
void execution_study(int nx, int nang, const std::vector<int>& threads) {
  snap::Input input;
  input.dims = {nx, nx, nx};
  input.twist = 0.001;
  input.shuffle_seed = 42;
  input.nang = nang;
  input.ng = 4;
  input.mat_opt = 1;
  input.src_opt = 1;
  input.scattering_ratio = 0.5;
  input.iitm = 4;
  input.oitm = 1;
  input.fixed_iterations = true;
  print_problem(input, "\nThreaded sweep execution (quickstart deck)");

  input.num_threads = 1;
  input.scheme = snap::ConcurrencyScheme::Serial;
  const auto disc = std::make_shared<const core::Discretization>(input);
  const double serial = run_assemble_solve(disc, input);
  std::printf("  serial reference: %.4f s/run\n", serial);

  // The modelled efficiency depends on the thread count only, not on the
  // scheme — compute it once per thread count.
  std::map<int, double> modelled;
  for (const int t : threads)
    modelled[t] = sweep::schedule_set_stats(disc->schedules(), t)
                      .parallel_efficiency;

  Table table({"scheme", "threads", "time (s)", "speedup",
               "modelled efficiency"});
  for (const snap::ConcurrencyScheme scheme :
       {snap::ConcurrencyScheme::Elements,
        snap::ConcurrencyScheme::ElementsGroups,
        snap::ConcurrencyScheme::AngleBatch}) {
    for (const int t : threads) {
      input.scheme = scheme;
      input.num_threads = t;
      const double time = run_assemble_solve(disc, input);
      std::printf("  %-16s x%-3d: %.4f s (speedup %.2f)\n",
                  snap::to_string(scheme).c_str(), t, time, serial / time);
      std::fflush(stdout);
      table.add_row({snap::to_string(scheme), static_cast<long>(t), time,
                     serial / time, modelled[t]});
    }
  }
  table.print("Threaded sweep vs serial (same deck, same discretisation)");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_schedule",
          "sweep schedule construction, occupancy and threaded execution");
  cli.option("nang", "8", "angles per octant");
  cli.option("nx", "12", "mesh size for the execution study");
  cli.option("threads", "", "thread list for the execution study "
                            "(default: powers of two up to the cores)");
  cli.option("csv", "", "also write construction results to this CSV file");
  cli.flag("no-exec", "skip the threaded execution study");
  if (!cli.parse(argc, argv)) return 0;

  construction_study(cli.get_int("nang"), cli.get("csv"));

  if (!cli.get_flag("no-exec")) {
    const std::vector<int> threads = cli.get("threads").empty()
                                         ? default_thread_list()
                                         : parse_thread_list(cli.get("threads"));
    execution_study(cli.get_int("nx"), cli.get_int("nang"), threads);
  }

  std::printf(
      "\nReading: untwisted meshes collapse to 8 unique schedules (one per\n"
      "octant, the structured-mesh property in §III-A); twists grow the\n"
      "count toward one per angle, and past ~1 rad the graphs go cyclic —\n"
      "lag-scc confines the lagged faces to provably cyclic components.\n"
      "Bucket sizes bound the paper's element-level parallelism: mean\n"
      "bucket >> cores means the [element]-threaded schemes can scale, and\n"
      "angle-batch widens small buckets by the batch width when schedules\n"
      "dedup.\n");
  return 0;
}

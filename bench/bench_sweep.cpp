// Sweep-kernel throughput battery: elements/sec (and per thread) for the
// hot assemble-and-solve loop across {flux layout} x {concurrency scheme}
// x {local solver} x {preassembly mode}, run through the deck-driven
// api::Run facade so every cell lands in BENCH_sweep.json as a full
// RunRecord (the BENCH_solvers shape: top-level provenance + a raw
// record per cell, with the derived throughput table alongside under
// "kernels"). The battery doubles as a correctness gate: every cell
// solves the same fixed-iteration problem, so all flux digests must
// agree with the first cell's within the golden tolerance — drift in
// any layout/scheme/solver/preassembly combination fails the run with a
// non-zero exit, which is what the sweep-bench-smoke CI job checks.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "api/version.hpp"
#include "bench_common.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace unsnap;

constexpr double kRelTol = 5e-7;  // the golden battery's tolerance

struct Cell {
  std::string layout, scheme, solver, preassembly;
  int threads = 1;
  long sweeps = 0;
  double assemble_solve_seconds = 0.0;
  double elements_per_second = 0.0;
  double per_thread = 0.0;
  std::size_t preassembly_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace unsnap;
  using namespace unsnap::bench;

  Cli cli("bench_sweep",
          "sweep-kernel throughput: layout x scheme x solver x preassembly");
  cli.option("nx", "6", "elements per dimension");
  cli.option("nang", "4", "angles per octant");
  cli.option("ng", "2", "energy groups");
  cli.option("inners", "4", "fixed inner iterations per outer");
  cli.option("threads", "", "comma list of thread counts (default: all cores)");
  cli.option("out", "BENCH_sweep.json", "output JSON path");
  if (!cli.parse(argc, argv)) return 0;

  const std::vector<int> thread_axis =
      cli.get("threads").empty() ? std::vector<int>{omp_get_num_procs()}
                                 : parse_thread_list(cli.get("threads"));

  api::RunConfig config;
  config.mesh = {.dims = {cli.get_int("nx"), cli.get_int("nx"),
                          cli.get_int("nx")},
                 .twist = 0.001,
                 .shuffle_seed = 1};
  config.angular.nang = cli.get_int("nang");
  config.materials.num_groups = cli.get_int("ng");
  config.materials.mat_opt = 1;
  config.materials.scattering_ratio = 0.5;
  config.iteration.iitm = cli.get_int("inners");
  config.iteration.oitm = 1;
  config.iteration.fixed_iterations = true;
  config.output.report = false;

  const struct {
    snap::FluxLayout layout;
    snap::ConcurrencyScheme scheme;
  } kernels[] = {
      {snap::FluxLayout::AngleElementGroup,
       snap::ConcurrencyScheme::ElementsGroups},
      {snap::FluxLayout::AngleElementGroup,
       snap::ConcurrencyScheme::AngleBatch},
      {snap::FluxLayout::AngleGroupElement,
       snap::ConcurrencyScheme::ElementsGroups},
      {snap::FluxLayout::AngleGroupElement,
       snap::ConcurrencyScheme::AngleBatch},
  };
  const linalg::SolverKind solvers[] = {
      linalg::SolverKind::GaussianElimination, linalg::SolverKind::LapackLu};
  const snap::PreassemblyMode modes[] = {
      snap::PreassemblyMode::None, snap::PreassemblyMode::ExplicitInverse};

  util::JsonWriter json;
  json.begin_object();
  json.kv("bench",
          "bench_sweep: sweep-kernel throughput, layout x scheme x solver "
          "x preassembly (fixed-iteration homogeneous cube)");
  json.kv("unsnap", api::version_info().summary());
  json.key("config").begin_object();
  json.kv("nx", static_cast<long>(cli.get_int("nx")));
  json.kv("nang", static_cast<long>(cli.get_int("nang")));
  json.kv("ng", static_cast<long>(cli.get_int("ng")));
  json.kv("inners", static_cast<long>(cli.get_int("inners")));
  json.end_object();

  Table table({"layout", "scheme", "solver", "preassembly", "threads",
               "sweeps", "kernel (s)", "Melem/s", "Melem/s/thread"});
  std::vector<Cell> cells;
  std::vector<std::string> records;
  std::vector<double> baseline;  // first cell's flux group averages
  std::shared_ptr<const core::Discretization> shared;
  bool drift = false;
  double best_none = 0.0, best_inverse = 0.0;

  for (const int threads : thread_axis)
    for (const auto& kernel : kernels)
      for (const linalg::SolverKind solver : solvers)
        for (const snap::PreassemblyMode mode : modes) {
          config.execution.layout = kernel.layout;
          config.execution.scheme = kernel.scheme;
          config.execution.solver = solver;
          config.execution.num_threads = threads;
          config.execution.preassembly = mode;
          config.title = snap::to_string(kernel.layout) + "/" +
                         snap::to_string(kernel.scheme) + "/" +
                         linalg::to_string(solver) + "/" +
                         snap::to_string(mode) + "/t" +
                         std::to_string(threads);

          api::Run run(config);
          if (shared) run.set_shared_discretization(shared);
          const api::RunRecord record = run.execute();
          shared = run.shared_discretization();
          records.push_back(api::to_json(record));

          Cell cell;
          cell.layout = snap::to_string(kernel.layout);
          cell.scheme = snap::to_string(kernel.scheme);
          cell.solver = linalg::to_string(solver);
          cell.preassembly = snap::to_string(mode);
          cell.threads = threads;
          cell.sweeps = record.iteration->sweeps;
          cell.assemble_solve_seconds =
              record.iteration->assemble_solve_seconds;
          cell.preassembly_bytes = record.config.preassembly_bytes;
          // One "element" of sweep work = one (angle, element, group)
          // local system: assemble (unless pre-built) + solve + scatter.
          const double solves = static_cast<double>(record.config.elements) *
                                record.config.directions * record.config.ng *
                                cell.sweeps;
          cell.elements_per_second =
              solves / std::max(cell.assemble_solve_seconds, 1e-12);
          cell.per_thread = cell.elements_per_second / threads;
          cells.push_back(cell);
          if (mode == snap::PreassemblyMode::None)
            best_none = std::max(best_none, cell.elements_per_second);
          if (mode == snap::PreassemblyMode::ExplicitInverse)
            best_inverse = std::max(best_inverse, cell.elements_per_second);

          // Correctness gate: identical physics in every cell.
          const std::vector<double>& avg = record.flux->group_averages;
          if (baseline.empty()) {
            baseline = avg;
          } else {
            for (std::size_t g = 0; g < baseline.size(); ++g)
              if (std::fabs(avg[g] - baseline[g]) >
                  kRelTol * std::max(std::fabs(baseline[g]), 1e-30)) {
                std::fprintf(stderr,
                             "bench_sweep: flux drift in %s group %zu: "
                             "%.12e vs baseline %.12e\n",
                             config.title.c_str(), g, avg[g], baseline[g]);
                drift = true;
              }
          }

          table.add_row({cell.layout, cell.scheme, cell.solver,
                         cell.preassembly, static_cast<long>(threads),
                         cell.sweeps, cell.assemble_solve_seconds,
                         cell.elements_per_second / 1e6,
                         cell.per_thread / 1e6});
        }

  // --- tracing overhead ---------------------------------------------------
  // The acceptance bar for the obs layer: enabling the tracer on the most
  // span-exposed kernel (angle-batch opens one span per thread per bucket)
  // must stay within ~2% of untraced throughput, measured as the median
  // over alternating-order traced/untraced pairs.
  config.execution.layout = kernels[1].layout;
  config.execution.scheme = kernels[1].scheme;
  config.execution.solver = solvers[0];
  config.execution.preassembly = modes[0];
  config.execution.num_threads = thread_axis.back();
  // Longer runs than the battery cells: a 2% question cannot be answered
  // by 20 ms samples on a shared machine, so give the probe enough
  // sweeps that scheduler noise amortises below the bar being checked.
  config.iteration.iitm = std::max(cli.get_int("inners") * 16, 64);
  config.title = "obs-overhead probe";
  long probe_sweeps = 0;
  double probe_solves = 0.0;
  const auto timed_run = [&]() -> double {
    api::Run run(config);
    if (shared) run.set_shared_discretization(shared);
    const api::RunRecord record = run.execute();
    probe_sweeps = record.iteration->sweeps;
    probe_solves = static_cast<double>(record.config.elements) *
                   record.config.directions * record.config.ng *
                   probe_sweeps;
    return record.iteration->assemble_solve_seconds;
  };
  (void)timed_run();  // warm-up: fault in the probe's working set
  // Back-to-back pairs, median of the per-pair ratios: clock-speed drift
  // between reps moves both sides of a pair together, so it cancels out
  // of the ratio instead of landing on whichever mode ran in the fast
  // window (which is what min-of-N per side gets wrong). The order
  // within a pair alternates per rep so a load ramp across the probe
  // cannot systematically charge one side, and the median over 15 pairs
  // shrugs off steal-time bursts on shared machines.
  double untraced_seconds = 1e300, traced_seconds = 1e300;
  std::vector<double> ratios;
  const auto traced_run = [&]() -> double {
    obs::Tracer::instance().enable();
    const double seconds = timed_run();
    obs::Tracer::instance().disable();
    return seconds;
  };
  for (int rep = 0; rep < 15; ++rep) {
    double off, on;
    if (rep % 2 == 0) {
      off = timed_run();
      on = traced_run();
    } else {
      on = traced_run();
      off = timed_run();
    }
    untraced_seconds = std::min(untraced_seconds, off);
    traced_seconds = std::min(traced_seconds, on);
    ratios.push_back(off / on);
  }
  obs::Tracer::instance().clear();
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio = ratios[ratios.size() / 2];  // traced/untraced
  const double untraced_eps =
      probe_solves / std::max(untraced_seconds, 1e-12);
  const double traced_eps = untraced_eps * median_ratio;
  const double overhead_percent = (1.0 - median_ratio) * 100.0;
  std::printf("obs overhead (%s, %d threads, %ld sweeps): "
              "%.2f Melem/s untraced, %.2f Melem/s traced (%+.2f%%)\n",
              config.title.c_str(), thread_axis.back(), probe_sweeps,
              untraced_eps / 1e6, traced_eps / 1e6, overhead_percent);
  if (overhead_percent > 2.0)
    std::fprintf(stderr,
                 "bench_sweep: WARNING — tracing overhead %.2f%% exceeds "
                 "the 2%% budget\n",
                 overhead_percent);

  json.key("obs_overhead").begin_object();
  json.kv("scheme", snap::to_string(kernels[1].scheme));
  json.kv("threads", static_cast<long>(thread_axis.back()));
  json.kv("sweeps", probe_sweeps);
  json.kv("untraced_elements_per_second", untraced_eps);
  json.kv("traced_elements_per_second", traced_eps);
  json.kv("overhead_percent", overhead_percent);
  json.end_object();

  json.key("kernels").begin_array();
  for (const Cell& cell : cells) {
    json.begin_object();
    json.kv("layout", cell.layout);
    json.kv("scheme", cell.scheme);
    json.kv("solver", cell.solver);
    json.kv("preassembly", cell.preassembly);
    json.kv("threads", static_cast<long>(cell.threads));
    json.kv("sweeps", cell.sweeps);
    json.kv("assemble_solve_seconds", cell.assemble_solve_seconds);
    json.kv("elements_per_second", cell.elements_per_second);
    json.kv("elements_per_second_per_thread", cell.per_thread);
    json.kv("preassembly_bytes", cell.preassembly_bytes);
    json.end_object();
  }
  json.end_array();
  json.key("runs").begin_array();
  for (const std::string& record : records) json.raw(record);
  json.end_array();
  json.end_object();

  table.print("sweep-kernel throughput (one element = one "
              "angle-element-group local system)");
  std::printf("\nbest none %.2f Melem/s, best explicit-inverse %.2f Melem/s "
              "(%.2fx)\n",
              best_none / 1e6, best_inverse / 1e6,
              best_inverse / std::max(best_none, 1e-12));

  const std::string out_path = cli.get("out");
  if (std::FILE* out = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.str().c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote %s (%zu kernel cells, one RunRecord each)\n",
                out_path.c_str(), cells.size());
  } else {
    std::fprintf(stderr, "bench_sweep: could not write %s\n",
                 out_path.c_str());
    return 1;
  }

  if (drift) {
    std::fprintf(stderr,
                 "bench_sweep: FAIL — flux digests drifted across kernel "
                 "configurations (see above)\n");
    return 1;
  }
  return 0;
}

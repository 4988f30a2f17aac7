// The full-deck scenario (the legacy `unsnap_mini` driver): exposes every
// knob of the problem definition on the command line, runs the solve and
// prints a SNAP-style summary. This is the scenario a performance
// engineer scripts against; every experiment in the paper is a particular
// set of these flags.

#include <cstdio>

#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"

namespace {

using namespace unsnap;

void declare_options(Cli& cli) {
  cli.option("nx", "8", "elements in x");
  cli.option("ny", "0", "elements in y (0 = nx)");
  cli.option("nz", "0", "elements in z (0 = nx)");
  cli.option("lx", "1.0", "domain extent x (y, z scale with cells)");
  cli.option("order", "1", "finite element order (Table I: 1..5)");
  cli.option("nang", "8", "angles per octant");
  cli.option("ng", "4", "energy groups");
  cli.option("nmom", "1", "scattering Legendre orders (1 = isotropic)");
  cli.option("quad", "snap", "angular quadrature: snap | product");
  cli.option("mat", "1", "material layout option 0|1|2");
  cli.option("src", "1", "source layout option 0|1|2");
  cli.option("c", "0.5", "scattering ratio of material 1");
  cli.option("twist", "0.001", "mesh twist (radians)");
  cli.option("seed", "1", "element shuffle seed (0 = structured order)");
  cli.option("epsi", "1e-4", "convergence tolerance");
  cli.option("iitm", "5", "max inner iterations per outer");
  cli.option("oitm", "1", "max outer iterations");
  cli.flag("converge", "iterate to epsi instead of fixed iitm x oitm");
  cli.option("inners", "si",
             "inner iteration scheme: si (source iteration) | gmres");
  cli.option("gmres-restart", "20", "GMRES restart length");
  cli.option("gmres-iters", "100", "max Krylov iterations per inner solve");
  cli.flag("verbose", "trace inner/Krylov progress live (observer events)");
  cli.option("layout", "aeg", "flux layout: aeg | age");
  cli.option("scheme", "elements-groups",
             "concurrency: serial | elements | groups | elements-groups | "
             "angles-atomic | angle-batch");
  cli.option("solver", "ge", "local solver: ge | ge-nopivot | lu");
  cli.option("threads", "0", "OpenMP threads (0 = default)");
  cli.flag("time-solve", "record % of time in the dense solve");
  cli.option("cycles", "abort",
             "sweep cycle strategy: abort | lag-scc");
  cli.flag("reflect", "reflective (instead of vacuum) on all six sides");
  cli.flag("validate", "run full mesh validation before solving");
}

int run(const Cli& cli) {
  const int nx = cli.get_int("nx");
  const std::array<int, 3> dims{
      nx, cli.get_int("ny") > 0 ? cli.get_int("ny") : nx,
      cli.get_int("nz") > 0 ? cli.get_int("nz") : nx};
  const double lx = cli.get_double("lx");

  api::RunConfig config;
  config.mesh = {
      .dims = dims,
      .extent = {lx, lx * dims[1] / dims[0], lx * dims[2] / dims[0]},
      .twist = cli.get_double("twist"),
      .shuffle_seed = static_cast<std::uint64_t>(cli.get_long("seed")),
      .order = cli.get_int("order"),
      .validate = cli.get_flag("validate"),
      .cycle_strategy = sweep::cycle_strategy_from_string(cli.get("cycles"))};
  config.angular = {
      .nang = cli.get_int("nang"),
      .quadrature = angular::quadrature_from_string(cli.get("quad")),
      .nmom = cli.get_int("nmom")};
  config.materials = {.num_groups = cli.get_int("ng"),
                      .mat_opt = cli.get_int("mat"),
                      .scattering_ratio = cli.get_double("c")};
  config.source = {.src_opt = cli.get_int("src")};
  config.iteration = {
      .epsi = cli.get_double("epsi"),
      .iitm = cli.get_int("iitm"),
      .oitm = cli.get_int("oitm"),
      .fixed_iterations = !cli.get_flag("converge"),
      .scheme = snap::iteration_scheme_from_string(cli.get("inners")),
      .gmres_restart = cli.get_int("gmres-restart"),
      .gmres_max_iters = cli.get_int("gmres-iters")};
  config.execution = {.layout = snap::layout_from_string(cli.get("layout")),
                      .scheme = snap::scheme_from_string(cli.get("scheme")),
                      .solver = linalg::solver_from_string(cli.get("solver")),
                      .num_threads = cli.get_int("threads"),
                      .time_solve = cli.get_flag("time-solve")};
  if (cli.get_flag("reflect"))
    config.boundary.sides.fill(snap::Input::Bc::Reflective);

  api::Run run(std::move(config));
  const snap::Input input = run.config().to_input();
  std::printf("UnSNAP  %dx%dx%d hexes, order %d (%d nodes/elem), "
              "%d angles/octant x 8, %d groups, nmom %d\n",
              input.dims[0], input.dims[1], input.dims[2], input.order,
              (input.order + 1) * (input.order + 1) * (input.order + 1),
              input.nang, input.ng, input.nmom);
  std::printf("        layout %s, scheme %s, solver %s, twist %.4g, "
              "shuffle %llu\n",
              snap::to_string(input.layout).c_str(),
              snap::to_string(input.scheme).c_str(),
              linalg::to_string(input.solver).c_str(), input.twist,
              static_cast<unsigned long long>(input.shuffle_seed));

  // Verbose progress hangs off the solver's iteration events (the
  // core::IterationObserver seam) instead of a printf path inside run().
  api::ProgressObserver progress;
  if (cli.get_flag("verbose")) run.set_observer(&progress);
  const api::RunRecord record = run.execute();

  const core::TransportSolver& solver = *run.solver();
  const auto& disc = solver.discretization();
  std::printf("        %d unique sweep schedules for %d directions; "
              "integrals %.1f MB; psi %.1f MB\n",
              disc.schedules().unique_count(),
              angular::kOctants * input.nang,
              static_cast<double>(disc.integrals().bytes()) / (1 << 20),
              static_cast<double>(solver.angular_flux().size() *
                                  sizeof(double)) /
                  (1 << 20));

  std::printf("\n");
  api::print_iteration_report(*record.iteration, input.time_solve);
  std::printf("\n");
  api::print_balance_report(*record.balance);
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "mini",
    .summary = "full SNAP-style deck on the command line (legacy "
               "unsnap_mini)",
    .declare_options = declare_options,
    .run = run,
}};

}  // namespace

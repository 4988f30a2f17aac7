#pragma once

#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/run_config.hpp"
#include "api/version.hpp"
#include "comm/distributed.hpp"
#include "core/observer.hpp"
#include "core/time_dependent.hpp"
#include "core/transport_solver.hpp"
#include "obs/trace.hpp"
#include "xs/keff.hpp"

namespace unsnap::api {

/// The structured, machine-readable outcome of one deck-driven run:
/// everything the scenarios used to print, as data. The human reports
/// (print_* in report.hpp / print_run_report below) are pure renderers
/// over this record, and to_json() serialises it for golden tests,
/// benches and CI. Blocks that do not apply to the run's mode stay
/// unset (std::optional) / empty.
struct RunRecord {
  VersionInfo provenance;  // who produced this record
  std::string title;       // the deck's [run] title
  std::string mode;        // to_string(RunMode)
  std::string deck;        // normalised config echo: write_deck(config)

  /// The configuration line: problem shape and execution config.
  struct Configuration {
    std::array<int, 3> dims{};
    int order = 1;
    int nodes_per_element = 8;
    int elements = 0;
    int nang = 0;  // per octant
    int ng = 0;
    int nmom = 1;
    double twist = 0.0;
    std::string layout, scheme, solver, inners;
    /// Pre-assembled operator mode ("none" unless enabled) and its
    /// storage footprint — the memory cost the paper warns about.
    std::string preassembly = "none";
    std::size_t preassembly_bytes = 0;
    int unique_schedules = 0;
    int directions = 0;
  };
  Configuration config;

  /// Sweep-schedule structure (absent for distributed runs, which build
  /// per-rank schedule sets).
  struct ScheduleStats {
    std::string strategy;
    int unique = 0;
    int directions = 0;
    int min_buckets = 0, max_buckets = 0;
    double mean_bucket = 0.0;
    int max_bucket = 0;
    int total_lagged = 0;
    double parallel_efficiency = 0.0;
    int threads = 1;
  };
  std::optional<ScheduleStats> schedule;

  /// Iteration outcome + histories (a distributed run records the
  /// iteration part of its comm::DistributedSweepResult).
  std::optional<core::IterationResult> iteration;

  std::optional<core::BalanceReport> balance;

  /// Scalar-flux digest: per-group volume averages plus the min/max nodal
  /// values and the volume integral summed over groups — the frozen
  /// quantities of the golden battery.
  struct FluxDigest {
    std::vector<double> group_averages;
    double min = 0.0, max = 0.0;
    double total = 0.0;  // sum_g Int phi_g dV
  };
  std::optional<FluxDigest> flux;

  /// Distributed-sweep block (decomposition px * py * pz > 1).
  struct DecompositionStats {
    int px = 1, py = 1, pz = 1;
    std::string exchange;
    int pipeline_stages = 1;
    int lagged_rank_edges = 0;
    double modelled_pipeline_efficiency = 1.0;
    double mean_idle_fraction = 0.0, max_idle_fraction = 0.0;
    std::vector<double> rank_idle_seconds, rank_sweep_seconds;
  };
  std::optional<DecompositionStats> decomposition;

  /// Schedule mode with decomposition ranks > 1: the virtual-rank sweep
  /// pipeline model (comm::simulate_sweep_scale) evaluated on the deck's
  /// px * py * pz grid, one entry per octant ordering. Pure arithmetic on
  /// the rank grid — no submeshes are built, so thousands of virtual
  /// ranks are fine.
  struct ScaleStats {
    int px = 1, py = 1, pz = 1;
    int ranks = 1;
    double rank_work = 1.0;
    double hop_latency = 0.0;
    struct Ordering {
      std::string ordering;  // sequential | interleaved
      int pipeline_stages = 1;
      double makespan = 0.0;
      double fill_time = 0.0;
      double drain_time = 0.0;
      double efficiency = 0.0;
      double mean_occupancy = 0.0;
      double peak_occupancy = 0.0;
      double mean_idle_fraction = 0.0;
      double max_idle_fraction = 0.0;
    };
    std::vector<Ordering> orderings;
  };
  std::optional<ScaleStats> scale;

  /// Time mode: the population history.
  struct TimeStep {
    double time = 0.0;
    double total_density = 0.0;
    int inners = 0;
  };
  std::optional<double> initial_density;
  std::vector<TimeStep> steps;

  /// Mms mode: L2 error against the manufactured solution.
  std::optional<double> mms_l2_error;

  /// Keff mode: the power-iteration outcome. `groupsets` lists the block
  /// Gauss-Seidel partition as inclusive [lo, hi] group ranges, paired
  /// index-wise with the cumulative per-set sweep counts.
  struct KeffStats {
    double k = 1.0;
    bool converged = false;
    int outers = 0;
    double dominance_ratio = 0.0;
    double final_k_change = 0.0;
    double final_fission_change = 0.0;
    std::vector<double> k_history;  // k after each outer
    std::vector<std::array<int, 2>> groupsets;
    std::vector<long long> groupset_sweeps;
    bool extrapolated = false;  // the deck's extrapolation toggle
  };
  std::optional<KeffStats> keff;

  /// Trace aggregate (per-phase span totals and quantiles) when the run
  /// executed with the obs tracer enabled (`unsnap --trace`); absent —
  /// and the record byte-identical to an untraced run — otherwise.
  std::optional<obs::TraceSummary> observability;
};

/// JSON serialisation of the whole record (schema checked in CI by
/// tools/check_run_json.py).
[[nodiscard]] std::string to_json(const RunRecord& record);

/// Evaluate the virtual-rank scale model for both octant orderings.
[[nodiscard]] RunRecord::ScaleStats make_scale_stats(int px, int py, int pz,
                                                     double rank_work,
                                                     double hop_latency);

// --- renderers over record data -------------------------------------------

/// All renderers write to an explicit stream (default stdout) so the
/// driver can route the human report to stderr when the record JSON owns
/// stdout (`--json -`): piped JSON must stay parseable.
void print_decomposition_report(const RunRecord::DecompositionStats& stats,
                                const core::IterationResult& result,
                                std::FILE* out = stdout);
void print_scale_report(const RunRecord::ScaleStats& stats,
                        std::FILE* out = stdout);
void print_keff_report(const RunRecord::KeffStats& stats,
                       std::FILE* out = stdout);
/// The full human report of a deck-driven run (every block the record
/// carries, in the standard order).
void print_run_report(const RunRecord& record, std::FILE* out = stdout);

/// Live progress tracing over the observer events — what `--verbose` used
/// to print from inside the solvers. Writes to `out` (default stdout;
/// the driver passes stderr when stdout carries the record JSON).
class ProgressObserver : public core::IterationObserver {
 public:
  explicit ProgressObserver(std::FILE* out = stdout) : out_(out) {}
  void on_outer_begin(int outer) override;
  void on_inner(int inner, int sweeps, double change) override;
  void on_krylov(int iteration, double residual) override;
  void on_outer_end(int outer, double change, bool converged) override;
  void on_keff_outer(int outer, double k, double k_change,
                     double fission_change) override;

 private:
  std::FILE* out_;
};

/// The single entry point lowering a RunConfig to the right solver stack:
///
///   mode solve, px*py*pz == 1 -> core::TransportSolver (either scheme)
///   mode solve, px*py*pz  > 1 -> comm::DistributedSweepSolver
///   mode schedule             -> discretisation + schedule stats (plus
///                                the virtual-rank scale model when the
///                                deck decomposes), no solve
///   mode mms                -> manufactured solve + L2 error
///   mode time               -> core::TimeDependentSolver steps
///   mode keff               -> xs::KeffSolver power iteration
///
/// and returning a RunRecord instead of printing. The built solver stack
/// stays alive on the Run for post-execute inspection (detector regions,
/// gathered fluxes, ...).
class Run {
 public:
  /// Validates the config (throws InvalidInput on a bad deck).
  explicit Run(RunConfig config);

  /// Subscribe iteration events (progress tracing, dashboards). Must be
  /// set before execute(); not owned.
  void set_observer(core::IterationObserver* observer) {
    observer_ = observer;
  }

  /// Share a prebuilt discretisation (mesh + integrals + quadrature +
  /// sweep schedules) instead of lowering one from the config — the
  /// serve layer's problem cache and parameter-sweep scenarios inject
  /// here. Must describe the same order, grid dims, nang and quadrature
  /// as the config; execute() throws InvalidInput otherwise. Single-domain
  /// modes only; distributed runs build per-rank discretisations and
  /// ignore it.
  void set_shared_discretization(
      std::shared_ptr<const core::Discretization> disc) {
    shared_disc_ = std::move(disc);
  }

  /// The discretisation the executed run used (built or injected);
  /// nullptr before execute() and for distributed runs. This is what the
  /// serve layer stores back into its cache after a cold run.
  [[nodiscard]] std::shared_ptr<const core::Discretization>
  shared_discretization() const {
    return shared_disc_;
  }

  /// Share a pre-assembled operator built by a previous run of the same
  /// normalized deck (the serve layer's lowering-cache companion to
  /// set_shared_discretization). Only consumed when the config asks for
  /// preassembly; dimensions are checked at injection.
  void set_shared_preassembly(
      std::shared_ptr<const core::PreassembledOperator> pre) {
    shared_pre_ = std::move(pre);
  }

  /// The pre-assembled operator the executed run used (built or
  /// injected); nullptr when the config ran with preassembly = none.
  [[nodiscard]] std::shared_ptr<const core::PreassembledOperator>
  shared_preassembly() const {
    return shared_pre_;
  }

  [[nodiscard]] const RunConfig& config() const { return config_; }

  /// Run the configured stack and return the structured record.
  RunRecord execute();

  // --- post-execute state, mode-dependent (nullptr where not built) ----
  [[nodiscard]] const core::TransportSolver* solver() const {
    return solver_.get();
  }
  [[nodiscard]] const comm::DistributedSweepSolver* distributed() const {
    return distributed_.get();
  }
  [[nodiscard]] const core::TimeDependentSolver* time_solver() const {
    return time_solver_.get();
  }
  [[nodiscard]] const xs::KeffSolver* keff_solver() const {
    return keff_.get();
  }

 private:
  RunConfig config_;
  core::IterationObserver* observer_ = nullptr;
  std::shared_ptr<const core::Discretization> shared_disc_;
  std::shared_ptr<const core::PreassembledOperator> shared_pre_;
  std::unique_ptr<core::TransportSolver> solver_;
  std::unique_ptr<comm::DistributedSweepSolver> distributed_;
  std::unique_ptr<core::TimeDependentSolver> time_solver_;
  std::unique_ptr<xs::KeffSolver> keff_;

  /// What a single-domain mode lowers to. `data` is absent in schedule
  /// mode, which reports structure only.
  struct Lowered {
    snap::Input input;
    std::optional<core::ProblemData> data;
  };

  /// The lowering every single-domain mode starts with: pin the deck's
  /// thread count (before the discretisation's threaded element
  /// integrals), build the shared discretisation or check the injected
  /// one against the deck, then build the problem data.
  Lowered lower();

  /// The preassembly step of every solving mode (solve, mms, time, keff),
  /// run once the mode's solver stack is built: under preassembly =
  /// explicit-inverse, the single-domain solver reuses the injected shared
  /// operator or builds one and keeps the shared handle for post-execute
  /// harvesting; keff builds one per groupset solver. Reports the mode and
  /// the stored bytes on `config`.
  void preassemble(RunRecord::Configuration& config);

  RunRecord execute_solve(RunRecord record);  // solve and mms
  RunRecord execute_distributed(RunRecord record);
  RunRecord execute_schedule(RunRecord record);
  RunRecord execute_time(RunRecord record);
  RunRecord execute_keff(RunRecord record);
};

}  // namespace unsnap::api

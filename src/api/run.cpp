#include "api/run.hpp"

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "util/assert.hpp"

#include "api/report.hpp"
#include "comm/scale_model.hpp"
#include "core/manufactured.hpp"
#include "sweep/schedule.hpp"
#include "util/json.hpp"

namespace unsnap::api {

// --- record builders ------------------------------------------------------

namespace {

RunRecord::Configuration make_configuration_from(
    const snap::Input& input, const core::Discretization* disc) {
  RunRecord::Configuration c;
  c.dims = input.dims;
  c.order = input.order;
  c.nodes_per_element =
      disc != nullptr ? disc->num_nodes()
                      : (input.order + 1) * (input.order + 1) *
                            (input.order + 1);
  c.elements = disc != nullptr ? disc->num_elements()
                               : input.dims[0] * input.dims[1] * input.dims[2];
  c.nang = input.nang;
  c.ng = input.ng;
  c.nmom = input.nmom;
  c.twist = input.twist;
  c.layout = snap::to_string(input.layout);
  c.scheme = snap::to_string(input.scheme);
  c.solver = linalg::to_string(input.solver);
  c.inners = snap::to_string(input.iteration_scheme);
  c.unique_schedules =
      disc != nullptr ? disc->schedules().unique_count() : 0;
  c.directions = angular::kOctants * input.nang;
  return c;
}

RunRecord::ScheduleStats make_schedule_stats_from(
    const sweep::ScheduleSet& set, int num_threads, int directions) {
  const int threads =
      num_threads > 0 ? num_threads : omp_get_max_threads();
  const sweep::ScheduleSetStats stats =
      sweep::schedule_set_stats(set, threads);
  RunRecord::ScheduleStats out;
  out.strategy = sweep::to_string(set.strategy());
  out.unique = stats.unique;
  out.directions = directions;
  out.min_buckets = stats.min_buckets;
  out.max_buckets = stats.max_buckets;
  out.mean_bucket = stats.mean_bucket;
  out.max_bucket = stats.max_bucket;
  out.total_lagged = stats.total_lagged;
  out.parallel_efficiency = stats.parallel_efficiency;
  out.threads = threads;
  return out;
}

/// Per-group volume integrals and the shared volume of one solver's
/// domain slice, for combining flux digests across ranks.
void accumulate_digest(const core::Discretization& disc,
                       const core::NodalField& phi,
                       std::vector<double>& integrals, double& volume,
                       double& min, double& max) {
  const int ng = phi.num_groups();
  for (int e = 0; e < disc.num_elements(); ++e) {
    const double* w = disc.integrals().node_weights(e);
    for (int g = 0; g < ng; ++g) {
      const double* ph = phi.at(e, g);
      double integral = 0.0;
      for (int i = 0; i < disc.num_nodes(); ++i) {
        integral += w[i] * ph[i];
        min = std::min(min, ph[i]);
        max = std::max(max, ph[i]);
      }
      integrals[static_cast<std::size_t>(g)] += integral;
    }
    volume += disc.integrals().volume(e);
  }
}

RunRecord::FluxDigest finish_digest(const std::vector<double>& integrals,
                                    double volume, double min, double max) {
  RunRecord::FluxDigest digest;
  digest.min = min;
  digest.max = max;
  for (const double integral : integrals) {
    digest.group_averages.push_back(volume > 0.0 ? integral / volume : 0.0);
    digest.total += integral;
  }
  return digest;
}

RunRecord::DecompositionStats make_decomposition_stats(
    int px, int py, int pz, snap::SweepExchange exchange,
    const comm::DistributedSweepResult& result) {
  RunRecord::DecompositionStats stats;
  stats.px = px;
  stats.py = py;
  stats.pz = pz;
  stats.exchange = snap::to_string(exchange);
  stats.pipeline_stages = result.pipeline_stages;
  stats.lagged_rank_edges = result.lagged_rank_edges;
  stats.modelled_pipeline_efficiency = result.modelled_pipeline_efficiency;
  stats.rank_idle_seconds = result.rank_idle_seconds;
  stats.rank_sweep_seconds = result.rank_sweep_seconds;
  double sum_idle = 0.0, sum_busy = 0.0;
  for (std::size_t r = 0; r < result.rank_idle_seconds.size(); ++r) {
    sum_idle += result.rank_idle_seconds[r];
    sum_busy += result.rank_sweep_seconds[r];
  }
  stats.mean_idle_fraction =
      sum_idle + sum_busy > 0.0 ? sum_idle / (sum_idle + sum_busy) : 0.0;
  stats.max_idle_fraction = result.max_idle_fraction;
  return stats;
}

RunRecord::ScheduleStats make_schedule_stats(
    const core::TransportSolver& solver) {
  return make_schedule_stats_from(
      solver.discretization().schedules(), solver.input().num_threads,
      angular::kOctants * solver.input().nang);
}

RunRecord::FluxDigest make_flux_digest(const core::Discretization& disc,
                                       const core::NodalField& phi) {
  std::vector<double> integrals(
      static_cast<std::size_t>(phi.num_groups()), 0.0);
  double volume = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  accumulate_digest(disc, phi, integrals, volume, min, max);
  return finish_digest(integrals, volume, min, max);
}

}  // namespace

RunRecord::ScaleStats make_scale_stats(int px, int py, int pz,
                                       double rank_work, double hop_latency) {
  RunRecord::ScaleStats stats;
  stats.px = px;
  stats.py = py;
  stats.pz = pz;
  stats.ranks = px * py * pz;
  stats.rank_work = rank_work;
  stats.hop_latency = hop_latency;
  for (const comm::OctantOrdering ordering :
       {comm::OctantOrdering::Sequential, comm::OctantOrdering::Interleaved}) {
    comm::ScaleModelConfig config;
    config.px = px;
    config.py = py;
    config.pz = pz;
    config.rank_work = rank_work;
    config.hop_latency = hop_latency;
    config.ordering = ordering;
    const comm::ScaleModelResult r = comm::simulate_sweep_scale(config);
    RunRecord::ScaleStats::Ordering o;
    o.ordering = comm::to_string(ordering);
    o.pipeline_stages = r.pipeline_stages;
    o.makespan = r.makespan;
    o.fill_time = r.fill_time;
    o.drain_time = r.drain_time;
    o.efficiency = r.efficiency;
    o.mean_occupancy = r.mean_occupancy;
    o.peak_occupancy = r.peak_occupancy;
    o.mean_idle_fraction = r.mean_idle_fraction;
    o.max_idle_fraction = r.max_idle_fraction;
    stats.orderings.push_back(o);
  }
  return stats;
}

// --- Run ------------------------------------------------------------------

Run::Run(RunConfig config) : config_(std::move(config)) {
  config_.validate();
}

void Run::preassemble(RunRecord::Configuration& config) {
  OBS_SPAN("run.preassembly");
  if (config_.execution.preassembly == snap::PreassemblyMode::None) {
    shared_pre_.reset();
    return;
  }
  if (keff_) {
    // The groupset solvers each span only their own groups, so each
    // builds its own operator; the serve layer's single-slot cache holds
    // one global operator and has nothing to share here.
    shared_pre_.reset();
    keff_->enable_preassembly();
    config.preassembly_bytes = keff_->preassembly_bytes();
  } else {
    core::TransportSolver& solver =
        time_solver_ ? time_solver_->solver() : *solver_;
    if (shared_pre_ != nullptr)
      solver.set_preassembly(shared_pre_);  // cache hit: skip the build
    else
      solver.enable_preassembly();
    shared_pre_ = solver.shared_preassembly();
    config.preassembly_bytes = shared_pre_->bytes();
  }
  config.preassembly = snap::to_string(config_.execution.preassembly);
}

RunRecord Run::execute() {
  RunRecord record;
  record.provenance = version_info();
  record.title = config_.title;
  record.mode = to_string(config_.mode);
  record.deck = write_deck(config_);
  switch (config_.mode) {
    case RunMode::Solve:
      record = config_.decomposition.ranks() > 1
                   ? execute_distributed(std::move(record))
                   : execute_solve(std::move(record));
      break;
    case RunMode::Schedule:
      record = execute_schedule(std::move(record));
      break;
    case RunMode::Mms: record = execute_solve(std::move(record)); break;
    case RunMode::Time: record = execute_time(std::move(record)); break;
    case RunMode::Keff: record = execute_keff(std::move(record)); break;
  }
  // Summarise whatever the tracer collected during this execution. Only
  // when tracing is on: an untraced record must stay byte-identical to
  // the pre-obs schema (golden comparisons diff the JSON).
  if (obs::Tracer::enabled()) {
    const obs::Tracer& tracer = obs::Tracer::instance();
    record.observability =
        obs::summarize(tracer.snapshot(), tracer.dropped());
  }
  return record;
}

Run::Lowered Run::lower() {
  OBS_SPAN("run.lower");
  Lowered out{config_.to_input(), std::nullopt};
  const snap::Input& input = out.input;
  // Pin first: the discretisation's element integrals are an OpenMP loop,
  // and on a fresh thread (a daemon worker) they would otherwise run at
  // the OpenMP default instead of the deck's thread count.
  if (input.num_threads > 0) omp_set_num_threads(input.num_threads);
  if (shared_disc_) {
    const core::Discretization& disc = *shared_disc_;
    require(disc.ref().order() == input.order,
            "run: shared discretization order does not match [mesh] order");
    // Extent/twist/shuffle are not recoverable from the built mesh, but
    // the grid dims are: catch a resized deck over a stale discretisation.
    require(disc.mesh().grid_dims() == input.dims,
            "run: shared discretization grid dims do not match [mesh] dims");
    require(disc.nang() == input.nang &&
                disc.quadrature().kind() == input.quadrature,
            "run: shared discretization quadrature does not match "
            "[angular]");
  } else {
    shared_disc_ = std::make_shared<const core::Discretization>(input);
  }
  if (config_.mode != RunMode::Schedule)
    out.data.emplace(config_.problem_data(*shared_disc_));
  return out;
}

RunRecord Run::execute_solve(RunRecord record) {
  Lowered lowered = lower();
  solver_ = std::make_unique<core::TransportSolver>(
      shared_disc_, lowered.input, std::move(*lowered.data));
  record.config = make_configuration_from(solver_->input(), shared_disc_.get());
  preassemble(record.config);
  solver_->set_observer(observer_);
  const bool mms = config_.mode == RunMode::Mms;
  const auto ms = core::ManufacturedSolution::trigonometric();
  if (mms) core::apply_manufactured(*solver_, ms);
  record.schedule = make_schedule_stats(*solver_);
  {
    OBS_SPAN("run.solve");
    record.iteration = solver_->run();
  }
  record.balance = solver_->balance();
  record.flux =
      make_flux_digest(solver_->discretization(), solver_->scalar_flux());
  if (mms) record.mms_l2_error = core::l2_error(*solver_, ms);
  return record;
}

RunRecord Run::execute_distributed(RunRecord record) {
  const snap::Input input = config_.to_input();
  const int px = config_.decomposition.px, py = config_.decomposition.py,
            pz = config_.decomposition.pz;
  distributed_ =
      std::make_unique<comm::DistributedSweepSolver>(input, px, py, pz);
  distributed_->set_observer(observer_);
  const comm::DistributedSweepResult result = [&] {
    OBS_SPAN("run.solve");
    return distributed_->run();
  }();

  record.config = make_configuration_from(input, nullptr);
  record.config.elements = distributed_->global_mesh().num_elements();
  record.config.unique_schedules =
      distributed_->rank_solver(0).discretization().schedules().unique_count();
  record.iteration = static_cast<const core::IterationResult&>(result);
  record.decomposition = make_decomposition_stats(
      px, py, pz, distributed_->exchange(), result);

  // Volume-weighted digest over the rank slices (a disjoint partition of
  // the global mesh), rank-major so the combination is deterministic.
  std::vector<double> integrals(static_cast<std::size_t>(input.ng), 0.0);
  double volume = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (int rank = 0; rank < distributed_->num_ranks(); ++rank) {
    const core::TransportSolver& rs = distributed_->rank_solver(rank);
    accumulate_digest(rs.discretization(), rs.scalar_flux(), integrals,
                      volume, min, max);
  }
  record.flux = finish_digest(integrals, volume, min, max);
  return record;
}

RunRecord Run::execute_schedule(RunRecord record) {
  const snap::Input input = lower().input;
  record.config = make_configuration_from(input, shared_disc_.get());
  record.schedule = make_schedule_stats_from(
      shared_disc_->schedules(), input.num_threads,
      angular::kOctants * input.nang);
  // A decomposed schedule study additionally evaluates the virtual-rank
  // pipeline model: fill/drain/occupancy on the deck's px*py*pz grid,
  // without building any submesh (so pz-deep thousand-rank grids are
  // cheap to study).
  if (config_.decomposition.ranks() > 1) {
    OBS_SPAN("run.scale_model");
    record.scale =
        make_scale_stats(config_.decomposition.px, config_.decomposition.py,
                         config_.decomposition.pz, 1.0, 0.0);
  }
  return record;
}

RunRecord Run::execute_time(RunRecord record) {
  Lowered lowered = lower();
  // The lowered library's group speeds: SNAP's on the generated route, the
  // file's own on the [xs] route.
  time_solver_ = std::make_unique<core::TimeDependentSolver>(
      shared_disc_, lowered.input, *lowered.data, lowered.data->xs.velocity,
      config_.time.dt);
  core::TransportSolver& inner = time_solver_->solver();
  // Valid after construction only: the TimeDependentSolver ctor has
  // already folded 1/(v dt) into sigma_t, and the matrices stay constant
  // across steps, so the operators are inverted against the final data.
  record.config = make_configuration_from(inner.input(), shared_disc_.get());
  preassemble(record.config);
  inner.set_observer(observer_);
  if (config_.time.zero_source) inner.problem().qext.fill(0.0);
  time_solver_->set_initial_condition(config_.time.initial);

  record.schedule = make_schedule_stats(inner);
  record.initial_density = time_solver_->total_density();

  core::IterationResult folded;
  {
    OBS_SPAN("run.solve");
    for (int n = 0; n < config_.time.steps; ++n) {
      const core::TimeDependentSolver::StepResult step = time_solver_->step();
      record.steps.push_back(
          {step.time, step.total_density, step.iteration.inners});
      folded.converged = step.iteration.converged;
      folded.outers += step.iteration.outers;
      folded.inners += step.iteration.inners;
      folded.sweeps += step.iteration.sweeps;
      folded.krylov_iters += step.iteration.krylov_iters;
      folded.diffusion_preconditioned =
          step.iteration.diffusion_preconditioned;
      folded.dsa_pcg_iters += step.iteration.dsa_pcg_iters;
      // The steps' histories end to end: sweeps_per_digit then counts the
      // run's sweeps per digit from the first step's first change to the
      // last step's last.
      folded.inner_history.insert(folded.inner_history.end(),
                                  step.iteration.inner_history.begin(),
                                  step.iteration.inner_history.end());
      folded.residual_history.insert(folded.residual_history.end(),
                                     step.iteration.residual_history.begin(),
                                     step.iteration.residual_history.end());
      folded.final_inner_change = step.iteration.final_inner_change;
      folded.final_outer_change = step.iteration.final_outer_change;
      folded.total_seconds += step.iteration.total_seconds;
      folded.assemble_solve_seconds = step.iteration.assemble_solve_seconds;
      folded.solve_seconds = step.iteration.solve_seconds;
    }
  }
  record.iteration = std::move(folded);
  record.flux =
      make_flux_digest(inner.discretization(), inner.scalar_flux());
  return record;
}

RunRecord Run::execute_keff(RunRecord record) {
  const Lowered lowered = lower();
  const snap::Input& input = lowered.input;
  xs::KeffOptions options;
  if (!config_.xs.groupsets.empty())
    options.groupsets = xs::parse_groupsets(config_.xs.groupsets, input.ng);
  options.k_tol = config_.xs.k_tol;
  options.fission_tol = config_.xs.fission_tol;
  options.max_outers = config_.xs.max_outers;
  options.extrapolate = config_.xs.extrapolate;
  keff_ = std::make_unique<xs::KeffSolver>(shared_disc_, input,
                                           *lowered.data, options);
  keff_->set_observer(observer_);
  // The config line reports the global problem and the preassembly
  // footprint summed over the groupset solvers.
  record.config = make_configuration_from(input, shared_disc_.get());
  preassemble(record.config);
  record.schedule = make_schedule_stats_from(
      shared_disc_->schedules(), input.num_threads,
      angular::kOctants * input.nang);

  xs::KeffResult result;
  {
    OBS_SPAN("run.solve");
    result = keff_->run();
  }

  core::IterationResult folded;
  folded.converged = result.converged;
  folded.outers = result.outers;
  folded.inners = result.inners;
  folded.sweeps = result.sweeps;
  folded.krylov_iters = result.krylov_iters;
  folded.diffusion_preconditioned = result.diffusion_preconditioned;
  folded.dsa_pcg_iters = result.dsa_pcg_iters;
  folded.final_inner_change = result.final_fission_change;
  folded.final_outer_change = result.final_k_change;
  // The power iteration's convergence history: one fission-source change
  // per outer, so sweeps_per_digit counts sweeps per digit of it.
  folded.inner_history = result.fission_history;
  folded.total_seconds = result.total_seconds;
  folded.assemble_solve_seconds = result.assemble_solve_seconds;
  folded.solve_seconds = result.solve_seconds;
  record.iteration = std::move(folded);

  record.balance = keff_->balance();
  record.flux = make_flux_digest(*shared_disc_, keff_->scalar_flux());

  RunRecord::KeffStats stats;
  stats.k = result.k;
  stats.converged = result.converged;
  stats.outers = result.outers;
  stats.dominance_ratio = result.dominance_ratio;
  stats.final_k_change = result.final_k_change;
  stats.final_fission_change = result.final_fission_change;
  stats.k_history = result.k_history;
  for (const xs::GroupRange& set : keff_->groupsets())
    stats.groupsets.push_back({set.lo, set.hi});
  stats.groupset_sweeps = result.groupset_sweeps;
  stats.extrapolated = config_.xs.extrapolate;
  record.keff = std::move(stats);
  return record;
}

// --- JSON -----------------------------------------------------------------

std::string to_json(const RunRecord& record) {
  util::JsonWriter json;
  json.begin_object();

  json.key("unsnap").begin_object();
  json.kv("version", record.provenance.version);
  json.kv("git_describe", record.provenance.git_describe);
  json.kv("build_type", record.provenance.build_type);
  json.kv("compiler", record.provenance.compiler);
  json.end_object();

  json.kv("title", record.title);
  json.kv("mode", record.mode);
  json.kv("deck", record.deck);

  const RunRecord::Configuration& c = record.config;
  json.key("configuration").begin_object();
  json.key("dims").begin_array();
  for (const int d : c.dims) json.value(d);
  json.end_array();
  json.kv("order", c.order);
  json.kv("nodes_per_element", c.nodes_per_element);
  json.kv("elements", c.elements);
  json.kv("nang", c.nang);
  json.kv("ng", c.ng);
  json.kv("nmom", c.nmom);
  json.kv("twist", c.twist);
  json.kv("layout", c.layout);
  json.kv("scheme", c.scheme);
  json.kv("solver", c.solver);
  json.kv("inners", c.inners);
  json.kv("preassembly", c.preassembly);
  json.kv("preassembly_bytes", c.preassembly_bytes);
  json.kv("unique_schedules", c.unique_schedules);
  json.kv("directions", c.directions);
  json.end_object();

  if (record.schedule) {
    const RunRecord::ScheduleStats& s = *record.schedule;
    json.key("schedule").begin_object();
    json.kv("strategy", s.strategy);
    json.kv("unique", s.unique);
    json.kv("directions", s.directions);
    json.kv("min_buckets", s.min_buckets);
    json.kv("max_buckets", s.max_buckets);
    json.kv("mean_bucket", s.mean_bucket);
    json.kv("max_bucket", s.max_bucket);
    json.kv("total_lagged", s.total_lagged);
    json.kv("parallel_efficiency", s.parallel_efficiency);
    json.kv("threads", s.threads);
    json.end_object();
  }

  if (record.iteration) {
    const core::IterationResult& it = *record.iteration;
    json.key("iteration").begin_object();
    json.kv("converged", it.converged);
    json.kv("outers", it.outers);
    json.kv("inners", it.inners);
    json.kv("sweeps", it.sweeps);
    json.kv("krylov_iters", it.krylov_iters);
    json.kv("preconditioner",
            it.diffusion_preconditioned ? "diffusion" : "none");
    json.kv("dsa_pcg_iters", it.dsa_pcg_iters);
    json.kv("final_inner_change", it.final_inner_change);
    json.kv("final_outer_change", it.final_outer_change);
    json.kv("sweeps_per_digit", sweeps_per_digit(it));
    json.key("timers").begin_object();
    json.kv("total_seconds", it.total_seconds);
    json.kv("assemble_solve_seconds", it.assemble_solve_seconds);
    json.kv("solve_seconds", it.solve_seconds);
    json.end_object();
    json.key("inner_history")
        .value(std::span<const double>(it.inner_history));
    json.key("residual_history")
        .value(std::span<const double>(it.residual_history));
    json.end_object();
  }

  if (record.balance) {
    const core::BalanceReport& b = *record.balance;
    json.key("balance").begin_object();
    json.kv("source", b.source);
    json.kv("inflow", b.inflow);
    // The fission term and per-group ledgers only appear for keff runs:
    // records of the pre-keff modes stay byte-identical to the original
    // schema (golden comparisons and cache-hit equality diff the JSON).
    if (record.keff) json.kv("fission", b.fission);
    json.kv("absorption", b.absorption);
    json.kv("leakage", b.leakage);
    json.kv("residual", b.residual());
    json.kv("relative", b.relative());
    if (record.keff) {
      json.key("group_source").value(std::span<const double>(b.group_source));
      json.key("group_inflow").value(std::span<const double>(b.group_inflow));
      json.key("group_fission")
          .value(std::span<const double>(b.group_fission));
      json.key("group_absorption")
          .value(std::span<const double>(b.group_absorption));
      json.key("group_leakage")
          .value(std::span<const double>(b.group_leakage));
    }
    json.end_object();
  }

  if (record.flux) {
    const RunRecord::FluxDigest& f = *record.flux;
    json.key("flux").begin_object();
    json.key("group_averages")
        .value(std::span<const double>(f.group_averages));
    json.kv("min", f.min);
    json.kv("max", f.max);
    json.kv("total", f.total);
    json.end_object();
  }

  if (record.decomposition) {
    const RunRecord::DecompositionStats& d = *record.decomposition;
    json.key("decomposition").begin_object();
    json.kv("px", d.px);
    json.kv("py", d.py);
    json.kv("pz", d.pz);
    json.kv("exchange", d.exchange);
    json.kv("pipeline_stages", d.pipeline_stages);
    json.kv("lagged_rank_edges", d.lagged_rank_edges);
    json.kv("modelled_pipeline_efficiency", d.modelled_pipeline_efficiency);
    json.kv("mean_idle_fraction", d.mean_idle_fraction);
    json.kv("max_idle_fraction", d.max_idle_fraction);
    json.key("rank_idle_seconds")
        .value(std::span<const double>(d.rank_idle_seconds));
    json.key("rank_sweep_seconds")
        .value(std::span<const double>(d.rank_sweep_seconds));
    json.end_object();
  }

  if (record.scale) {
    const RunRecord::ScaleStats& s = *record.scale;
    json.key("scale").begin_object();
    json.kv("px", s.px);
    json.kv("py", s.py);
    json.kv("pz", s.pz);
    json.kv("ranks", s.ranks);
    json.kv("rank_work", s.rank_work);
    json.kv("hop_latency", s.hop_latency);
    json.key("orderings").begin_array();
    for (const RunRecord::ScaleStats::Ordering& o : s.orderings) {
      json.begin_object();
      json.kv("ordering", o.ordering);
      json.kv("pipeline_stages", o.pipeline_stages);
      json.kv("makespan", o.makespan);
      json.kv("fill_time", o.fill_time);
      json.kv("drain_time", o.drain_time);
      json.kv("efficiency", o.efficiency);
      json.kv("mean_occupancy", o.mean_occupancy);
      json.kv("peak_occupancy", o.peak_occupancy);
      json.kv("mean_idle_fraction", o.mean_idle_fraction);
      json.kv("max_idle_fraction", o.max_idle_fraction);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  if (record.initial_density || !record.steps.empty()) {
    json.key("time").begin_object();
    if (record.initial_density)
      json.kv("initial_density", *record.initial_density);
    json.key("steps").begin_array();
    for (const RunRecord::TimeStep& s : record.steps) {
      json.begin_object();
      json.kv("time", s.time);
      json.kv("total_density", s.total_density);
      json.kv("inners", s.inners);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  if (record.mms_l2_error) {
    json.key("mms").begin_object();
    json.kv("l2_error", *record.mms_l2_error);
    json.end_object();
  }

  if (record.keff) {
    const RunRecord::KeffStats& k = *record.keff;
    json.key("keff").begin_object();
    json.kv("k", k.k);
    json.kv("converged", k.converged);
    json.kv("outers", k.outers);
    json.kv("dominance_ratio", k.dominance_ratio);
    json.kv("final_k_change", k.final_k_change);
    json.kv("final_fission_change", k.final_fission_change);
    json.kv("extrapolated", k.extrapolated);
    json.key("k_history").value(std::span<const double>(k.k_history));
    json.key("groupsets").begin_array();
    for (std::size_t s = 0; s < k.groupsets.size(); ++s) {
      json.begin_object();
      json.kv("lo", k.groupsets[s][0]);
      json.kv("hi", k.groupsets[s][1]);
      json.kv("sweeps", s < k.groupset_sweeps.size()
                            ? k.groupset_sweeps[s]
                            : static_cast<long long>(0));
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  if (record.observability) {
    const obs::TraceSummary& o = *record.observability;
    json.key("observability").begin_object();
    json.kv("events", o.events);
    json.kv("dropped", o.dropped);
    json.kv("threads", o.threads);
    json.key("phases").begin_array();
    for (const obs::PhaseSummary& p : o.phases) {
      json.begin_object();
      json.kv("name", p.name);
      json.kv("count", p.count);
      json.kv("total_seconds", p.total_seconds);
      json.kv("min_seconds", p.min_seconds);
      json.kv("max_seconds", p.max_seconds);
      json.kv("p50_seconds", p.p50_seconds);
      json.kv("p95_seconds", p.p95_seconds);
      json.kv("p99_seconds", p.p99_seconds);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  json.end_object();
  return json.str();
}

// --- renderers ------------------------------------------------------------

namespace {  // blocks only print_run_report renders

void print_configuration(const RunRecord::Configuration& config,
                         std::FILE* out) {
  std::fprintf(out, "config: %dx%dx%d hexes, order %d (%d nodes/elem), "
              "%d angles/octant x 8, %d groups, nmom %d\n",
              config.dims[0], config.dims[1], config.dims[2], config.order,
              config.nodes_per_element, config.nang, config.ng,
              config.nmom);
  std::fprintf(out, "        layout %s, scheme %s, solver %s, inners %s, "
              "twist %.4g, %d unique sweep schedules\n",
              config.layout.c_str(), config.scheme.c_str(),
              config.solver.c_str(), config.inners.c_str(), config.twist,
              config.unique_schedules);
  if (config.preassembly != "none")
    std::fprintf(out, "        preassembly %s (%.1f MiB of stored operators)\n",
                config.preassembly.c_str(),
                static_cast<double>(config.preassembly_bytes) /
                    (1024.0 * 1024.0));
}

void print_schedule_report(const RunRecord::ScheduleStats& stats,
                           std::FILE* out) {
  std::fprintf(out, "sweep schedules (%s):\n"
              "  unique        %d (of %d directions)\n"
              "  buckets       %d..%d per schedule\n"
              "  occupancy     mean %.1f, largest bucket %d\n",
              stats.strategy.c_str(), stats.unique, stats.directions,
              stats.min_buckets, stats.max_buckets, stats.mean_bucket,
              stats.max_bucket);
  std::fprintf(out, "  lagged faces  %d cycle-broken (over unique schedules)\n",
              stats.total_lagged);
  std::fprintf(out, "  parallelism   %.0f%% modelled efficiency at %d threads\n",
              100.0 * stats.parallel_efficiency, stats.threads);
}

}  // namespace

void print_decomposition_report(const RunRecord::DecompositionStats& stats,
                                const core::IterationResult& result,
                                std::FILE* out) {
  std::fprintf(out, "distributed sweep: %dx%dx%d KBA ranks, %s exchange\n",
              stats.px, stats.py, stats.pz, stats.exchange.c_str());
  std::fprintf(out, "  %s after %d inners / %d outers "
              "(last inner change %.3e), %.4f s\n",
              result.converged ? "converged" : "NOT converged",
              result.inners, result.outers, result.final_inner_change,
              result.total_seconds);
  if (result.krylov_iters > 0)
    std::fprintf(out, "  gmres: %d Krylov iters over %d sweeps per rank\n",
                result.krylov_iters, result.sweeps);
  if (stats.exchange == snap::to_string(snap::SweepExchange::Pipelined)) {
    std::fprintf(out, "  pipeline      %d stage%s deep (worst octant), "
                "%d lagged rank edge%s\n",
                stats.pipeline_stages, stats.pipeline_stages == 1 ? "" : "s",
                stats.lagged_rank_edges,
                stats.lagged_rank_edges == 1 ? "" : "s");
    std::fprintf(out, "  modelled      %.0f%% pipeline efficiency "
                "(unit-time rank sweeps)\n",
                100.0 * stats.modelled_pipeline_efficiency);
  }
  std::fprintf(out, "  measured idle mean %.0f%%, worst rank %.0f%% "
              "(halo waits / (waits + sweep))\n",
              100.0 * stats.mean_idle_fraction,
              100.0 * stats.max_idle_fraction);
}

void print_scale_report(const RunRecord::ScaleStats& stats, std::FILE* out) {
  std::fprintf(out,
              "scale model: %dx%dx%d grid, %d virtual ranks "
              "(rank_work %.2f, hop latency %.2f)\n",
              stats.px, stats.py, stats.pz, stats.ranks, stats.rank_work,
              stats.hop_latency);
  for (const RunRecord::ScaleStats::Ordering& o : stats.orderings)
    std::fprintf(out,
                "  %-11s %3d stages, makespan %7.1f "
                "(fill %6.1f, drain %6.1f), efficiency %3.0f%%, "
                "occupancy mean %3.0f%% peak %3.0f%%\n",
                o.ordering.c_str(), o.pipeline_stages, o.makespan,
                o.fill_time, o.drain_time, 100.0 * o.efficiency,
                100.0 * o.mean_occupancy, 100.0 * o.peak_occupancy);
}

void print_keff_report(const RunRecord::KeffStats& stats, std::FILE* out) {
  std::fprintf(out, "k-eigenvalue: k = %.9f (%s after %d outers%s)\n",
              stats.k, stats.converged ? "converged" : "NOT converged",
              stats.outers,
              stats.extrapolated ? ", extrapolated" : "");
  std::fprintf(out,
              "  dominance ratio ~ %.4f, last dk %.3e, "
              "last fission change %.3e\n",
              stats.dominance_ratio, stats.final_k_change,
              stats.final_fission_change);
  for (std::size_t s = 0; s < stats.groupsets.size(); ++s)
    std::fprintf(out, "  groupset %zu: groups %d..%d, %lld sweeps\n", s,
                stats.groupsets[s][0], stats.groupsets[s][1],
                s < stats.groupset_sweeps.size() ? stats.groupset_sweeps[s]
                                                 : 0LL);
}

void print_run_report(const RunRecord& record, std::FILE* out) {
  std::fprintf(out, "%s\n", record.provenance.summary().c_str());
  if (!record.title.empty())
    std::fprintf(out, "run: %s (mode %s)\n", record.title.c_str(),
                record.mode.c_str());
  else
    std::fprintf(out, "run mode: %s\n", record.mode.c_str());
  std::fprintf(out, "\n");
  print_configuration(record.config, out);
  if (record.schedule) {
    std::fprintf(out, "\n");
    print_schedule_report(*record.schedule, out);
  }
  if (record.iteration && record.mode != to_string(RunMode::Schedule)) {
    std::fprintf(out, "\n");
    print_iteration_report(*record.iteration,
                           record.iteration->solve_seconds > 0.0,
                           /*verbose=*/false, out);
  }
  if (record.decomposition) {
    std::fprintf(out, "\n");
    print_decomposition_report(*record.decomposition, *record.iteration,
                               out);
  }
  if (record.scale) {
    std::fprintf(out, "\n");
    print_scale_report(*record.scale, out);
  }
  if (record.keff) {
    std::fprintf(out, "\n");
    print_keff_report(*record.keff, out);
  }
  if (record.balance) {
    std::fprintf(out, "\n");
    print_balance_report(*record.balance, out);
  }
  if (record.flux) {
    std::fprintf(out, "\ngroup   <phi> (volume average)\n");
    for (std::size_t g = 0; g < record.flux->group_averages.size(); ++g)
      std::fprintf(out, "  %2zu    %.6e\n", g, record.flux->group_averages[g]);
    std::fprintf(out, "  flux min %.6e, max %.6e, total %.6e\n",
                record.flux->min, record.flux->max, record.flux->total);
  }
  if (record.initial_density) {
    std::fprintf(out, "\n  time    density     inners\n");
    std::fprintf(out, "  %5.2f   %.4e   --\n", 0.0, *record.initial_density);
    for (const RunRecord::TimeStep& s : record.steps)
      std::fprintf(out, "  %5.2f   %.4e   %d\n", s.time, s.total_density,
                  s.inners);
  }
  if (record.mms_l2_error)
    std::fprintf(out, "\nmanufactured-solution L2 error: %.6e\n",
                *record.mms_l2_error);
}

// --- live progress observer -----------------------------------------------

void ProgressObserver::on_outer_begin(int outer) {
  std::fprintf(out_, "outer %d:\n", outer);
}

void ProgressObserver::on_inner(int inner, int sweeps, double change) {
  std::fprintf(out_, "  inner %4d  sweeps %4d  dfmxi %.6e\n", inner, sweeps,
              change);
}

void ProgressObserver::on_krylov(int iteration, double residual) {
  std::fprintf(out_, "    krylov %4d  rel residual %.6e\n", iteration, residual);
}

void ProgressObserver::on_outer_end(int outer, double change,
                                    bool converged) {
  std::fprintf(out_, "outer %d done: dfmxo %.6e%s\n", outer, change,
              converged ? " (converged)" : "");
}

void ProgressObserver::on_keff_outer(int outer, double k, double k_change,
                                     double fission_change) {
  std::fprintf(out_,
              "keff outer %d: k %.9f  dk %.3e  fission change %.3e\n",
              outer, k, k_change, fission_change);
}

}  // namespace unsnap::api

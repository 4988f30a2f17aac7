// The four solve workloads: an untraced run that times whole solves
// through the user entry points, and a traced run that times each layer
// through its public calls and the IterationObserver events.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "angular/quadrature.hpp"
#include "api/run.hpp"
#include "api/run_config.hpp"
#include "comm/scale_model.hpp"
#include "core/discretization.hpp"
#include "mesh/mesh_builder.hpp"
#include "mesh/partition.hpp"
#include "sweep/schedule.hpp"
#include "util/json_parse.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = unsnap::api;
namespace core = unsnap::core;
namespace mesh = unsnap::mesh;
using unsnap::util::JsonValue;
using unsnap::util::json_parse;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

const std::vector<std::string> kLayers = {"api",   "mesh", "sweep", "core",
                                          "accel", "xs",   "comm",  "serve"};

/// The deck as the program reads it: the only source of its shape.
api::RunConfig config_of(const Deck& deck) {
  return api::read_deck_text(deck.text, deck.source);
}

mesh::MeshOptions mesh_options(const api::RunConfig& c) {
  mesh::MeshOptions options;
  options.dims = c.mesh.dims;
  options.extent = {c.mesh.extent[0], c.mesh.extent[1], c.mesh.extent[2]};
  options.twist = c.mesh.twist;
  options.shuffle_seed = c.mesh.shuffle_seed;
  return options;
}

/// Median interval between on_inner events of one solve of `deck`, timed
/// in a span log of its own (companion runs stay out of the trace).
double sweep_interval(const Deck& deck) {
  SpanLog local;
  const int run_span = local.open("api.run");
  api::RunConfig config = config_of(deck);
  TracingObserver observer(local, run_span, now_s(), config);
  api::Run run(std::move(config));
  run.set_observer(&observer);
  (void)run.execute();
  local.close(run_span);
  return median(local.durations("core.sweep"));
}

/// Gate one record; a failure counts against `out` and is noted.
bool gate(const std::string& what, const std::string& json,
          const Reference& ref, Outcome& out) {
  const std::vector<std::string> fails = check(digest_of(json_parse(json)), ref);
  for (const std::string& f : fails) out.note("gate: " + what + ": " + f);
  if (!fails.empty()) ++out.failed;
  return fails.empty();
}

/// The comm layer, on one untraced solve of the 2x2 pipelined deck: the
/// partition and scale-model calls, the RunRecord decomposition block, the
/// computed halo volume and the scale-model calibration line.
void measure_comm(unsigned long long seed, const Reference& ref, SpanLog& log,
                  LayerValues& v, Outcome& out) {
  const Deck deck = solve_deck("pipelined_2x2", seed);
  const api::RunConfig c = config_of(deck);
  ++out.attempted;
  const std::string json = solve_once(deck).json;
  gate("pipelined_2x2 solve", json, ref, out);
  const JsonValue rec = json_parse(json);
  const long sweeps = rec.at("iteration").get_int("sweeps");
  const mesh::HexMesh global = mesh::build_brick_mesh(mesh_options(c));
  std::size_t remote_faces = 0;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(log, "mesh.partition");
    const mesh::Partition part =
        mesh::make_kba_partition(global, c.decomposition.px, c.decomposition.py);
    remote_faces = 0;
    for (int r = 0; r < part.num_ranks(); ++r)
      remote_faces += mesh::extract_submesh(global, part, r).remote_faces.size();
  }
  v.set("mesh.partition_s", median(log.durations("mesh.partition")));
  // Each shared face appears once on either side; per sweep its upwind
  // side sends face nodes x directions x groups doubles (computed).
  const JsonValue& conf = rec.at("configuration");
  const double face_nodes = (c.mesh.order + 1) * (c.mesh.order + 1);
  v.set("comm.halo_mb_per_sweep",
        static_cast<double>(remote_faces) / 2.0 * face_nodes *
            conf.get_number("directions") * conf.get_number("ng") * 8.0 / kMiB);
  const JsonValue& dec = rec.at("decomposition");
  const double idle_mean = dec.get_number("mean_idle_fraction");
  const double idle_max = dec.get_number("max_idle_fraction");
  const double rankdag = dec.get_number("modelled_pipeline_efficiency");
  double rank_sweep = 0.0;
  const auto& per_rank = dec.at("rank_sweep_seconds").items();
  for (const JsonValue& r : per_rank) rank_sweep += r.as_number();
  rank_sweep /= static_cast<double>(per_rank.size());
  unsnap::comm::ScaleModelResult model;
  {
    ScopedSpan span(log, "comm.scale_model");
    unsnap::comm::ScaleModelConfig config;
    config.px = c.decomposition.px;
    config.py = c.decomposition.py;
    model = unsnap::comm::simulate_sweep_scale(config);
  }
  v.set("comm.idle_frac_mean", idle_mean);
  v.set("comm.idle_frac_max", idle_max);
  v.set("comm.rankdag_eff", rankdag);
  v.set("comm.model_idle_frac", model.mean_idle_fraction);
  v.set("comm.model_idle_err", idle_mean - model.mean_idle_fraction);
  v.set("comm.rank_sweep_s", rank_sweep / static_cast<double>(sweeps));
  char line[256];
  std::snprintf(line, sizeof(line),
                "calibration (2x2x1): measured idle mean %.4f max %.4f | "
                "simulate_sweep_scale idle mean %.4f (efficiency %.4f) | "
                "RankDag modelled efficiency %.4f | model_idle_err %+.4f",
                idle_mean, idle_max, model.mean_idle_fraction,
                model.efficiency, rankdag, idle_mean - model.mean_idle_fraction);
  out.note(line);
}

/// The per-layer metrics every traced run reports, as (name, unit) in
/// BENCHMARK.json order. A metric whose layer a workload does not exercise
/// reads 0 (and the run says so in a note).
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"api.parse_s", "s"},           {"api.record_s", "s"},
        {"mesh.build_s", "s"},          {"mesh.partition_s", "s"},
        {"sweep.schedule_s", "s"},      {"sweep.parallel_eff", "ratio"},
        {"core.lower_s", "s"},          {"core.preassembly_s", "s"},
        {"core.preassembly_mb", "MiB"}, {"core.flux_mb", "MiB"},
        {"core.sweep_s", "s"},          {"core.thread_eff", "ratio"},
        {"core.bytes_per_solve", "B"},  {"core.flops_per_byte", "flop/B"},
        {"accel.krylov_iters", "count"}, {"accel.overhead_s", "s"},
        {"xs.outers", "count"},         {"xs.sweeps_per_outer", "count"},
        {"xs.outer_s", "s"},            {"comm.idle_frac_mean", "ratio"},
        {"comm.idle_frac_max", "ratio"}, {"comm.model_idle_frac", "ratio"},
        {"comm.model_idle_err", "ratio"}, {"comm.rankdag_eff", "ratio"},
        {"comm.rank_sweep_s", "s"},     {"comm.halo_mb_per_sweep", "MiB"},
        {"serve.queue_p50_s", "s"},     {"serve.run_hit_p50_s", "s"},
        {"serve.run_miss_p50_s", "s"},  {"serve.hit_rate", "ratio"},
        {"serve.rpc_s", "s"},           {"obs.overhead_frac", "ratio"}};
    for (const std::string& layer : kLayers) {
      c.push_back({layer + ".count", "count"});
      c.push_back({layer + ".total_s", "s"});
      c.push_back({layer + ".self_s", "s"});
    }
    return c;
  }();
  return catalog;
}

}  // namespace

void LayerValues::finish(const SpanLog& log, Outcome& out) {
  const auto layers = summarize_layers(log.spans());
  for (const std::string& layer : kLayers) {
    const auto it = layers.find(layer);
    const LayerTotals t = it == layers.end() ? LayerTotals{} : it->second;
    set(layer + ".count", static_cast<double>(t.count));
    set(layer + ".total_s", t.total_s);
    set(layer + ".self_s", t.self_s);
  }
  std::string unmeasured;
  for (const auto& [name, unit] : per_layer_catalog()) {
    if (!has(name)) unmeasured += (unmeasured.empty() ? "" : ", ") + name;
    out.add(name, get(name), unit);
  }
  if (!unmeasured.empty())
    out.note("0 because this workload does not run the layer: " + unmeasured);
}

SolveSample solve_once(const Deck& deck) {
  FirstEvent first;
  const double t0 = now_s();
  api::Run run(api::read_deck_text(deck.text, deck.source));
  run.set_observer(&first);
  const api::RunRecord record = run.execute();
  SolveSample sample;
  sample.json = api::to_json(record);
  sample.wall_s = now_s() - t0;
  if (first.time() >= 0.0) sample.setup_s = first.time() - t0;
  return sample;
}

double work_units(const JsonValue& record) {
  const JsonValue& conf = record.at("configuration");
  double group_sweeps = 0.0;
  if (const JsonValue* keff = record.find("keff")) {
    for (const JsonValue& set : keff->at("groupsets").items())
      group_sweeps += set.get_number("sweeps") *
                      (set.get_number("hi") - set.get_number("lo") + 1.0);
  } else {
    group_sweeps =
        record.at("iteration").get_number("sweeps") * conf.get_number("ng");
  }
  return conf.get_number("elements") * conf.get_number("directions") *
         group_sweeps;
}

Outcome run_solve(const Args& args, const Reference& ref) {
  Outcome out;
  const Deck full = solve_deck(args.workload, args.seed);
  const Deck probe = solve_deck(args.workload, args.seed, Variant::Probe);
  std::vector<double> setups, walls, grinds;
  std::vector<long> sweeps;

  // Set-up probes: the workload's deck with iteration caps of one, so a
  // millisecond set-up is sampled many times. One probe warms the process
  // up first and is not sampled. The sampled ones are spread over the timed
  // loop, so they see the host as the solves do: its speed drifts over tens
  // of seconds, and probes bunched at one end of a run gave run medians of
  // either ~4.5 or ~7 ms on keff_criticality. sweep_inverse's set-up is
  // about a second long, so its solves alone sample it.
  const int probes = args.workload == "sweep_inverse" ? 0 : 9;
  const auto run_probe = [&](bool sampled) {
    ++out.attempted;
    try {
      const SolveSample s = solve_once(probe);
      if (s.setup_s < 0.0) {
        ++out.failed;
        out.note("probe: no observer event fired");
      } else if (sampled) {
        setups.push_back(s.setup_s);
      }
    } catch (const std::exception& err) {
      ++out.failed;
      out.note(std::string("probe threw: ") + err.what());
    }
  };
  run_probe(false);

  const double t_loop = now_s();
  const double deadline = t_loop + args.seconds;
  double probe_s = 0.0;    // probe time inside the loop
  double solving_s = 0.0;  // loop time up to the last solve, less probes
  const auto timed_solve = [&] {
    ++out.attempted;
    try {
      const SolveSample s = solve_once(full);
      solving_s = now_s() - t_loop - probe_s;
      if (s.setup_s < 0.0) {
        ++out.failed;
        out.note("solve: no observer event fired");
        return;
      }
      if (!gate("solve", s.json, ref, out)) return;
      const JsonValue record = json_parse(s.json);
      walls.push_back(s.wall_s);
      setups.push_back(s.setup_s);
      sweeps.push_back(record.at("iteration").get_int("sweeps"));
      grinds.push_back((s.wall_s - s.setup_s) / work_units(record) * 1e9);
    } catch (const std::exception& err) {
      ++out.failed;
      out.note(std::string("solve threw: ") + err.what());
    }
  };
  int probed = 0;
  do {
    timed_solve();
    const double t_probe = now_s();
    const double share = std::min(1.0, (t_probe - t_loop) / args.seconds);
    for (; probed < static_cast<int>(probes * share); ++probed) run_probe(true);
    probe_s += now_s() - t_probe;
  } while (now_s() < deadline);
  for (; probed < probes; ++probed) run_probe(true);

  for (const long s : sweeps)
    if (s != sweeps.front())
      out.note("sweeps differ between solves of one deck: " +
               std::to_string(s) + " vs " + std::to_string(sweeps.front()));
  out.note("solves timed: " + std::to_string(walls.size()) +
           ", set-ups sampled: " + std::to_string(setups.size()));
  out.note_samples("solve walls (s)", walls);
  out.note_samples("set-ups (ms)", setups, 1e3);
  out.add("wall_s", median(walls), "s");
  out.add("latency_p90_s", quantile(walls, 0.9), "s");
  out.add("throughput_runs_per_s",
          solving_s > 0.0 ? static_cast<double>(walls.size()) / solving_s : 0.0,
          "1/s");
  out.add("setup_s", median(setups), "s");
  out.add("sweeps", sweeps.empty() ? 0.0 : static_cast<double>(sweeps.front()),
          "count");
  out.add("grind_ns", median(grinds), "ns");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  return out;
}

TracedSolve probe_solve_layers(const Deck& deck, const Deck& probe,
                               SpanLog& log, LayerValues& v) {
  const api::RunConfig c = config_of(deck);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(log, "api.parse");
    (void)api::read_deck_text(deck.text, deck.source);
  }

  mesh::HexMesh built;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(log, "mesh.build");
    built = mesh::build_brick_mesh(mesh_options(c));
  }
  const unsnap::angular::QuadratureSet quadrature(c.angular.quadrature,
                                                  c.angular.nang);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(log, "sweep.schedule");
    const unsnap::sweep::ScheduleSet schedules(built, quadrature);
  }
  std::shared_ptr<const core::Discretization> disc;
  for (int i = 0; i < 3; ++i) {
    mesh::HexMesh copy = built;
    ScopedSpan span(log, "core.lower");
    disc = std::make_shared<const core::Discretization>(
        std::move(copy), c.mesh.order, c.angular.quadrature, c.angular.nang,
        c.mesh.cycle_strategy);
  }
  v.set("mesh.build_s", median(log.durations("mesh.build")));
  v.set("sweep.schedule_s", median(log.durations("sweep.schedule")));
  v.set("core.lower_s", median(log.durations("core.lower")));

  // Set-up with the lowering injected: what is left is preassembly and
  // solver construction (derived). Distributed runs lower per rank and
  // ignore an injected discretisation.
  if (c.decomposition.ranks() == 1) {
    FirstEvent first;
    api::Run run(api::read_deck_text(probe.text, probe.source));
    run.set_shared_discretization(disc);
    run.set_observer(&first);
    const double t0 = now_s();
    (void)run.execute();
    log.add("core.preassembly", t0, first.time());
    v.set("core.preassembly_s", first.time() - t0);
  }

  // The traced solve: the same entry points as the untraced run, with
  // the observer events turned into spans under api.run.
  const double t0 = now_s();
  std::optional<api::RunConfig> config;
  {
    ScopedSpan span(log, "api.parse");
    config.emplace(api::read_deck_text(deck.text, deck.source));
  }
  const int run_span = log.open("api.run");
  TracingObserver observer(log, run_span, now_s(), *config);
  api::Run run(std::move(*config));
  run.set_observer(&observer);
  const api::RunRecord record = run.execute();
  log.close(run_span);
  std::string json;
  {
    ScopedSpan span(log, "api.record");
    json = api::to_json(record);
  }
  const double wall = now_s() - t0;
  for (int i = 0; i < 4; ++i) {
    ScopedSpan span(log, "api.record");
    json = api::to_json(record);
  }
  v.set("api.parse_s", median(log.durations("api.parse")));
  v.set("api.record_s", median(log.durations("api.record")));

  const JsonValue rec = json_parse(json);
  if (const JsonValue* schedule = rec.find("schedule"))
    v.set("sweep.parallel_eff", schedule->get_number("parallel_efficiency"));
  const JsonValue& conf = rec.at("configuration");
  v.set("core.preassembly_mb", conf.get_number("preassembly_bytes") / kMiB);
  const double n = conf.get_number("nodes_per_element");
  // psi (nodes x directions x groups) plus phi (nodes x groups), doubles.
  v.set("core.flux_mb", conf.get_number("elements") * n * conf.get_number("ng") *
                            (conf.get_number("directions") + 1.0) * 8.0 / kMiB);
  if (c.execution.preassembly == unsnap::snap::PreassemblyMode::ExplicitInverse) {
    // One stored n x n inverse per local solve: n^2 doubles read for the
    // 2 n^2 flops of the matvec (computed, not measured).
    v.set("core.bytes_per_solve", n * n * 8.0);
    v.set("core.flops_per_byte", 2.0 * n * n / (n * n * 8.0));
  }
  v.set("accel.krylov_iters",
        static_cast<double>(rec.at("iteration").get_int("krylov_iters")));
  if (!log.durations("core.sweep").empty())
    v.set("core.sweep_s", median(log.durations("core.sweep")));
  return {wall, json};
}

Outcome trace_solve(const Args& args,
                    const std::map<std::string, Reference>& refs,
                    SpanLog& log) {
  Outcome out;
  LayerValues v;
  const Reference& ref = refs.at(args.workload);
  const Deck full = solve_deck(args.workload, args.seed);
  const Deck probe = solve_deck(args.workload, args.seed, Variant::Probe);

  // Untraced baseline for obs.overhead_frac (never reported end to end),
  // after a warm-up probe so neither side pays the first-touch costs.
  (void)solve_once(probe);
  ++out.attempted;
  const SolveSample base = solve_once(full);
  gate("untraced solve", base.json, ref, out);

  ++out.attempted;
  const TracedSolve traced = probe_solve_layers(full, probe, log, v);
  gate("traced solve", traced.json, ref, out);
  v.set("obs.overhead_frac", (traced.wall_s - base.wall_s) / base.wall_s);
  const JsonValue rec = json_parse(traced.json);
  const long sweeps = rec.at("iteration").get_int("sweeps");
  v.set("core.thread_eff", 1.0);

  if (args.workload == "sweep_inverse") {
    const double one = sweep_interval(
        solve_deck(args.workload, args.seed, Variant::OneThread));
    v.set("core.thread_eff", one / (config_of(full).execution.num_threads *
                                    v.get("core.sweep_s")));
    measure_comm(args.seed, refs.at("pipelined_2x2"), log, v, out);
  } else if (args.workload == "diffusive_gmres") {
    const double si =
        sweep_interval(solve_deck(args.workload, args.seed, Variant::SiInners));
    double gmres_solve = 0.0;
    for (const double d : log.durations("core.outer")) gmres_solve += d;
    v.set("core.sweep_s", si);
    v.set("accel.overhead_s", gmres_solve - static_cast<double>(sweeps) * si);
    out.note("accel: gmres solve " + std::to_string(gmres_solve) + " s over " +
             std::to_string(sweeps) + " sweeps; SI sweep " +
             std::to_string(si) + " s");
  } else if (args.workload == "keff_criticality") {
    const JsonValue& keff = rec.at("keff");
    const double outers = keff.get_number("outers");
    v.set("xs.outers", outers);
    v.set("xs.sweeps_per_outer", static_cast<double>(sweeps) / outers);
    v.set("xs.outer_s", median(log.durations("xs.outer")));
  }
  v.finish(log, out);
  return out;
}

}  // namespace perfbench

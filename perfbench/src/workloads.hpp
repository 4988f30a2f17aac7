#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "decks.hpp"
#include "gate.hpp"
#include "spans.hpp"

namespace perfbench {

/// Per-layer values being filled in by a traced run; unset ones are 0.
class LayerValues {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  /// Layer count/total/self from the spans, then every catalog metric
  /// into `out` (noting the ones this workload leaves at 0).
  void finish(const SpanLog& log, Outcome& out);

 private:
  std::map<std::string, double> values_;
};

/// Solve workloads (sweep_inverse, diffusive_gmres, keff_criticality):
/// untraced end-to-end run, and traced per-layer run. `refs` holds every
/// deck's gate reference (sweep_inverse's traced run also gates the
/// pipelined_2x2 companion solve).
Outcome run_solve(const Args& args, const Reference& ref);
Outcome trace_solve(const Args& args,
                    const std::map<std::string, Reference>& refs,
                    SpanLog& log);

/// serve_mixed: untraced closed loop, and traced per-layer run.
Outcome run_serve(const Args& args);
Outcome trace_serve(const Args& args, SpanLog& log);

/// Public-call layer probes shared by both traced runs: parse, mesh,
/// schedules, lowering, preassembly with an injected discretisation and
/// one traced solve of `deck` (its observer spans under api.run). Fills
/// `values` with the api/mesh/sweep/core metrics; returns the traced
/// solve's wall time and RunRecord JSON.
struct TracedSolve {
  double wall_s = 0.0;
  std::string json;
};
TracedSolve probe_solve_layers(const Deck& deck, const Deck& probe,
                               SpanLog& log, LayerValues& values);

/// One untraced solve through the user entry points: deck text ->
/// api::read_deck_text -> api::Run::execute -> api::to_json.
struct SolveSample {
  double wall_s = 0.0;
  double setup_s = -1.0;  // deck text -> first observer event; < 0 = none
  std::string json;       // the RunRecord JSON
};
[[nodiscard]] SolveSample solve_once(const Deck& deck);

/// Work units of one solve, from its RunRecord: sweeps x elements x
/// directions x groups per sweep (keff: each groupset's sweeps times its
/// group count).
[[nodiscard]] double work_units(const unsnap::util::JsonValue& record);

}  // namespace perfbench

#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/run_config.hpp"
#include "core/observer.hpp"

namespace perfbench {

/// One benchmark span. Names are "<layer>.<what>", where the layer is the
/// src/ module whose public function was called (or whose observer event
/// delimits the interval). Times are now_s() seconds.
struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int id = 0;       // 1-based, in creation order
  int parent = 0;   // 0 = root
  std::string job;  // serve job id shared by all spans of one job
  int lane = 0;     // Chrome-trace thread lane
};

/// In-memory span store for the traced run, written out once at exit.
/// Thread-safe: the serve workload's client threads record concurrently.
class SpanLog {
 public:
  /// Open a span now; close it with close(id).
  int open(const std::string& name, int parent = 0);
  void close(int id);
  /// Record a finished interval (derived from events or an envelope).
  int add(const std::string& name, double t0, double t1, int parent = 0,
          const std::string& job = "", int lane = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Durations of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Chrome-trace JSON (chrome://tracing, Perfetto): one complete event
  /// per span with its id, parent and job in args.
  void write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a root span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Per-layer totals: span count, total time (outermost spans of the layer
/// only, so nesting inside one layer is not counted twice) and self time
/// (each span's duration minus the union of its children's intervals).
struct LayerTotals {
  long count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
[[nodiscard]] std::map<std::string, LayerTotals> summarize_layers(
    const std::vector<Span>& spans);

/// Records when the first IterationObserver event fires: the end of a
/// Run's set-up (parse, lowering, preassembly, solver construction).
class FirstEvent : public unsnap::core::IterationObserver {
 public:
  void on_outer_begin(int) override { mark(); }
  void on_inner(int, int, double) override { mark(); }
  void on_krylov(int, double) override { mark(); }
  void on_outer_end(int, double, bool) override { mark(); }
  void on_keff_outer(int, double, double, double) override { mark(); }

  /// now_s() of the first event; negative when none fired.
  [[nodiscard]] double time() const { return t_; }

 private:
  void mark();
  double t_ = -1.0;
};

/// Turns the IterationObserver events of one Run into spans under the
/// caller's "api.run" span:
///   core.setup   execute() start -> first event
///   xs.outer     one power iteration (keff runs: up to on_keff_outer)
///   core.outer   on_outer_begin -> on_outer_end
///   core.sweep   interval between on_inner events: one SI sweep
///   accel.cycle  the same interval under GMRES inners, where on_inner
///                fires once per restart cycle after the Krylov solve
///                (on_krylov events are replayed afterwards, so they are
///                counted, not timed)
class TracingObserver : public unsnap::core::IterationObserver {
 public:
  /// `config` is the run's parsed deck: keff runs get xs.outer spans,
  /// GMRES inners accel.cycle spans.
  TracingObserver(SpanLog& log, int run_span, double t_start,
                  const unsnap::api::RunConfig& config)
      : log_(log), run_(run_span), t_start_(t_start),
        keff_(config.mode == unsnap::api::RunMode::Keff),
        gmres_(config.iteration.scheme == unsnap::snap::IterationScheme::Gmres) {}

  void on_outer_begin(int outer) override;
  void on_inner(int inner, int sweeps, double change) override;
  void on_krylov(int, double) override { ++krylov_; }
  void on_outer_end(int outer, double change, bool converged) override;
  void on_keff_outer(int outer, double k, double k_change,
                     double fission_change) override;

  [[nodiscard]] double first_event() const { return first_; }
  [[nodiscard]] long krylov_events() const { return krylov_; }

 private:
  void first();

  SpanLog& log_;
  int run_;
  double t_start_;
  bool keff_, gmres_;
  double first_ = -1.0;  // first event time
  double mark_ = 0.0;    // last on_inner / on_outer_begin time
  double keff_mark_ = 0.0;
  int outer_ = 0;        // open core.outer span
  int keff_outer_ = 0;   // open xs.outer span
  long krylov_ = 0;
};

}  // namespace perfbench

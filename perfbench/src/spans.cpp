#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common.hpp"

namespace perfbench {

int SpanLog::open(const std::string& name, int parent) {
  const double t = now_s();
  return add(name, t, t, parent);
}

void SpanLog::close(int id) {
  const double t = now_s();
  std::lock_guard lock(mu_);
  spans_.at(static_cast<std::size_t>(id - 1)).t1 = t;
}

int SpanLog::add(const std::string& name, double t0, double t1, int parent,
                 const std::string& job, int lane) {
  std::lock_guard lock(mu_);
  Span span;
  span.name = name;
  span.t0 = t0;
  span.t1 = t1;
  span.id = static_cast<int>(spans_.size()) + 1;
  span.parent = parent;
  span.job = job;
  span.lane = lane;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard lock(mu_);
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.t1 - s.t0);
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace '" + path + "'");
  out << "{\"traceEvents\": [\n";
  bool first = true;
  char buf[160];
  for (const Span& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  s.lane, s.t0 * 1e6, (s.t1 - s.t0) * 1e6);
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << layer << "\", "
        << buf << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"job\": \"" << s.job
        << "\"}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

namespace {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Length of the union of [a, b) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, end = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, end);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      end = b;
    }
  }
  return total;
}

}  // namespace

std::map<std::string, LayerTotals> summarize_layers(
    const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> children;
  std::map<int, const Span*> by_id;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) children[s.parent].push_back({s.t0, s.t1});
  }
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans) {
    const std::string layer = layer_of(s.name);
    LayerTotals& t = out[layer];
    ++t.count;
    const auto it = children.find(s.id);
    const double busy =
        it == children.end() ? 0.0 : covered(it->second, s.t0, s.t1);
    t.self_s += (s.t1 - s.t0) - busy;
    // Count a span in the layer total only when no ancestor shares its
    // layer (core.sweep inside core.outer is already in core.outer).
    bool nested = false;
    for (int p = s.parent; p != 0 && !nested;) {
      const auto parent = by_id.find(p);
      if (parent == by_id.end()) break;
      nested = layer_of(parent->second->name) == layer;
      p = parent->second->parent;
    }
    if (!nested) t.total_s += s.t1 - s.t0;
  }
  return out;
}

void FirstEvent::mark() {
  if (t_ < 0.0) t_ = now_s();
}

void TracingObserver::first() {
  if (first_ >= 0.0) return;
  first_ = now_s();
  log_.add("core.setup", t_start_, first_, run_);
  mark_ = keff_mark_ = first_;
}

void TracingObserver::on_outer_begin(int) {
  first();
  const double t = now_s();
  if (keff_ && keff_outer_ == 0)
    keff_outer_ = log_.add("xs.outer", keff_mark_, keff_mark_, run_);
  outer_ = log_.open("core.outer", keff_outer_ != 0 ? keff_outer_ : run_);
  mark_ = t;
}

void TracingObserver::on_inner(int, int, double) {
  first();
  const double t = now_s();
  log_.add(gmres_ ? "accel.cycle" : "core.sweep", mark_, t,
           outer_ != 0 ? outer_ : run_);
  mark_ = t;
}

void TracingObserver::on_outer_end(int, double, bool) {
  first();
  if (outer_ != 0) log_.close(outer_);
  outer_ = 0;
}

void TracingObserver::on_keff_outer(int, double, double, double) {
  first();
  if (keff_outer_ != 0) log_.close(keff_outer_);
  keff_outer_ = 0;
  keff_mark_ = now_s();
}

}  // namespace perfbench

#include "serve/server.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "api/run.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/threads.hpp"

namespace unsnap::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Global metric names + help strings (constants so every registration
// site agrees; the registry keeps the first help it sees per family).
constexpr const char* kRequestsName = "unsnapd_requests_total";
constexpr const char* kRequestsHelp = "Protocol requests handled, by op";
constexpr const char* kErrorsName = "unsnapd_request_errors_total";
constexpr const char* kErrorsHelp = "Protocol requests that failed, by op";
constexpr const char* kQueueWaitName = "unsnapd_scheduler_queue_wait_seconds";
constexpr const char* kQueueWaitHelp =
    "Time jobs spent queued before a worker acquired them";
constexpr const char* kRunName = "unsnapd_run_seconds";
constexpr const char* kRunHelp = "Wall time of executed runs";
constexpr const char* kFrameName = "unsnapd_socket_frame_bytes";
constexpr const char* kFrameHelp = "Received protocol frame sizes";

std::string op_label(const std::string& op) {
  return "op=\"" + op + "\"";
}

obs::Histogram& global_queue_wait() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      kQueueWaitName, kQueueWaitHelp, obs::Histogram::latency_bounds());
  return h;
}

obs::Histogram& global_run_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      kRunName, kRunHelp, obs::Histogram::latency_bounds());
  return h;
}

obs::Histogram& global_frame_bytes() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      kFrameName, kFrameHelp, obs::Histogram::frame_size_bounds());
  return h;
}

void write_latency_summary(util::JsonWriter& json, const std::string& key,
                           const obs::Histogram& hist) {
  const obs::Histogram::Snapshot snap = hist.snapshot();
  json.key(key).begin_object();
  json.kv("count", snap.count);
  json.kv("sum_seconds", snap.sum);
  json.kv("p50_seconds", snap.quantile(0.50));
  json.kv("p95_seconds", snap.quantile(0.95));
  json.kv("p99_seconds", snap.quantile(0.99));
  json.end_object();
}

void write_progress(util::JsonWriter& json,
                    const ProgressBridge::Snapshot& progress) {
  json.key("progress").begin_object();
  json.kv("outers", progress.outers);
  json.kv("inners", progress.inners);
  json.kv("sweeps", progress.sweeps);
  json.kv("krylov", progress.krylov);
  json.kv("last_change", progress.last_change);
  json.end_object();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      // Handlers park accepted sockets here; a small bound is plenty —
      // producers (acceptors) block when the handler pool is saturated.
      connections_(64),
      cache_(options_.cache_capacity) {
  require(!options_.unix_path.empty() || options_.tcp_port >= 0,
          "unsnapd: no listener configured (need a socket path or a "
          "TCP port)");
  require(options_.workers >= 1, "unsnapd: workers must be >= 1");
  require(options_.conn_threads >= 1,
          "unsnapd: connection threads must be >= 1");
  require(options_.history_capacity >= 1,
          "unsnapd: history capacity must be >= 1");
  // The daemon's budget passes the same hardware check a deck's
  // [execution] threads does: a budget the machine cannot supply is a
  // configuration error, not something to discover under load.
  util::require_thread_budget(options_.thread_budget,
                              "unsnapd: --thread-budget");
  thread_budget_ = options_.thread_budget > 0 ? options_.thread_budget
                                              : util::hardware_threads();
  scheduler_ = std::make_unique<Scheduler>(thread_budget_);

  // Pre-register the full metric catalog so a scrape of a fresh daemon
  // exposes every series at zero instead of families appearing as they
  // are first hit (dashboards and the >= 10-series smoke both rely on a
  // stable catalog).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  for (const char* op : kOps) {
    reg.counter(kRequestsName, kRequestsHelp, op_label(op));
    reg.counter(kErrorsName, kErrorsHelp, op_label(op));
  }
  reg.gauge("unsnapd_uptime_seconds", "Seconds since the daemon started");
  reg.gauge("unsnapd_scheduler_queue_depth", "Jobs waiting for a worker");
  reg.gauge("unsnapd_scheduler_threads_in_use",
            "Budget threads charged by running jobs");
  reg.gauge("unsnapd_cache_entries", "Lowering-cache entries resident");
  reg.gauge("unsnapd_cache_hits", "Lowering-cache hits since start");
  reg.gauge("unsnapd_cache_misses", "Lowering-cache misses since start");
  for (const char* state : {"submitted", "completed", "failed", "cancelled"})
    reg.gauge("unsnapd_runs", "Runs by terminal state",
              std::string("state=\"") + state + "\"");
  global_queue_wait();
  global_run_seconds();
  global_frame_bytes();
}

double Server::uptime_seconds() const { return seconds_since(started_); }

Server::~Server() { stop(); }

void Server::start() {
  if (!options_.unix_path.empty()) {
    unix_listener_ = util::Socket::listen_unix(options_.unix_path);
    acceptors_.emplace_back([this] { accept_loop(unix_listener_); });
    log("listening on " + options_.unix_path);
  }
  if (options_.tcp_port >= 0) {
    tcp_listener_ = util::Socket::listen_tcp(options_.tcp_port);
    acceptors_.emplace_back([this] { accept_loop(tcp_listener_); });
    log("listening on 127.0.0.1:" + std::to_string(tcp_listener_.bound_port()));
  }
  for (int i = 0; i < options_.conn_threads; ++i)
    handlers_.emplace_back([this] {
      while (std::optional<util::Socket> socket = connections_.pop())
        handle_connection(std::move(*socket));
    });
  for (int i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  log("serving: " + std::to_string(options_.workers) + " workers, " +
      std::to_string(thread_budget_) + "-thread budget");
}

void Server::wait() {
  std::unique_lock lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Server::request_stop() {
  {
    std::lock_guard lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  request_stop();
  // Order matters: stop intake first (no new connections or requests),
  // then drain the run queue, then unblock handlers parked in recv so
  // everything joins. Running jobs finish normally — workers observe the
  // scheduler shutdown only when they come back to acquire().
  if (unix_listener_.valid()) unix_listener_.shutdown_listener();
  if (tcp_listener_.valid()) tcp_listener_.shutdown_listener();
  connections_.close();
  scheduler_->shutdown();
  for (std::thread& t : acceptors_) t.join();
  // Acceptors are gone, so nothing pushes any more — but pop() drains
  // items queued before close(), and a handler picking one up after the
  // SHUT_RDWR pass below would block in recv on an idle client forever.
  // Drop the still-parked sockets here instead (destructor closes them).
  while (connections_.try_pop()) {
  }
  {
    std::lock_guard lock(conns_mu_);
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : handlers_) t.join();
  for (std::thread& t : workers_) t.join();
  acceptors_.clear();
  handlers_.clear();
  workers_.clear();
  log("stopped");
}

int Server::port() const {
  return tcp_listener_.valid() ? tcp_listener_.bound_port() : -1;
}

void Server::accept_loop(util::Socket& listener) {
  while (std::optional<util::Socket> socket = listener.accept_connection()) {
    if (!connections_.push(std::move(*socket))) return;  // shutting down
  }
}

void Server::handle_connection(util::Socket socket) {
  {
    std::lock_guard lock(conns_mu_);
    live_fds_.push_back(socket.fd());
  }
  // stop() flips stopped_ before its SHUT_RDWR pass over live_fds_; a
  // socket registered after that pass would be missed and leave this
  // handler parked in recv, so re-run the shutdown for it here.
  if (stopped_.load()) ::shutdown(socket.fd(), SHUT_RDWR);
  const int fd = socket.fd();
  try {
    while (std::optional<std::string> frame = socket.recv_frame()) {
      frame_bytes_hist_.observe(static_cast<double>(frame->size()));
      global_frame_bytes().observe(static_cast<double>(frame->size()));
      bool stop_after_reply = false;
      socket.send_frame(handle_message(*frame, stop_after_reply));
      // A shutdown request is acknowledged on the wire *before* the stop
      // begins — stop() SHUT_RDWRs every live connection, including this
      // one, so triggering it first would race the reply away.
      if (stop_after_reply) request_stop();
    }
  } catch (const std::exception&) {
    // Torn frame or dead peer mid-reply: drop the connection; the
    // daemon's own state is untouched.
  }
  std::lock_guard lock(conns_mu_);
  live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), fd),
                  live_fds_.end());
}

void Server::count_op(const std::string& op, bool error) {
  for (std::size_t i = 0; i < kOps.size(); ++i) {
    if (op != kOps[i]) continue;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    if (error) {
      op_counters_[i].errors.fetch_add(1, std::memory_order_relaxed);
      reg.counter(kErrorsName, kErrorsHelp, op_label(op)).inc();
    } else {
      op_counters_[i].requests.fetch_add(1, std::memory_order_relaxed);
      reg.counter(kRequestsName, kRequestsHelp, op_label(op)).inc();
    }
    return;
  }
}

std::string Server::handle_message(const std::string& frame,
                                   bool& stop_after_reply) {
  std::string op;
  try {
    const util::JsonValue request = parse_message(frame);
    op = request.get_string("op");
    count_op(op, /*error=*/false);
    if (op == "ping") {
      util::JsonWriter json(0);
      json.begin_object();
      json.kv("ok", true);
      json.kv("service", std::string("unsnapd"));
      json.end_object();
      return json.str();
    }
    if (op == "submit") return handle_submit(request);
    if (op == "status") return handle_status(request);
    if (op == "result") return handle_result(request);
    if (op == "cancel") return handle_cancel(request);
    if (op == "stats") return handle_stats();
    if (op == "metrics") return handle_metrics();
    if (op == "shutdown") {
      log("shutdown requested");
      stop_after_reply = true;  // the caller stops after sending the ack
      util::JsonWriter json(0);
      json.begin_object();
      json.kv("ok", true);
      json.kv("stopping", true);
      json.end_object();
      return json.str();
    }
    return make_error_response(
        "unknown op '" + op +
        "' (expected ping, submit, status, result, cancel, stats, metrics "
        "or shutdown)");
  } catch (const std::exception& err) {
    count_op(op, /*error=*/true);
    return make_error_response(err.what());
  }
}

std::string Server::handle_submit(const util::JsonValue& request) {
  const util::JsonValue* deck = request.find("deck");
  require(deck != nullptr && deck->is_string(),
          "submit: missing string field 'deck'");
  const int priority = static_cast<int>(request.get_int("priority", 0));

  // Parsing validates the deck (including its [execution] threads against
  // the hardware); errors carry the submit-side deck location. Clients
  // that name the deck file (the "source" field) get their relative [xs]
  // library paths resolved against the deck's directory.
  const util::JsonValue* source = request.find("source");
  const std::string source_name =
      source != nullptr && source->is_string() && !source->as_string().empty()
          ? source->as_string()
          : "<submit>";
  api::RunConfig config = api::read_deck_text(deck->as_string(), source_name);
  // A run always charges at least one budget thread; resolving the
  // "OpenMP default" of 0 here keeps the ledger honest and makes
  // threads=0 and threads=1 decks share one cache entry.
  if (config.execution.num_threads == 0) config.execution.num_threads = 1;

  auto job = std::make_shared<Job>();
  job->priority = priority;
  job->config = std::move(config);
  job->normalized = normalized_deck(job->config);
  job->digest = fnv1a64(job->normalized);
  job->threads = job->config.execution.num_threads;
  job->submitted = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(jobs_mu_);
    job->sequence = next_sequence_++;
    char id[32];
    std::snprintf(id, sizeof(id), "run-%04ld", job->sequence);
    job->id = id;
    jobs_[job->id] = job;
  }
  try {
    scheduler_->submit(job);  // throws if the request exceeds the budget
    std::lock_guard lock(jobs_mu_);
    ++submitted_;
  } catch (...) {
    // A rejected job (budget exceeded, daemon shutting down) never runs
    // and never turns terminal: drop it or it sits in jobs_ forever.
    std::lock_guard lock(jobs_mu_);
    jobs_.erase(job->id);
    throw;
  }
  log("submit " + job->id + " digest " + digest_hex(job->digest) +
      " priority " + std::to_string(priority) + " threads " +
      std::to_string(job->threads));

  util::JsonWriter json(0);
  json.begin_object();
  json.kv("ok", true);
  json.kv("id", job->id);
  json.kv("digest", digest_hex(job->digest));
  json.kv("state", to_string(job->state.load()));
  json.end_object();
  return json.str();
}

std::string Server::handle_status(const util::JsonValue& request) {
  const std::shared_ptr<Job> job = find_job(request.get_string("id"));
  const RunState state = job->state.load();
  util::JsonWriter json(0);
  json.begin_object();
  json.kv("ok", true);
  json.kv("id", job->id);
  json.kv("state", to_string(state));
  json.kv("terminal", is_terminal(state));
  json.kv("cache_hit", job->cache_hit.load());
  json.kv("priority", job->priority);
  json.kv("threads", job->threads);
  write_progress(json, job->progress.snapshot());
  json.end_object();
  return json.str();
}

std::string Server::handle_result(const util::JsonValue& request) {
  const std::shared_ptr<Job> job = find_job(request.get_string("id"));
  const RunState state = job->state.load();
  if (!is_terminal(state))
    return make_error_response("run " + job->id + " is not finished (state " +
                               to_string(state) + "); poll status first");
  // Terminal state published -> the payload is stable under `mu`.
  std::lock_guard lock(job->mu);
  util::JsonWriter json(0);
  json.begin_object();
  json.kv("ok", true);
  json.kv("id", job->id);
  json.kv("state", to_string(state));
  json.kv("cache_hit", job->cache_hit.load());
  json.kv("digest", digest_hex(job->digest));
  json.kv("queued_seconds", job->queued_seconds);
  json.kv("run_seconds", job->run_seconds);
  if (state == RunState::Done)
    json.key("record").raw(job->record_json);
  else
    json.kv("error", job->error);
  json.end_object();
  return json.str();
}

std::string Server::handle_cancel(const util::JsonValue& request) {
  const std::shared_ptr<Job> job = find_job(request.get_string("id"));
  const bool cancelled = scheduler_->cancel(job->id);
  if (cancelled) {
    std::lock_guard lock(jobs_mu_);
    ++cancelled_;
    retire_job_locked(job->id);
  }
  util::JsonWriter json(0);
  json.begin_object();
  json.kv("ok", true);
  json.kv("id", job->id);
  json.kv("cancelled", cancelled);
  json.kv("state", to_string(job->state.load()));
  json.end_object();
  return json.str();
}

std::string Server::handle_stats() {
  const Scheduler::Stats sched = scheduler_->stats();
  const LoweringCache::Stats cache = cache_.stats();
  long submitted, completed, failed, cancelled;
  {
    std::lock_guard lock(jobs_mu_);
    submitted = submitted_;
    completed = completed_;
    failed = failed_;
    cancelled = cancelled_;
  }
  util::JsonWriter json(0);
  json.begin_object();
  json.kv("ok", true);
  json.kv("uptime_seconds", uptime_seconds());
  json.key("scheduler").begin_object();
  json.kv("queued", sched.queued);
  json.kv("threads_in_use", sched.threads_in_use);
  json.kv("peak_threads", sched.peak_threads);
  json.kv("total_threads", sched.total_threads);
  json.kv("workers", options_.workers);
  json.end_object();
  json.key("requests").begin_object();
  for (std::size_t i = 0; i < kOps.size(); ++i)
    json.kv(kOps[i], op_counters_[i].requests.load());
  json.end_object();
  json.key("request_errors").begin_object();
  for (std::size_t i = 0; i < kOps.size(); ++i)
    json.kv(kOps[i], op_counters_[i].errors.load());
  json.end_object();
  json.key("latency").begin_object();
  write_latency_summary(json, "queue_wait", queue_wait_hist_);
  write_latency_summary(json, "run_seconds", run_seconds_hist_);
  json.end_object();
  json.key("cache").begin_object();
  json.kv("hits", cache.hits);
  json.kv("misses", cache.misses);
  json.kv("evictions", cache.evictions);
  json.kv("entries", static_cast<long>(cache.entries));
  json.kv("capacity", static_cast<long>(options_.cache_capacity));
  json.end_object();
  json.key("runs").begin_object();
  json.kv("submitted", submitted);
  json.kv("completed", completed);
  json.kv("failed", failed);
  json.kv("cancelled", cancelled);
  json.end_object();
  json.end_object();
  return json.str();
}

std::string Server::handle_metrics() {
  // Point-in-time values are set at scrape (the counters and histograms
  // update live); with several in-process servers sharing the global
  // registry the gauges reflect the last scraped server, the counters
  // aggregate — both documented in docs/OBSERVABILITY.md.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const Scheduler::Stats sched = scheduler_->stats();
  const LoweringCache::Stats cache = cache_.stats();
  long submitted, completed, failed, cancelled;
  {
    std::lock_guard lock(jobs_mu_);
    submitted = submitted_;
    completed = completed_;
    failed = failed_;
    cancelled = cancelled_;
  }
  reg.gauge("unsnapd_uptime_seconds", "").set(uptime_seconds());
  reg.gauge("unsnapd_scheduler_queue_depth", "").set(sched.queued);
  reg.gauge("unsnapd_scheduler_threads_in_use", "")
      .set(sched.threads_in_use);
  reg.gauge("unsnapd_cache_entries", "")
      .set(static_cast<double>(cache.entries));
  reg.gauge("unsnapd_cache_hits", "").set(static_cast<double>(cache.hits));
  reg.gauge("unsnapd_cache_misses", "")
      .set(static_cast<double>(cache.misses));
  reg.gauge("unsnapd_runs", "", "state=\"submitted\"").set(submitted);
  reg.gauge("unsnapd_runs", "", "state=\"completed\"").set(completed);
  reg.gauge("unsnapd_runs", "", "state=\"failed\"").set(failed);
  reg.gauge("unsnapd_runs", "", "state=\"cancelled\"").set(cancelled);

  util::JsonWriter json(0);
  json.begin_object();
  json.kv("ok", true);
  json.kv("uptime_seconds", uptime_seconds());
  json.kv("series", reg.series_count());
  json.kv("metrics", reg.prometheus_text());
  json.end_object();
  return json.str();
}

void Server::retire_job_locked(const std::string& id) {
  history_.push_back(id);
  // Terminal payloads (full RunRecord JSON) dominate a job's footprint:
  // keep only the newest history_capacity of them resolvable so a
  // long-lived daemon does not grow without bound.
  while (history_.size() > options_.history_capacity) {
    jobs_.erase(history_.front());
    history_.pop_front();
  }
}

std::shared_ptr<Job> Server::find_job(const std::string& id) const {
  require(!id.empty(), "missing field 'id'");
  std::lock_guard lock(jobs_mu_);
  const auto it = jobs_.find(id);
  require(it != jobs_.end(), "unknown run id '" + id + "'");
  return it->second;
}

void Server::worker_loop() {
  while (const std::shared_ptr<Job> job = scheduler_->acquire()) {
    job->queued_seconds = seconds_since(job->submitted);
    queue_wait_hist_.observe(job->queued_seconds);
    global_queue_wait().observe(job->queued_seconds);
    if (obs::Tracer::enabled()) {
      // The queued interval straddles threads (submitted on a handler,
      // acquired here), so it is recorded manually rather than via RAII:
      // back-date the begin by the measured wait on this worker's lane.
      obs::TraceEvent queued;
      queued.name = "job.queued";
      queued.t1_ns = obs::Tracer::now_ns();
      const auto waited =
          static_cast<std::uint64_t>(job->queued_seconds * 1e9);
      queued.t0_ns = queued.t1_ns > waited ? queued.t1_ns - waited : 0;
      obs::Tracer::instance().record(queued);
    }
    {
      OBS_SPAN("job.run", "threads", job->threads);
      execute_job(*job);
    }
    run_seconds_hist_.observe(job->run_seconds);
    global_run_seconds().observe(job->run_seconds);
    scheduler_->release(*job);
    {
      std::lock_guard lock(jobs_mu_);
      if (job->state.load() == RunState::Done)
        ++completed_;
      else
        ++failed_;
      retire_job_locked(job->id);
    }
  }
}

void Server::execute_job(Job& job) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    api::Run run(job.config);
    run.set_observer(&job.progress);
    // Only single-domain runs share a lowering: distributed runs build
    // per-rank discretisations the cache does not model.
    const bool cacheable = job.config.decomposition.ranks() == 1;
    if (cacheable) {
      if (auto lowering = cache_.lookup(job.digest, job.normalized)) {
        run.set_shared_discretization(std::move(lowering->disc));
        // Preassembled decks also skip the whole inversion pass — Run
        // only consumes the operator when the config asks for one.
        run.set_shared_preassembly(std::move(lowering->pre));
        job.cache_hit.store(true);
      }
    }
    api::RunRecord record = run.execute();
    if (cacheable && !job.cache_hit.load())
      if (auto disc = run.shared_discretization())
        cache_.insert(job.digest, job.normalized,
                      Lowering{std::move(disc), run.shared_preassembly()});
    job.run_seconds = seconds_since(t0);
    log("done " + job.id + (job.cache_hit.load() ? " (cache hit)" : "") +
        " in " + std::to_string(job.run_seconds) + " s");
    job.finish(RunState::Done, api::to_json(record));
  } catch (const std::exception& err) {
    job.run_seconds = seconds_since(t0);
    log("failed " + job.id + ": " + err.what());
    job.finish(RunState::Failed, err.what());
  }
}

void Server::log(const std::string& line) const {
  if (options_.verbose) std::fprintf(stderr, "unsnapd: %s\n", line.c_str());
}

}  // namespace unsnap::serve

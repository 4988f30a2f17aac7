// serve_mixed: an in-process unsnapd (serve::Server on a Unix socket, 2
// workers x 1-thread runs) driven closed-loop by serve::Client connections,
// one daemon handler thread per connection.

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = unsnap::serve;
using unsnap::util::JsonValue;

namespace {

// More clients than workers, so a queue forms; one handler per client, so
// no client waits for another's session (handlers serve a connection for
// its whole life). Clients poll status at a fixed short interval: the
// latencies come from the daemon's own envelope times, and a fixed poll
// keeps the closed loop's pacing the same from job to job.
constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr auto kPoll = std::chrono::milliseconds(2);
// The repository's recorded serve traffic (bench/bench_serve.cpp, tracked
// as BENCH_serve.json) is 6 deck families at a lowering-cache hit rate of
// 0.95. Every block of 20 jobs here holds each family 3 times, one more
// seeded repeat and one unique deck: 19 hits and 1 miss, the same 0.95.
constexpr int kBlock = 20;
constexpr int kRepeatsPerFamily = 3;
static_assert(kServeFamilies * kRepeatsPerFamily + 2 == kBlock);
// Daemon set-ups sampled per run.
constexpr int kSetups = 20;

struct JobPlan {
  int family = 0;
  unsigned long long shuffle_seed = 1;
  bool unique = false;
};

unsigned long long family_seed(unsigned long long seed, int family) {
  return 1 + mix_seed(seed, "serve-family", static_cast<unsigned>(family)) %
                 1000000;
}

/// Job `index` of the seeded sequence: each block of kBlock jobs holds
/// every family kRepeatsPerFamily times, one repeat of a seeded family and
/// one unique deck, in seeded order. The unique decks take the families in
/// turn, so the lowerings the cache holds -- most of the daemon's memory
/// -- are the same mix on every seed; each has a seeded shuffle seed that
/// no other deck uses.
JobPlan plan_job(unsigned long long seed, long index) {
  const auto block = static_cast<unsigned long long>(index / kBlock);
  std::mt19937_64 rng(mix_seed(seed, "serve-block", block));
  std::array<JobPlan, kBlock> slots{};
  for (int i = 0; i < kBlock; ++i) {
    JobPlan& p = slots[static_cast<std::size_t>(i)];
    p.unique = i == kBlock - 1;
    p.family = i < kServeFamilies * kRepeatsPerFamily ? i % kServeFamilies
               : p.unique ? static_cast<int>(block % kServeFamilies)
                          : static_cast<int>(rng() % kServeFamilies);
    // Family decks' shuffle seeds are at most 1000000 (family_seed).
    p.shuffle_seed = p.unique ? 1000001 + 1000 * block +
                                    mix_seed(seed, "serve-unique", block) % 999
                              : family_seed(seed, p.family);
  }
  for (int i = kBlock - 1; i > 0; --i)
    std::swap(slots[static_cast<std::size_t>(i)],
              slots[rng() % static_cast<unsigned long long>(i + 1)]);
  return slots[static_cast<std::size_t>(index % kBlock)];
}

struct JobResult {
  JobPlan plan;
  bool ok = false;
  std::string error;
  bool cache_hit = false;
  double queued_s = 0.0, run_s = 0.0;
  double done_at = 0.0;  // when the client saw the terminal state
  double units = 0.0;
  Digest digest;
};

serve::ServerOptions server_options(const std::string& path) {
  serve::ServerOptions options;
  options.unix_path = path;
  options.workers = kWorkers;
  options.thread_budget = kWorkers;
  options.conn_threads = kClients;
  return options;
}

/// Poll `id` until terminal; returns the result envelope.
JsonValue await_result(serve::Client& client, const std::string& id,
                       std::vector<std::pair<double, double>>* polls) {
  while (true) {
    std::this_thread::sleep_for(kPoll);
    const double t0 = now_s();
    const bool terminal = client.status(id).get_bool("terminal");
    if (polls != nullptr) polls->push_back({t0, now_s()});
    if (terminal) return client.result(id);
  }
}

/// One job through the protocol: submit, poll, fetch the envelope. With
/// a span log, the job's spans share its run id: the client round trips,
/// and the envelope's queued/run intervals laid after the submit reply.
JobResult run_job(serve::Client& client, unsigned long long seed, long index,
                  int lane, SpanLog* log) {
  JobResult job;
  job.plan = plan_job(seed, index);
  const Deck deck = serve_deck(job.plan.family, job.plan.shuffle_seed);
  std::vector<std::pair<double, double>> polls;
  const double t_submit = now_s();
  const std::string id = client.submit(deck.text, 0, deck.source);
  const double t_submitted = now_s();
  JsonValue envelope = await_result(client, id, &polls);
  const double t_end = now_s();
  job.done_at = polls.back().second;
  job.cache_hit = envelope.get_bool("cache_hit");
  job.queued_s = envelope.get_number("queued_seconds");
  job.run_s = envelope.get_number("run_seconds");
  const std::string state = envelope.get_string("state");
  if (state != serve::to_string(serve::RunState::Done)) {
    job.error = id + " ended " + state + ": " + envelope.get_string("error");
  } else {
    job.digest = digest_of(envelope.at("record"));
    job.units = work_units(envelope.at("record"));
    job.ok = true;
  }
  if (log != nullptr) {
    const int parent = log->add("serve.job", t_submit, t_end, 0, id, lane);
    log->add("serve.submit", t_submit, t_submitted, parent, id, lane);
    for (const auto& [t0, t1] : polls)
      log->add("serve.status", t0, t1, parent, id, lane);
    log->add("serve.result", polls.back().second, t_end, parent, id, lane);
    const double q0 = t_submitted, q1 = q0 + job.queued_s;
    log->add("serve.queued", q0, q1, parent, id, lane);
    log->add("serve.run", q1, q1 + job.run_s, parent, id, lane);
  }
  return job;
}

/// The closed loop: kClients threads, each submitting its next job only
/// after the previous one's envelope is in hand, until `seconds` pass.
std::vector<JobResult> closed_loop(const std::string& path,
                                   unsigned long long seed, double seconds,
                                   std::atomic<long>& next, SpanLog* log,
                                   double& t_start) {
  std::vector<JobResult> jobs;
  std::mutex mu;
  t_start = now_s();
  const double deadline = t_start + seconds;
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        try {
          serve::Client client = serve::Client::connect_unix(path);
          while (now_s() < deadline) {
            JobResult job = run_job(client, seed, next++, c + 1, log);
            std::lock_guard lock(mu);
            jobs.push_back(std::move(job));
          }
        } catch (const std::exception& err) {
          JobResult job;
          job.error = std::string("client: ") + err.what();
          std::lock_guard lock(mu);
          jobs.push_back(std::move(job));
        }
      });
  }
  return jobs;
}

/// Start a daemon and submit one cold deck of every family, returning
/// when all are done: the daemon's set-up as a user pays it.
double setup_daemon(const std::string& path, unsigned long long seed,
                    std::unique_ptr<serve::Server>& server, Outcome& out) {
  server.reset();
  const double t0 = now_s();
  server = std::make_unique<serve::Server>(server_options(path));
  server->start();
  serve::Client client = serve::Client::connect_unix(path);
  std::vector<std::string> ids;
  for (int f = 0; f < kServeFamilies; ++f) {
    const Deck deck = serve_deck(f, family_seed(seed, f));
    ids.push_back(client.submit(deck.text, 0, deck.source));
  }
  for (const std::string& id : ids) {
    ++out.attempted;
    const JsonValue envelope = await_result(client, id, nullptr);
    if (envelope.get_string("state") != serve::to_string(serve::RunState::Done)) {
      ++out.failed;
      out.note("set-up job " + id + " failed: " + envelope.get_string("error"));
    }
  }
  return now_s() - t0;
}

/// Gate every served job against the same deck run directly (in this
/// process, after the daemon stopped): the digests must be equal.
void verify(std::vector<JobResult>& jobs, Outcome& out) {
  std::map<std::pair<int, unsigned long long>, std::size_t> index;
  std::vector<JobPlan> decks;
  for (const JobResult& job : jobs) {
    const auto key = std::make_pair(job.plan.family, job.plan.shuffle_seed);
    if (job.ok && index.emplace(key, decks.size()).second)
      decks.push_back(job.plan);
  }
  std::vector<Digest> direct(decks.size());
  std::vector<std::string> errors(decks.size());
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < kClients; ++t)
      pool.emplace_back([&] {
        for (std::size_t i = next++; i < decks.size(); i = next++) {
          try {
            const Deck deck = serve_deck(decks[i].family, decks[i].shuffle_seed);
            direct[i] = digest_of(unsnap::util::json_parse(solve_once(deck).json));
          } catch (const std::exception& err) {
            errors[i] = err.what();
          }
        }
      });
  }
  for (JobResult& job : jobs) {
    ++out.attempted;
    if (!job.ok) {
      ++out.failed;
      out.note("job failed: " + job.error);
      continue;
    }
    const std::size_t i =
        index.at(std::make_pair(job.plan.family, job.plan.shuffle_seed));
    std::vector<std::string> fails =
        errors[i].empty() ? check_equal(job.digest, direct[i])
                          : std::vector<std::string>{"direct run threw: " + errors[i]};
    if (!fails.empty()) {
      ++out.failed;
      job.ok = false;
      for (const std::string& f : fails) out.note("gate: served job: " + f);
    }
  }
  out.note("served decks verified against direct runs: " +
           std::to_string(decks.size()));
}

std::vector<double> latencies(const std::vector<JobResult>& jobs) {
  std::vector<double> out;
  for (const JobResult& job : jobs)
    if (job.ok) out.push_back(job.queued_s + job.run_s);
  return out;
}

std::string socket_path(const Args& args) {
  return args.workdir + "/serve-" + std::to_string(::getpid()) + ".sock";
}

}  // namespace

Outcome run_serve(const Args& args) {
  Outcome out;
  const std::string path = socket_path(args);
  std::unique_ptr<serve::Server> server;
  (void)setup_daemon(path, args.seed, server, out);
  std::atomic<long> next{0};
  double t_start = 0.0;
  std::vector<JobResult> jobs =
      closed_loop(path, args.seed, args.seconds, next, nullptr, t_start);
  // The sampled set-ups come after the loop, in a process whose memory and
  // code are warm: set-ups at process start ran up to twice as long for
  // the first second or so, in some runs and not in others.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i)
    setups.push_back(setup_daemon(path, args.seed, server, out));
  server.reset();
  std::filesystem::remove(path);
  verify(jobs, out);
  out.note_samples("daemon set-ups (ms)", setups, 1e3);

  long completed = 0, sweeps = 0, served = 0;
  std::vector<double> grinds;
  for (const JobResult& job : jobs) {
    if (!job.ok) continue;
    ++served;
    sweeps += job.digest.sweeps;
    if (job.done_at <= t_start + args.seconds) ++completed;
    if (job.cache_hit) grinds.push_back(job.run_s / job.units * 1e9);
  }
  const std::vector<double> lat = latencies(jobs);
  out.note("jobs served: " + std::to_string(served) + " (latency samples " +
           std::to_string(lat.size()) + ", cache-hit grind samples " +
           std::to_string(grinds.size()) + ")");
  out.add("wall_s", median(lat), "s");
  out.add("latency_p90_s", quantile(lat, 0.9), "s");
  out.add("throughput_runs_per_s", static_cast<double>(completed) / args.seconds,
          "1/s");
  out.add("setup_s", median(setups), "s");
  out.add("sweeps",
          served > 0 ? static_cast<double>(sweeps) / static_cast<double>(served)
                     : 0.0,
          "count");
  out.add("grind_ns", median(grinds), "ns");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  return out;
}

Outcome trace_serve(const Args& args, SpanLog& log) {
  Outcome out;
  LayerValues v;
  const std::string path = socket_path(args);
  std::unique_ptr<serve::Server> server;
  (void)setup_daemon(path, args.seed, server, out);
  std::atomic<long> next{0};
  double t_start = 0.0;
  // Untraced then traced halves of the same job sequence: their latency
  // medians give obs.overhead_frac; only the traced half feeds the layers.
  std::vector<JobResult> plain =
      closed_loop(path, args.seed, args.seconds / 2.0, next, nullptr, t_start);
  std::vector<JobResult> traced =
      closed_loop(path, args.seed, args.seconds / 2.0, next, &log, t_start);
  server.reset();
  std::filesystem::remove(path);
  verify(plain, out);
  verify(traced, out);

  std::vector<double> queued, hit_runs, miss_runs;
  long hits = 0, served = 0;
  for (const JobResult& job : traced) {
    if (!job.ok) continue;
    ++served;
    queued.push_back(job.queued_s);
    (job.cache_hit ? hit_runs : miss_runs).push_back(job.run_s);
    hits += job.cache_hit ? 1 : 0;
  }
  std::vector<double> rpc;
  for (const char* op : {"serve.submit", "serve.status", "serve.result"})
    for (const double d : log.durations(op)) rpc.push_back(d);
  v.set("serve.queue_p50_s", median(queued));
  v.set("serve.run_hit_p50_s", median(hit_runs));
  v.set("serve.run_miss_p50_s", median(miss_runs));
  v.set("serve.hit_rate",
        served > 0 ? static_cast<double>(hits) / static_cast<double>(served)
                   : 0.0);
  v.set("serve.rpc_s", median(rpc));
  const double plain_p50 = median(latencies(plain));
  v.set("obs.overhead_frac",
        (median(latencies(traced)) - plain_p50) / plain_p50);

  // The solve layers under the daemon, timed on a direct run of one
  // family deck (the daemon runs the same api::Run path per job).
  const Deck family = serve_deck(0, family_seed(args.seed, 0));
  (void)probe_solve_layers(family, family, log, v);
  v.set("core.thread_eff", 1.0);
  out.note("solve layers measured on a direct run of serve family 0");
  v.finish(log, out);
  return out;
}

}  // namespace perfbench

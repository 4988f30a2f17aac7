// The serve subsystem: deck-digest normalization, the LRU lowering
// cache, the thread-budget scheduler, and the unsnapd server + client
// end to end over a Unix-domain socket.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/run.hpp"
#include "api/run_config.hpp"
#include "core/preassembly.hpp"
#include "core/transport_solver.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "util/assert.hpp"
#include "util/json_parse.hpp"
#include "util/socket.hpp"
#include "util/threads.hpp"

namespace unsnap {
namespace {

/// A deck small enough (4^3 x 2 angles x 1 group, fixed 2+1 iterations)
/// that a serialised battery of them finishes in well under a second.
std::string tiny_deck(int dims, int nang, const std::string& extra = {}) {
  return "[mesh]\ndims = " + std::to_string(dims) + " " +
         std::to_string(dims) + " " + std::to_string(dims) +
         "\n[angular]\nnang = " + std::to_string(nang) +
         "\n[materials]\nng = 1\n"
         "[iteration]\niitm = 2\noitm = 1\nfixed_iterations = true\n" +
         extra;
}

// --- deck digest normalization --------------------------------------------

TEST(DeckDigest, CommentWhitespaceAndKeyOrderInvariant) {
  const std::string canonical =
      "[mesh]\ndims = 4 4 4\norder = 1\n[angular]\nnang = 2\n";
  const std::string noisy =
      "# a comment\n"
      "[mesh]\n"
      "order   =  1      ! trailing comment\n"
      "dims=4   4 4\n"
      "\n"
      "[angular]\n"
      "nang = 2\n";
  const auto a = api::read_deck_text(canonical);
  const auto b = api::read_deck_text(noisy);
  EXPECT_EQ(serve::normalized_deck(a), serve::normalized_deck(b));
  EXPECT_EQ(serve::deck_digest(a), serve::deck_digest(b));
}

TEST(DeckDigest, TitleAndOutputRoutingDoNotChangeTheKey) {
  const auto plain = api::read_deck_text(tiny_deck(4, 2));
  const auto dressed = api::read_deck_text(
      tiny_deck(4, 2,
                "[run]\ntitle = same physics, different label\n"
                "[output]\nverbose = true\nreport = false\n"));
  EXPECT_EQ(serve::deck_digest(plain), serve::deck_digest(dressed));
}

TEST(DeckDigest, PhysicsChangesChangeTheKey) {
  const auto base = api::read_deck_text(tiny_deck(4, 2));
  EXPECT_NE(serve::deck_digest(base),
            serve::deck_digest(api::read_deck_text(tiny_deck(5, 2))));
  EXPECT_NE(serve::deck_digest(base),
            serve::deck_digest(api::read_deck_text(tiny_deck(4, 3))));
  EXPECT_NE(serve::deck_digest(base),
            serve::deck_digest(api::read_deck_text(
                tiny_deck(4, 2, "[run]\nmode = schedule\n"))));
}

TEST(DeckDigest, HexRendersAllSixteenDigits) {
  EXPECT_EQ(serve::digest_hex(0x1ull), "0000000000000001");
  EXPECT_EQ(serve::digest_hex(0xdeadbeefcafef00dull), "deadbeefcafef00d");
  EXPECT_EQ(serve::fnv1a64(""), 0xcbf29ce484222325ull);
}

// --- lowering cache --------------------------------------------------------

std::shared_ptr<const core::Discretization> lower(const std::string& deck) {
  return std::make_shared<const core::Discretization>(
      api::read_deck_text(deck).to_input());
}

TEST(LoweringCache, HitMissAndLruEviction) {
  serve::LoweringCache cache(2);
  const auto d1 = lower(tiny_deck(4, 2));
  EXPECT_FALSE(cache.lookup(1, "k1").has_value());  // miss
  cache.insert(1, "k1", {d1, nullptr});
  const auto hit = cache.lookup(1, "k1");  // hit
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->disc, d1);
  EXPECT_EQ(hit->pre, nullptr);
  cache.insert(2, "k2", {d1, nullptr});
  (void)cache.lookup(1, "k1");       // refresh 1: now 2 is least recent
  cache.insert(3, "k3", {d1, nullptr});  // evicts 2
  EXPECT_TRUE(cache.lookup(1, "k1").has_value());
  EXPECT_FALSE(cache.lookup(2, "k2").has_value());
  EXPECT_TRUE(cache.lookup(3, "k3").has_value());
  // Counted lookups: miss(1), hit(1), refresh hit(1), post-eviction
  // probes hit(1) + miss(2) + hit(3)... -> 4 hits, 2 misses in total.
  const serve::LoweringCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(LoweringCache, DigestCollisionIsAMissNeverAWrongHit) {
  serve::LoweringCache cache(2);
  const auto d1 = lower(tiny_deck(4, 2));
  const auto d2 = lower(tiny_deck(5, 2));
  cache.insert(7, "deck-a", {d1, nullptr});
  // Same digest, different normalized deck (an FNV-1a collision): the
  // stored key is verified on lookup, so this is a miss — the wrong
  // lowering is never handed out. The original entry is intact.
  EXPECT_FALSE(cache.lookup(7, "deck-b").has_value());
  EXPECT_EQ(cache.lookup(7, "deck-a")->disc, d1);
  // Inserting the collider replaces the entry (counted as an eviction).
  cache.insert(7, "deck-b", {d2, nullptr});
  EXPECT_FALSE(cache.lookup(7, "deck-a").has_value());
  EXPECT_EQ(cache.lookup(7, "deck-b")->disc, d2);
  const serve::LoweringCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LoweringCache, BundleCarriesThePreassembledOperator) {
  serve::LoweringCache cache(1);
  const auto config = api::read_deck_text(tiny_deck(4, 2));
  const auto disc = lower(tiny_deck(4, 2));
  core::TransportSolver solver(disc, config.to_input());
  solver.enable_preassembly();
  const auto pre = solver.shared_preassembly();
  ASSERT_NE(pre, nullptr);

  cache.insert(1, "k1", {disc, pre});
  const auto hit = cache.lookup(1, "k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->disc, disc);
  EXPECT_EQ(hit->pre, pre);  // the exact operator, not a rebuild

  // LRU eviction (capacity 1) releases the bundle's reference to the
  // operator along with the discretisation's.
  const long before = pre.use_count();
  cache.insert(2, "k2", {disc, nullptr});
  EXPECT_FALSE(cache.lookup(1, "k1").has_value());
  EXPECT_LT(pre.use_count(), before);
}

// --- scheduler -------------------------------------------------------------

std::shared_ptr<serve::Job> make_job(const std::string& id, int threads,
                                     int priority, long sequence) {
  auto job = std::make_shared<serve::Job>();
  job->id = id;
  job->threads = threads;
  job->priority = priority;
  job->sequence = sequence;
  return job;
}

TEST(Scheduler, BudgetNeverOversubscribedAndSmallJobsBypass) {
  serve::Scheduler sched(4);
  const auto a = make_job("a", 3, 0, 0);
  const auto b = make_job("b", 3, 0, 1);
  const auto c = make_job("c", 1, 0, 2);
  sched.submit(a);
  sched.submit(b);
  sched.submit(c);
  // a dispatches first (FIFO); b does not fit the remaining single
  // thread, so c bypasses it rather than idling the pool.
  EXPECT_EQ(sched.acquire(), a);
  EXPECT_EQ(sched.acquire(), c);
  serve::Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.threads_in_use, 4);
  EXPECT_EQ(stats.peak_threads, 4);
  EXPECT_EQ(stats.queued, 1);
  sched.release(*a);
  sched.release(*c);
  EXPECT_EQ(sched.acquire(), b);  // kept its place, dispatches when it fits
  sched.release(*b);
  stats = sched.stats();
  EXPECT_EQ(stats.threads_in_use, 0);
  EXPECT_EQ(stats.peak_threads, 4);  // never above the budget
}

TEST(Scheduler, PriorityBeatsSubmitOrder) {
  serve::Scheduler sched(1);
  const auto low = make_job("low", 1, 0, 0);
  const auto high = make_job("high", 1, 5, 1);
  const auto mid = make_job("mid", 1, 1, 2);
  sched.submit(low);
  sched.submit(high);
  sched.submit(mid);
  for (const auto& expected : {high, mid, low}) {
    const auto job = sched.acquire();
    EXPECT_EQ(job, expected);
    EXPECT_EQ(job->state.load(), serve::RunState::Running);
    sched.release(*job);
  }
}

TEST(Scheduler, RejectsJobsWiderThanTheBudget) {
  serve::Scheduler sched(2);
  EXPECT_THROW(sched.submit(make_job("wide", 3, 0, 0)), InvalidInput);
}

TEST(Scheduler, CancelDequeuesOnlyQueuedJobs) {
  serve::Scheduler sched(1);
  const auto a = make_job("a", 1, 0, 0);
  const auto b = make_job("b", 1, 0, 1);
  sched.submit(a);
  sched.submit(b);
  EXPECT_EQ(sched.acquire(), a);  // a is running now
  EXPECT_FALSE(sched.cancel("a"));
  EXPECT_TRUE(sched.cancel("b"));
  EXPECT_EQ(b->state.load(), serve::RunState::Cancelled);
  b->wait_terminal();  // already terminal: returns immediately
  EXPECT_FALSE(sched.cancel("b"));
  sched.release(*a);
}

TEST(Scheduler, SoakMixedPrioritiesAndWidthsNeverOversubscribeOrStarve) {
  // Several hundred mixed submissions through real worker threads: the
  // ledger must never exceed the budget, every job must reach a terminal
  // state (no starvation even for priority-0 one-thread jobs behind
  // higher-priority wide ones), and cancel-during-queue is always
  // terminal.
  constexpr int kBudget = 4;
  constexpr int kJobs = 320;
  serve::Scheduler sched(kBudget);

  std::atomic<int> executed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kBudget; ++w)
    workers.emplace_back([&] {
      while (const auto job = sched.acquire()) {
        EXPECT_EQ(job->state.load(), serve::RunState::Running);
        EXPECT_LE(sched.stats().threads_in_use, kBudget);
        job->finish(serve::RunState::Done, "{}");
        sched.release(*job);
        executed.fetch_add(1);
      }
    });

  // Deterministic mixed battery: priorities 0..4, widths 1..kBudget,
  // every 7th job cancelled immediately after submission.
  std::vector<std::shared_ptr<serve::Job>> jobs;
  std::vector<bool> cancelled(kJobs, false);
  for (int i = 0; i < kJobs; ++i) {
    const auto job = make_job("soak-" + std::to_string(i),
                              1 + (i * 3) % kBudget, (i * 5) % 5, i);
    jobs.push_back(job);
    sched.submit(job);
    if (i % 7 == 0) {
      // cancel() returns false if the job already dispatched; when it
      // returns true the job must be terminally Cancelled at once.
      cancelled[static_cast<std::size_t>(i)] = sched.cancel(job->id);
      if (cancelled[static_cast<std::size_t>(i)]) {
        EXPECT_EQ(job->state.load(), serve::RunState::Cancelled);
        EXPECT_TRUE(job->terminal());
        // A second cancel of a terminal job is a no-op, never a revival.
        EXPECT_FALSE(sched.cancel(job->id));
      }
    }
  }

  // Every surviving job drains: wait_terminal returning IS the
  // no-starvation assertion (a starved job would hang the test).
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i]->wait_terminal();
    EXPECT_EQ(jobs[i]->state.load(), cancelled[i]
                                         ? serve::RunState::Cancelled
                                         : serve::RunState::Done)
        << jobs[i]->id;
  }
  sched.shutdown();
  for (std::thread& t : workers) t.join();

  const serve::Scheduler::Stats stats = sched.stats();
  EXPECT_LE(stats.peak_threads, kBudget);
  EXPECT_EQ(stats.threads_in_use, 0);
  EXPECT_EQ(stats.queued, 0);
  int expected = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (!cancelled[i]) ++expected;
  EXPECT_EQ(executed.load(), expected);
}

TEST(Scheduler, ShutdownCancelsQueueAndStopsWorkers) {
  serve::Scheduler sched(1);
  const auto a = make_job("a", 1, 0, 0);
  sched.submit(a);
  sched.shutdown();
  EXPECT_EQ(a->state.load(), serve::RunState::Cancelled);
  EXPECT_EQ(sched.acquire(), nullptr);
  EXPECT_THROW(sched.submit(make_job("late", 1, 0, 1)), InvalidInput);
}

// --- server + client end to end -------------------------------------------

std::string test_socket_path(const char* name) {
  return testing::TempDir() + "unsnapd-" + name + "-" +
         std::to_string(::getpid()) + ".sock";
}

TEST(Server, ConcurrentMixedDecksAllCompleteWithinBudget) {
  const std::string path = test_socket_path("mixed");
  serve::ServerOptions options;
  options.unix_path = path;
  options.workers = 2;
  options.conn_threads = 2;
  serve::Server server(options);
  server.start();

  // Eight concurrent submissions from four client threads, mixing three
  // problem families (two of each -> at least one duplicate per family).
  const std::vector<std::string> decks = {
      tiny_deck(4, 2), tiny_deck(5, 2), tiny_deck(4, 2, "[run]\nmode = mms\n"),
      tiny_deck(4, 3)};
  std::vector<std::thread> clients;
  std::vector<serve::RunState> states(8, serve::RunState::Queued);
  for (int t = 0; t < 4; ++t)
    clients.emplace_back([&, t] {
      serve::Client client = serve::Client::connect_unix(path);
      for (int i = 0; i < 2; ++i) {
        const int slot = t * 2 + i;
        const std::string id =
            client.submit(decks[static_cast<std::size_t>(slot % 4)]);
        states[static_cast<std::size_t>(slot)] = client.await_terminal(id);
      }
    });
  for (std::thread& t : clients) t.join();
  for (const serve::RunState state : states)
    EXPECT_EQ(state, serve::RunState::Done);

  const serve::Scheduler::Stats sched = server.scheduler_stats();
  EXPECT_LE(sched.peak_threads, server.thread_budget());
  EXPECT_EQ(sched.threads_in_use, 0);
  // Four problem families over eight runs: the cache holds one lowering
  // per family. (Exact hit counts depend on how duplicates interleave on
  // wider machines; the dedicated duplicate test pins them down.)
  const serve::LoweringCache::Stats cache = server.cache_stats();
  EXPECT_EQ(cache.entries, 4u);
  EXPECT_EQ(cache.hits + cache.misses, 8);
  EXPECT_GE(cache.misses, 4);
  server.stop();
}

TEST(Server, DuplicateSubmissionHitsCacheWithIdenticalFlux) {
  const std::string path = test_socket_path("dup");
  serve::ServerOptions options;
  options.unix_path = path;
  options.workers = 1;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix(path);
  const std::string deck = tiny_deck(4, 2);
  const std::string first = client.submit(deck);
  ASSERT_EQ(client.await_terminal(first), serve::RunState::Done);
  const std::string second = client.submit(deck);
  ASSERT_EQ(client.await_terminal(second), serve::RunState::Done);

  const util::JsonValue r1 = client.result(first);
  const util::JsonValue r2 = client.result(second);
  EXPECT_FALSE(r1.get_bool("cache_hit"));
  EXPECT_TRUE(r2.get_bool("cache_hit"));
  EXPECT_EQ(r1.get_string("digest"), r2.get_string("digest"));
  // The golden contract: a cache hit changes setup time only, never the
  // answer — bitwise-identical flux digests (doubles compare exactly).
  ASSERT_NE(r1.at("record").find("flux"), nullptr);
  EXPECT_EQ(r1.at("record").at("flux"), r2.at("record").at("flux"));
  EXPECT_EQ(r1.at("record").at("flux").dump(),
            r2.at("record").at("flux").dump());
  server.stop();
}

TEST(Server, StatusResultAndStatsEnvelopes) {
  const std::string path = test_socket_path("env");
  serve::ServerOptions options;
  options.unix_path = path;
  options.workers = 1;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix(path);
  EXPECT_TRUE(client.ping());
  const std::string id = client.submit(tiny_deck(4, 2), 3);
  ASSERT_EQ(client.await_terminal(id), serve::RunState::Done);

  const util::JsonValue status = client.status(id);
  EXPECT_EQ(status.get_string("id"), id);
  EXPECT_EQ(status.get_string("state"), "done");
  EXPECT_TRUE(status.get_bool("terminal"));
  EXPECT_EQ(status.get_int("priority"), 3);
  EXPECT_GE(status.at("progress").get_int("inners"), 1);

  const util::JsonValue result = client.result(id);
  EXPECT_GE(result.get_number("run_seconds"), 0.0);
  EXPECT_GE(result.get_number("queued_seconds"), 0.0);
  const util::JsonValue& record = result.at("record");
  EXPECT_EQ(record.get_string("mode"), "solve");
  EXPECT_NE(record.find("iteration"), nullptr);

  const util::JsonValue stats = client.stats();
  EXPECT_EQ(stats.at("runs").get_int("submitted"), 1);
  EXPECT_EQ(stats.at("runs").get_int("completed"), 1);
  EXPECT_EQ(stats.at("scheduler").get_int("total_threads"),
            server.thread_budget());
  EXPECT_EQ(stats.at("cache").get_int("misses"), 1);
  server.stop();
}

TEST(Server, StatsCarriesUptimeAndPerOpCounters) {
  const std::string path = test_socket_path("ops");
  serve::ServerOptions options;
  options.unix_path = path;
  options.workers = 1;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix(path);
  EXPECT_TRUE(client.ping());
  const std::string id = client.submit(tiny_deck(4, 2));
  ASSERT_EQ(client.await_terminal(id), serve::RunState::Done);
  EXPECT_THROW((void)client.status("run-9999"), InvalidInput);

  const util::JsonValue stats = client.stats();
  EXPECT_GE(stats.get_number("uptime_seconds"), 0.0);
  // Everything this test sent is accounted per op, including the failed
  // status lookup — as an error, not a request.
  EXPECT_EQ(stats.at("requests").get_int("ping"), 1);
  EXPECT_EQ(stats.at("requests").get_int("submit"), 1);
  EXPECT_GE(stats.at("requests").get_int("status"), 1);
  EXPECT_EQ(stats.at("requests").get_int("shutdown"), 0);
  EXPECT_EQ(stats.at("request_errors").get_int("status"), 1);
  EXPECT_EQ(stats.at("request_errors").get_int("submit"), 0);
  // One completed run -> one queue-wait and one run-seconds observation.
  const util::JsonValue& latency = stats.at("latency");
  EXPECT_EQ(latency.at("queue_wait").get_int("count"), 1);
  EXPECT_GE(latency.at("queue_wait").get_number("p95_seconds"), 0.0);
  EXPECT_EQ(latency.at("run_seconds").get_int("count"), 1);
  EXPECT_GE(latency.at("run_seconds").get_number("sum_seconds"), 0.0);
  server.stop();
}

TEST(Server, MetricsOpReturnsPrometheusText) {
  const std::string path = test_socket_path("prom");
  serve::ServerOptions options;
  options.unix_path = path;
  options.workers = 1;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix(path);
  const std::string id = client.submit(tiny_deck(4, 2));
  ASSERT_EQ(client.await_terminal(id), serve::RunState::Done);

  const std::string text = client.metrics();
  // A real exposition: HELP/TYPE headers, per-op counter series, scrape
  // time gauges, histogram buckets with cumulative-le labels.
  EXPECT_NE(text.find("# HELP unsnapd_requests_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE unsnapd_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("unsnapd_requests_total{op=\"submit\"}"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE unsnapd_uptime_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("unsnapd_runs{state=\"completed\"}"),
            std::string::npos);
  EXPECT_NE(text.find("unsnapd_scheduler_queue_wait_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("unsnapd_run_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("unsnapd_socket_frame_bytes_sum"), std::string::npos);
  // The solver's own instruments flow into the same registry.
  EXPECT_NE(text.find("unsnap_sweeps_total"), std::string::npos);

  // The envelope self-reports its series count; the acceptance floor for
  // a useful exposition is >= 10 series.
  const util::JsonValue response = client.metrics_envelope();
  EXPECT_TRUE(response.get_bool("ok"));
  EXPECT_GE(response.get_int("series"), 10);
  EXPECT_GE(response.get_number("uptime_seconds"), 0.0);
  server.stop();
}

TEST(Server, RejectsBadDecksUnknownIdsAndWideThreadRequests) {
  const std::string path = test_socket_path("rej");
  serve::ServerOptions options;
  options.unix_path = path;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix(path);
  // Deck errors surface with the submit-side location prefix.
  EXPECT_THROW((void)client.submit("[mesh]\ndims = 0 0 0\n"), InvalidInput);
  EXPECT_THROW((void)client.status("run-9999"), InvalidInput);
  // A deck over the hardware thread count is rejected at validation.
  const int over = util::hardware_threads() + 1;
  EXPECT_THROW(
      (void)client.submit(tiny_deck(
          4, 2, "[execution]\nthreads = " + std::to_string(over) + "\n")),
      InvalidInput);
  // The connection survives rejected requests.
  EXPECT_TRUE(client.ping());
  server.stop();
}

TEST(Server, ResultBeforeTerminalIsRejected) {
  const std::string path = test_socket_path("early");
  serve::ServerOptions options;
  options.unix_path = path;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix(path);
  const std::string id = client.submit(tiny_deck(6, 4));
  // Fetching the result while the run is queued or running is a protocol
  // error ("poll status first"), not a blocking wait.
  EXPECT_THROW((void)client.result(id), InvalidInput);
  ASSERT_EQ(client.await_terminal(id), serve::RunState::Done);
  EXPECT_TRUE(client.result(id).get_bool("ok"));
  server.stop();
}

TEST(Server, RejectedSubmitLeavesNoZombieJob) {
  if (util::hardware_threads() < 2)
    GTEST_SKIP() << "needs a deck wider than a 1-thread budget yet within "
                    "the hardware";
  const std::string path = test_socket_path("zombie");
  serve::ServerOptions options;
  options.unix_path = path;
  options.thread_budget = 1;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix(path);
  // threads = 2 passes deck validation (within the hardware) but exceeds
  // the daemon's 1-thread budget: the scheduler rejects it at submit.
  EXPECT_THROW(
      (void)client.submit(tiny_deck(4, 2, "[execution]\nthreads = 2\n")),
      InvalidInput);
  // The rejected job (it took id run-0000) is deregistered — no
  // never-terminal zombie resolvable by id, no phantom submitted count.
  EXPECT_THROW((void)client.status("run-0000"), InvalidInput);
  EXPECT_EQ(client.stats().at("runs").get_int("submitted"), 0);
  const std::string id = client.submit(tiny_deck(4, 2));
  EXPECT_EQ(id, "run-0001");
  ASSERT_EQ(client.await_terminal(id), serve::RunState::Done);
  EXPECT_EQ(client.stats().at("runs").get_int("submitted"), 1);
  server.stop();
}

TEST(Server, TerminalRunsAreEvictedBeyondTheHistoryCapacity) {
  const std::string path = test_socket_path("hist");
  serve::ServerOptions options;
  options.unix_path = path;
  options.workers = 1;
  options.history_capacity = 1;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix(path);
  const std::string first = client.submit(tiny_deck(4, 2));
  ASSERT_EQ(client.await_terminal(first), serve::RunState::Done);
  EXPECT_TRUE(client.result(first).get_bool("ok"));
  const std::string second = client.submit(tiny_deck(5, 2));
  ASSERT_EQ(client.await_terminal(second), serve::RunState::Done);
  // The completed counter and the history eviction are published under
  // one lock: once stats shows both runs complete, the older id is gone.
  while (client.stats().at("runs").get_int("completed") < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_THROW((void)client.status(first), InvalidInput);
  EXPECT_TRUE(client.result(second).get_bool("ok"));
  server.stop();
}

TEST(Server, StopDoesNotHangOnIdleQueuedConnections) {
  const std::string path = test_socket_path("idle");
  serve::ServerOptions options;
  options.unix_path = path;
  options.conn_threads = 1;
  serve::Server server(options);
  server.start();
  // Park idle connections: the single handler blocks in recv on the
  // first; the rest sit accepted-but-unhandled in the connection queue.
  // stop() must drop the queued ones and unblock the handled one — a
  // handler that picked a queued socket up after the live-fd shutdown
  // pass would otherwise block on its idle client forever.
  std::vector<util::Socket> idle;
  for (int i = 0; i < 8; ++i)
    idle.push_back(util::Socket::connect_unix(path));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.stop();
}

TEST(Server, ScheduleModeVolumetricDeckCarriesTheScaleModel) {
  const std::string path = test_socket_path("scale");
  serve::ServerOptions options;
  options.unix_path = path;
  options.workers = 1;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix(path);
  const std::string id = client.submit(
      tiny_deck(4, 2,
                "[run]\nmode = schedule\n"
                "[decomposition]\npx = 2\npy = 2\npz = 2\n"));
  ASSERT_EQ(client.await_terminal(id), serve::RunState::Done);

  // A schedule-mode deck with a volumetric decomposition returns the
  // simulated pipeline/idle model in its envelope: both octant orderings
  // with the fill/drain/efficiency economics, no solve, no submeshes.
  const util::JsonValue result = client.result(id);
  const util::JsonValue& record = result.at("record");
  EXPECT_EQ(record.get_string("mode"), "schedule");
  EXPECT_EQ(record.find("iteration"), nullptr);
  const util::JsonValue* scale = record.find("scale");
  ASSERT_NE(scale, nullptr);
  EXPECT_EQ(scale->get_int("ranks"), 8);
  EXPECT_EQ(scale->get_int("pz"), 2);
  const std::vector<util::JsonValue>& orderings =
      scale->at("orderings").items();
  ASSERT_EQ(orderings.size(), 2u);
  for (const util::JsonValue& o : orderings) {
    EXPECT_EQ(o.get_int("pipeline_stages"), 4);
    EXPECT_GT(o.get_number("makespan"), 0.0);
    EXPECT_GT(o.get_number("efficiency"), 0.0);
    EXPECT_LE(o.get_number("efficiency"), 1.0);
  }
  server.stop();
}

// --- frame fuzzing: hostile bytes on the wire ------------------------------

/// Write raw bytes (no framing) straight onto a connected socket.
void send_raw(const util::Socket& sock, const void* data, std::size_t len) {
  ASSERT_EQ(::send(sock.fd(), data, len, MSG_NOSIGNAL),
            static_cast<ssize_t>(len));
}

TEST(ServerFuzz, MalformedFramesNeverWedgeOrKillTheDaemon) {
  const std::string path = test_socket_path("fuzz");
  serve::ServerOptions options;
  options.unix_path = path;
  options.workers = 1;
  options.conn_threads = 2;
  serve::Server server(options);
  server.start();

  // 1. Truncated length prefix: two of the four header bytes, then gone.
  {
    util::Socket sock = util::Socket::connect_unix(path);
    const unsigned char half[2] = {0x00, 0x00};
    send_raw(sock, half, sizeof half);
  }
  // 2. Declared length over the 64 MiB frame cap: the connection must be
  //    dropped before any allocation of that size.
  {
    util::Socket sock = util::Socket::connect_unix(path);
    const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
    send_raw(sock, huge, sizeof huge);
    EXPECT_EQ(sock.recv_frame(), std::nullopt);  // closed, no reply
  }
  // 3. Garbage non-JSON payload in a well-formed frame: a clean error
  //    envelope on THIS connection, which stays usable afterwards.
  {
    util::Socket sock = util::Socket::connect_unix(path);
    sock.send_frame("\x01\x02 this is not json {{{");
    const std::optional<std::string> reply = sock.recv_frame();
    ASSERT_TRUE(reply.has_value());
    const util::JsonValue envelope = util::json_parse(*reply);
    EXPECT_FALSE(envelope.get_bool("ok"));
    EXPECT_FALSE(envelope.get_string("error").empty());
    sock.send_frame("{\"op\":\"ping\"}");
    const std::optional<std::string> pong = sock.recv_frame();
    ASSERT_TRUE(pong.has_value());
    EXPECT_TRUE(util::json_parse(*pong).get_bool("ok"));
  }
  // 4. Mid-frame disconnect: a plausible header, a fraction of the
  //    payload, then a vanished peer.
  {
    util::Socket sock = util::Socket::connect_unix(path);
    const unsigned char header[4] = {0x00, 0x00, 0x01, 0x00};  // 256 bytes
    send_raw(sock, header, sizeof header);
    send_raw(sock, "{\"op\":\"sub", 10);
  }
  // 5. Zero-length frame: an empty payload is a parse error, not a crash.
  {
    util::Socket sock = util::Socket::connect_unix(path);
    const unsigned char zero[4] = {0x00, 0x00, 0x00, 0x00};
    send_raw(sock, zero, sizeof zero);
    const std::optional<std::string> reply = sock.recv_frame();
    if (reply.has_value())
      EXPECT_FALSE(util::json_parse(*reply).get_bool("ok"));
  }

  // After every abuse pattern the daemon still serves real work on a
  // fresh connection — nothing wedged, nothing died.
  serve::Client client = serve::Client::connect_unix(path);
  EXPECT_TRUE(client.ping());
  const std::string id = client.submit(tiny_deck(4, 2));
  EXPECT_EQ(client.await_terminal(id), serve::RunState::Done);
  server.stop();
}

// --- socket framing --------------------------------------------------------

TEST(SocketFraming, SendingToAClosedPeerThrowsInsteadOfRaisingSigpipe) {
  const std::string path = test_socket_path("pipe");
  util::Socket listener = util::Socket::listen_unix(path);
  util::Socket client = util::Socket::connect_unix(path);
  (void)listener.accept_connection();  // accepted socket dropped -> closed
  // Without MSG_NOSIGNAL this send raises SIGPIPE, whose default action
  // kills the whole process (the daemon, were this its reply path). It
  // must instead surface as EPIPE -> InvalidInput on this connection.
  EXPECT_THROW(client.send_frame("{\"op\":\"ping\"}"), InvalidInput);
}

// --- FILE*-parameterised renderers ----------------------------------------

TEST(RunReport, RenderersWriteToTheGivenStream) {
  api::RunConfig config = api::read_deck_text(tiny_deck(4, 2));
  api::Run run(std::move(config));
  const api::RunRecord record = run.execute();

  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  api::print_run_report(record, stream);
  std::fclose(stream);
  const std::string text(buffer, size);
  free(buffer);
  EXPECT_NE(text.find("config:"), std::string::npos);
  EXPECT_NE(text.find("sweep schedules"), std::string::npos);
  EXPECT_NE(text.find("particle balance"), std::string::npos);
  EXPECT_NE(text.find("group   <phi>"), std::string::npos);
}

}  // namespace
}  // namespace unsnap

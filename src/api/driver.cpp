#include "api/driver.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "api/run_config.hpp"
#include "api/scenario.hpp"
#include "api/version.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace unsnap::api {

namespace {

void print_usage() {
  std::printf(
      "unsnap — declarative scenario and deck driver for the UnSNAP "
      "mini-app\n\n"
      "usage:\n"
      "  unsnap --deck run.inp [--json out.json] [--trace trace.json]\n"
      "                        [--quiet] [--verbose]\n"
      "                                     run a SNAP-style input deck\n"
      "                                     (--trace writes a Chrome-trace\n"
      "                                     timeline; docs/OBSERVABILITY.md)\n"
      "  unsnap --dump-deck [--deck run.inp]\n"
      "                                     print the (default) deck,\n"
      "                                     normalised, without running\n"
      "  unsnap --list                      list registered scenarios\n"
      "  unsnap --scenario <name> [opts]    run one scenario over its twin\n"
      "                                     deck, or the one --deck names\n"
      "  unsnap --scenario <name> --help    show a scenario's options\n"
      "  unsnap --version                   build provenance\n"
      "\ndeck format: docs/DECKS.md; scenario catalog: docs/SCENARIOS.md\n");
}

void list_scenarios() {
  const auto scenarios = ScenarioRegistry::instance().list();
  std::printf("registered scenarios (%zu):\n", scenarios.size());
  for (const Scenario* s : scenarios)
    std::printf("  %-22s %s\n", s->name.c_str(), s->summary.c_str());
  std::printf("\nrun one with: unsnap --scenario <name> [--deck d.inp]\n"
              "or a deck alone with: unsnap --deck decks/<name>.inp\n");
}

int run_scenario(const std::string& name,
                 const std::vector<const char*>& args,
                 const std::string& deck_dir) {
  const Scenario& scenario = ScenarioRegistry::instance().get(name);
  Cli cli("unsnap --scenario " + name, scenario.summary);
  if (scenario.run_deck)
    cli.option("deck", deck_dir + "/" + name + ".inp",
               "the problem deck the study runs");
  if (scenario.declare_options) scenario.declare_options(cli);
  if (!cli.parse(static_cast<int>(args.size()), args.data())) return 0;
  if (!scenario.run_deck) return scenario.run(cli);
  return scenario.run_deck(cli, read_deck_file(cli.get("deck")));
}

struct DeckRequest {
  std::string deck_path;
  std::string json_path;
  std::string trace_path;  // Chrome-trace export; empty = tracing off
  bool dump_only = false;
  bool quiet = false;
  bool verbose = false;
};

/// Probe that `path` is creatable/appendable without clobbering it, so a
/// long solve is not the thing that discovers an unwritable destination.
void require_writable(const std::string& path, const char* what) {
  const bool existed = std::filesystem::exists(path);
  const bool writable = std::ofstream(path, std::ios::app).good();
  if (!existed && !writable) std::remove(path.c_str());
  require(writable, std::string("cannot write ") + what + " to '" + path +
                        "'");
  if (!existed) std::remove(path.c_str());
}

int run_deck(const DeckRequest& request) {
  RunConfig config = request.deck_path.empty()
                         ? RunConfig{}
                         : read_deck_file(request.deck_path);
  if (request.dump_only) {
    std::fputs(write_deck(config).c_str(), stdout);
    return 0;
  }
  if (!request.json_path.empty()) config.output.json_path = request.json_path;
  if (request.quiet) config.output.report = false;
  if (request.verbose) config.output.verbose = true;

  // Probe the output destinations up front: a long solve must not be the
  // thing that discovers an unwritable path. Append mode leaves an
  // existing file's content alone; a file the probe itself created is
  // removed again so an aborted run leaves nothing behind.
  if (const std::string& path = config.output.json_path;
      !path.empty() && path != "-")
    require_writable(path, "JSON");
  if (!request.trace_path.empty())
    require_writable(request.trace_path, "trace");

  // Output hygiene: when the record JSON owns stdout (`--json -`), every
  // human line — progress tracing, the report, the trailing notes — goes
  // to stderr so `unsnap --deck d.inp --json - | jq` always parses.
  std::FILE* log = config.output.json_path == "-" ? stderr : stdout;

  // --trace is a driver concern, not a deck key: the deck describes the
  // problem, and keeping tracing out of RunConfig keeps traced and
  // untraced runs byte-identical at the config/digest level (the serve
  // cache and the golden battery both normalise decks).
  if (!request.trace_path.empty()) obs::Tracer::instance().enable();

  Run run(std::move(config));
  ProgressObserver progress(log);
  if (run.config().output.verbose) run.set_observer(&progress);
  const RunRecord record = run.execute();

  if (!request.trace_path.empty()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.disable();
    const std::vector<obs::TraceEvent> events = tracer.snapshot();
    std::ofstream out(request.trace_path);
    require(out.good(),
            "cannot write trace to '" + request.trace_path + "'");
    out << obs::to_chrome_trace(events) << "\n";
    require(out.good(),
            "failed writing trace to '" + request.trace_path + "'");
    std::fprintf(log, "wrote %s (%zu spans, %llu dropped)\n",
                 request.trace_path.c_str(), events.size(),
                 static_cast<unsigned long long>(tracer.dropped()));
  }

  if (run.config().output.report) {
    if (run.config().output.verbose) std::fprintf(log, "\n");
    print_run_report(record, log);
  }
  if (!run.config().output.json_path.empty()) {
    const std::string& path = run.config().output.json_path;
    if (path == "-") {
      std::fputs(to_json(record).c_str(), stdout);
      std::printf("\n");
    } else {
      std::ofstream out(path);
      require(out.good(), "cannot write JSON to '" + path + "'");
      out << to_json(record) << "\n";
      require(out.good(), "failed writing JSON to '" + path + "'");
      if (run.config().output.report)
        std::fprintf(log, "\nwrote %s\n", path.c_str());
    }
  }
  const bool solved = record.iteration.has_value() &&
                      record.mode != to_string(RunMode::Schedule);
  if (solved && !record.iteration->converged &&
      !run.config().iteration.fixed_iterations)
    return 1;  // converge-to-epsi decks that ran out of budget
  return 0;
}

/// `--key value` / `--key=value` extraction for the driver's own flags.
bool take_value(const std::string& arg, const std::string& key, int argc,
                const char* const* argv, int& i, std::string& out) {
  if (arg == key) {
    require(i + 1 < argc, key + " requires a value");
    out = argv[++i];
    return true;
  }
  if (arg.rfind(key + "=", 0) == 0) {
    out = arg.substr(key.size() + 1);
    require(!out.empty(), key + " requires a value");
    return true;
  }
  return false;
}

}  // namespace

int run_driver(int argc, const char* const* argv,
               const std::string& deck_dir) {
  try {
    std::string scenario_name;
    DeckRequest deck;
    bool deck_mode = false;
    // Scenario args are forwarded verbatim; args[0] stands in for argv[0].
    std::vector<const char*> forwarded{"unsnap"};
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list" || arg == "--list-scenarios") {
        list_scenarios();
        return 0;
      }
      if (arg == "--version") {
        std::printf("%s\n", version_info().summary().c_str());
        return 0;
      }
      if (take_value(arg, "--deck", argc, argv, i, deck.deck_path)) {
        deck_mode = true;
        continue;
      }
      if (take_value(arg, "--json", argc, argv, i, deck.json_path)) {
        deck_mode = true;
        continue;
      }
      if (take_value(arg, "--trace", argc, argv, i, deck.trace_path)) {
        deck_mode = true;
        continue;
      }
      if (arg == "--dump-deck") {
        deck.dump_only = true;
        deck_mode = true;
        continue;
      }
      // Deck-only flags: claiming deck mode here means a misplaced
      // `--verbose --scenario x` errors loudly instead of being
      // silently swallowed (a scenario's own flags go after its name).
      if (arg == "--quiet") {
        deck.quiet = true;
        deck_mode = true;
        continue;
      }
      if (arg == "--verbose") {
        deck.verbose = true;
        deck_mode = true;
        continue;
      }
      if (arg == "--scenario" || arg.rfind("--scenario=", 0) == 0) {
        if (arg == "--scenario") {
          require(i + 1 < argc, "--scenario requires a name");
          scenario_name = argv[++i];
        } else {
          scenario_name = arg.substr(std::string("--scenario=").size());
          require(!scenario_name.empty(), "--scenario requires a name");
        }
        for (int j = i + 1; j < argc; ++j) forwarded.push_back(argv[j]);
        break;
      }
      if (arg == "--help" || arg == "-h") {
        print_usage();
        return 0;
      }
      throw InvalidInput("unexpected argument: " + arg +
                         " (expected --list, --deck, --dump-deck, "
                         "--version or --scenario)");
    }
    if (deck_mode) {
      require(scenario_name.empty(),
              "a scenario takes its options, --deck too, after its name");
      require(deck.dump_only || !deck.deck_path.empty(),
              "--json/--trace/--quiet/--verbose need --deck <file>");
      return run_deck(deck);
    }
    if (scenario_name.empty()) {
      print_usage();
      std::printf("\n");
      list_scenarios();
      return 0;
    }
    return run_scenario(scenario_name, forwarded, deck_dir);
  } catch (const InvalidInput& err) {
    std::fprintf(stderr, "unsnap: %s\n", err.what());
    return 2;
  } catch (const NumericalError& err) {
    std::fprintf(stderr, "unsnap: numerical failure: %s\n", err.what());
    return 3;
  }
}

}  // namespace unsnap::api

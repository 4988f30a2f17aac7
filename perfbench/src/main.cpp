// unsnap_perfbench: one workload of the UnSNAP benchmark per process.
//
//   unsnap_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--reference <json>] [--workdir <dir>] [--print-reference]
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 the
// per-layer metrics of a traced run (spans written as Chrome-trace JSON to
// <workdir>/trace-<workload>-<seed>.json).
// The binary re-executes itself once with OMP_NUM_THREADS set to the
// workload's thread count (see pin_openmp_threads).
// The last stdout line is the result object; everything before it is the
// human-readable report. --print-reference prints the gate reference one
// solve of a solve deck produces (the solve workloads and pipelined_2x2),
// for re-recording perfbench/reference.json.

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "api/run_config.hpp"
#include "common.hpp"
#include "decks.hpp"
#include "gate.hpp"
#include "spans.hpp"
#include "util/json_parse.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "unsnap_perfbench: %s\nusage: unsnap_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--reference "
               "<json>] [--workdir <dir>] [--print-reference]\n",
               message.c_str());
  std::exit(2);
}

/// OpenMP reads OMP_NUM_THREADS once, when its runtime loads, and each
/// thread a run or the daemon starts lowers its first mesh at that default
/// (every core when unset) before the deck's `threads` applies. So the
/// binary re-executes itself once with the variable set to the workload's
/// thread count, read from its deck; returns when it is already set.
void pin_openmp_threads(const std::string& workload, char** argv) {
  const perfbench::Deck deck = workload == "serve_mixed"
                                   ? perfbench::serve_deck(0, 1)
                                   : perfbench::solve_deck(workload, 1);
  const std::string threads = std::to_string(
      unsnap::api::read_deck_text(deck.text, deck.source).execution.num_threads);
  const char* current = std::getenv("OMP_NUM_THREADS");
  if (current != nullptr && threads == current) return;
  ::setenv("OMP_NUM_THREADS", threads.c_str(), 1);
  ::execv("/proc/self/exe", argv);
  throw std::runtime_error(std::string("cannot re-execute unsnap_perfbench: ") +
                           std::strerror(errno));
}

void print_result(const perfbench::Outcome& out) {
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  for (const perfbench::Metric& m : out.metrics)
    std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("failed_frac %.6g (%ld of %ld operations)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 1.0,
              out.failed, out.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              out.failed == 0 && out.attempted > 0 ? "true" : "false",
              out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, print_reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-reference") {
      print_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--reference") {
        args.reference = value;
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& name : perfbench::workload_names())
    known = known || name == args.workload;
  if (!known && !print_reference)
    usage("unknown workload '" + args.workload + "'");

  try {
    pin_openmp_threads(args.workload, argv);
    if (print_reference) {
      const perfbench::Deck deck = perfbench::solve_deck(args.workload, args.seed);
      const perfbench::SolveSample s = perfbench::solve_once(deck);
      std::printf("\"%s\": %s\n", args.workload.c_str(),
                  perfbench::reference_json(perfbench::digest_of(
                                                unsnap::util::json_parse(s.json)))
                      .c_str());
      return 0;
    }
    if (!have_seed || !have_seconds || !have_trace)
      usage("--seed, --seconds (> 0) and --trace are required");
    std::filesystem::create_directories(args.workdir);
    std::printf("workload %s seed %llu seconds %g trace %d OMP_NUM_THREADS %s\n",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0, std::getenv("OMP_NUM_THREADS"));

    const bool solve = perfbench::is_solve_workload(args.workload);
    std::map<std::string, perfbench::Reference> refs;
    if (solve) {
      refs = perfbench::load_references(args.reference);
      for (const std::string& name : {args.workload, std::string("pipelined_2x2")})
        if (refs.count(name) == 0)
          throw std::runtime_error("no reference for " + name + " in " +
                                   args.reference);
    }
    perfbench::Outcome out;
    if (!args.trace) {
      out = solve ? perfbench::run_solve(args, refs.at(args.workload))
                  : perfbench::run_serve(args);
    } else {
      perfbench::SpanLog log;
      out = solve ? perfbench::trace_solve(args, refs, log)
                  : perfbench::trace_serve(args, log);
      const std::string path = args.workdir + "/trace-" + args.workload +
                               "-" + std::to_string(args.seed) + ".json";
      log.write_chrome_trace(path);
      out.note("spans: " + std::to_string(log.spans().size()) + " written to " +
               path);
    }
    for (perfbench::Metric& m : out.metrics) {
      if (std::isfinite(m.value)) continue;
      ++out.failed;
      out.note(m.name + " is not finite");
      m.value = 0.0;
    }
    std::fflush(stderr);
    print_result(out);
    return 0;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "unsnap_perfbench: %s\n", err.what());
    return 1;
  }
}

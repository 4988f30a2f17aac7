// Entry point of the `unsnapd` daemon: a local run service that accepts
// SNAP-style decks over a Unix-domain (or loopback TCP) socket, schedules
// them onto a worker pool under a hardware thread budget, and caches
// lowered problems across identical submissions. Protocol and ops:
// docs/SERVICE.md; the matching CLI is `unsnap-client`.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "api/version.hpp"
#include "serve/server.hpp"
#include "util/threads.hpp"

namespace {

void print_usage() {
  std::printf(
      "unsnapd — deck-serving run daemon for the UnSNAP mini-app\n\n"
      "usage: unsnapd [options]\n"
      "  --socket <path>       listen on a Unix-domain socket\n"
      "  --port <n>            listen on 127.0.0.1:<n> (0 = kernel pick)\n"
      "  --workers <n>         run-executing worker threads (default 2)\n"
      "  --thread-budget <n>   concurrent solver-thread budget across\n"
      "                        running jobs (default: hardware threads)\n"
      "  --conn-threads <n>    connection handler threads (default 2)\n"
      "  --cache <n>           lowering-cache capacity (default 64)\n"
      "  --history <n>         terminal runs kept resolvable by id before\n"
      "                        the oldest are evicted (default 1024)\n"
      "  --quiet               suppress the stderr service log\n"
      "  --version             build provenance\n\n"
      "at least one of --socket / --port is required; stop the daemon\n"
      "with `unsnap-client shutdown` (running jobs finish first).\n"
      "protocol: docs/SERVICE.md\n");
}

/// The whole of `value` as an int of at least `min`, or exit 2: trailing
/// characters and values outside int are refused, not truncated or
/// wrapped, and sizes pass min = 0 (a negative one would cast to SIZE_MAX).
int parse_int(const std::string& value, const char* flag, int min = INT_MIN) {
  try {
    std::size_t end = 0;
    const int parsed = std::stoi(value, &end);
    if (end == value.size() && parsed >= min) return parsed;
  } catch (const std::exception&) {
    // not a number, or outside int: refused below
  }
  std::fprintf(stderr, "unsnapd: %s expects an integer%s, got '%s'\n", flag,
               min == 0 ? " >= 0" : "", value.c_str());
  std::exit(2);
}

std::string need_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "unsnapd: %s requires a value\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  unsnap::serve::ServerOptions options;
  options.verbose = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket")
      options.unix_path = need_value(argc, argv, i);
    else if (arg == "--port")
      options.tcp_port = parse_int(need_value(argc, argv, i), "--port");
    else if (arg == "--workers")
      options.workers = parse_int(need_value(argc, argv, i), "--workers");
    else if (arg == "--thread-budget")
      options.thread_budget =
          parse_int(need_value(argc, argv, i), "--thread-budget");
    else if (arg == "--conn-threads")
      options.conn_threads =
          parse_int(need_value(argc, argv, i), "--conn-threads");
    else if (arg == "--cache")
      options.cache_capacity = static_cast<std::size_t>(
          parse_int(need_value(argc, argv, i), "--cache", 0));
    else if (arg == "--history")
      options.history_capacity = static_cast<std::size_t>(
          parse_int(need_value(argc, argv, i), "--history", 0));
    else if (arg == "--quiet")
      options.verbose = false;
    else if (arg == "--version") {
      std::printf("%s\n", unsnap::api::version_info().summary().c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "unsnapd: unexpected argument '%s'\n",
                   arg.c_str());
      print_usage();
      return 2;
    }
  }

  try {
    unsnap::serve::Server server(std::move(options));
    server.start();
    server.wait();
    server.stop();
    return 0;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "unsnapd: %s\n", err.what());
    return 2;
  }
}

#pragma once

#include <string>

namespace unsnap::api {

/// The unified `unsnap` CLI: runs SNAP-style input decks through the
/// api::Run facade, and lists/configures/runs any registered scenario.
///
///   unsnap --deck decks/quickstart.inp --json out.json
///   unsnap --dump-deck
///   unsnap --list-scenarios
///   unsnap --scenario shielding --deck decks/golden/shielding.inp
///   unsnap --version
///
/// Everything after `--scenario <name>` is parsed by the scenario's own
/// option set, `--deck` (default `<deck_dir>/<name>.inp`) included.
/// Returns a process exit code (0 success, 1 unconverged converge-to-epsi
/// deck, 2 usage/input error, 3 numerical failure).
int run_driver(int argc, const char* const* argv, const std::string& deck_dir);

}  // namespace unsnap::api

#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/run_config.hpp"
#include "util/cli.hpp"

namespace unsnap::api {

/// A named, self-describing study: the loop, table and VTK output around
/// a problem its deck defines. A scenario declares its study knobs (never
/// a deck value) on a Cli; the unified `unsnap` driver lists, configures
/// and executes it by name.
struct Scenario {
  std::string name;     // CLI handle: `unsnap --scenario <name>`
  std::string summary;  // one line for --list-scenarios
  std::function<void(Cli&)> declare_options{};
  // Exactly one of: run, for a scenario without a deck (scale_study), or
  // run_deck, handed its twin decks/<name>.inp or the file --deck names.
  std::function<int(const Cli&)> run{};
  std::function<int(const Cli&, RunConfig deck)> run_deck{};
};

/// Process-wide registry of scenarios. Scenario translation units
/// self-register through a file-scope ScenarioRegistrar, so linking a
/// scenario file into a binary is all it takes to make it runnable.
class ScenarioRegistry {
 public:
  [[nodiscard]] static ScenarioRegistry& instance();

  /// Throws InvalidInput on an unnamed or duplicate scenario, or on one
  /// without exactly one run function.
  void add(Scenario scenario);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Throws InvalidInput naming the known scenarios when `name` is unknown.
  [[nodiscard]] const Scenario& get(const std::string& name) const;
  /// All scenarios, sorted by name.
  [[nodiscard]] std::vector<const Scenario*> list() const;
  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

 private:
  std::map<std::string, Scenario> scenarios_;
};

/// File-scope self-registration hook:
///   static api::ScenarioRegistrar reg{{.name = "shielding", ...}};
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(Scenario scenario);
};

}  // namespace unsnap::api

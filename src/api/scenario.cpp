#include "api/scenario.hpp"

#include "util/assert.hpp"

namespace unsnap::api {

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  require(!scenario.name.empty(), "scenario registration: empty name");
  require(!scenario.run != !scenario.run_deck,
          "scenario '" + scenario.name + "': needs one run function");
  const auto [it, inserted] =
      scenarios_.emplace(scenario.name, std::move(scenario));
  require(inserted, "scenario '" + it->first + "' registered twice");
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return scenarios_.count(name) > 0;
}

const Scenario& ScenarioRegistry::get(const std::string& name) const {
  if (const auto it = scenarios_.find(name); it != scenarios_.end())
    return it->second;
  std::string known;
  for (const auto& [key, scenario] : scenarios_) {
    if (!known.empty()) known += ", ";
    known += key;
  }
  throw InvalidInput("unknown scenario '" + name + "' (known: " + known +
                     ")");
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) out.push_back(&scenario);
  return out;  // std::map iterates in name order
}

ScenarioRegistrar::ScenarioRegistrar(Scenario scenario) {
  ScenarioRegistry::instance().add(std::move(scenario));
}

}  // namespace unsnap::api

#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace unsnap {

/// Minimal command-line parser shared by the examples and benchmark
/// harnesses. Accepts "--key value", "--key=value" and boolean "--flag".
/// Unknown keys are rejected once help text has been registered so typos in
/// experiment scripts fail loudly instead of silently running defaults.
class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Declare an option with a default value (all values are strings
  /// internally; typed getters convert on access).
  void option(const std::string& key, const std::string& default_value,
              const std::string& help);
  void flag(const std::string& key, const std::string& help);

  /// Parse argv; throws InvalidInput on unknown/malformed arguments.
  /// Returns false if --help was requested (help text printed).
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& key) const;
  [[nodiscard]] int get_int(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] bool get_flag(const std::string& key) const;

  void print_help() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };
  std::string program_;
  std::string description_;
  std::vector<std::pair<std::string, Option>> declared_;
  std::map<std::string, std::string> values_;

  [[nodiscard]] const Option* find(const std::string& key) const;
};

}  // namespace unsnap

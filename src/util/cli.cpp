#include "util/cli.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/assert.hpp"

namespace unsnap {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::option(const std::string& key, const std::string& default_value,
                 const std::string& help) {
  declared_.emplace_back(key, Option{default_value, help, false});
}

void Cli::flag(const std::string& key, const std::string& help) {
  declared_.emplace_back(key, Option{"0", help, true});
}

const Cli::Option* Cli::find(const std::string& key) const {
  for (const auto& [name, opt] : declared_)
    if (name == key) return &opt;
  return nullptr;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return false;
    }
    require(arg.rfind("--", 0) == 0, "unexpected argument: " + arg);
    const std::string body = arg.substr(2);

    std::string key = body;
    std::optional<std::string> value;
    if (const auto eq = body.find('='); eq != std::string::npos) {
      key = body.substr(0, eq);
      value = body.substr(eq + 1);
    }
    const Option* opt = find(key);
    require(opt != nullptr, "unknown option: --" + key);
    if (opt->is_flag) {
      require(!value.has_value(), "flag --" + key + " takes no value");
      values_[key] = "1";
    } else {
      if (!value.has_value()) {
        require(i + 1 < argc, "option --" + key + " requires a value");
        value = argv[++i];
      }
      values_[key] = *value;
    }
  }
  return true;
}

std::string Cli::get(const std::string& key) const {
  if (const auto it = values_.find(key); it != values_.end()) return it->second;
  const Option* opt = find(key);
  UNSNAP_ASSERT(opt != nullptr);
  return opt->default_value;
}

int Cli::get_int(const std::string& key) const {
  const std::string value = get(key);
  try {
    std::size_t end = 0;
    const int parsed = std::stoi(value, &end);
    if (end == value.size()) return parsed;
  } catch (const std::exception&) {
    // not a number, or outside int: refused below
  }
  throw InvalidInput("option --" + key + ": not an integer: " + value);
}

double Cli::get_double(const std::string& key) const {
  const std::string value = get(key);
  try {
    std::size_t end = 0;
    const double parsed = std::stod(value, &end);
    if (end == value.size()) return parsed;
  } catch (const std::exception&) {
    // not a number, or outside double: refused below
  }
  throw InvalidInput("option --" + key + ": not a number: " + value);
}

bool Cli::get_flag(const std::string& key) const { return get(key) == "1"; }

void Cli::print_help() const {
  std::printf("%s — %s\n\nOptions:\n", program_.c_str(), description_.c_str());
  for (const auto& [name, opt] : declared_) {
    if (opt.is_flag)
      std::printf("  --%-24s %s\n", name.c_str(), opt.help.c_str());
    else
      std::printf("  --%-24s %s (default: %s)\n", name.c_str(),
                  opt.help.c_str(), opt.default_value.c_str());
  }
}

}  // namespace unsnap

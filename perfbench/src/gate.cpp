#include "gate.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

using unsnap::util::JsonValue;

Digest digest_of(const JsonValue& record) {
  Digest d;
  const JsonValue& flux = record.at("flux");
  for (const JsonValue& v : flux.at("group_averages").items())
    d.group_averages.push_back(v.as_number());
  d.min = flux.get_number("min");
  d.max = flux.get_number("max");
  d.total = flux.get_number("total");
  const JsonValue& iteration = record.at("iteration");
  d.sweeps = iteration.get_int("sweeps");
  d.converged = iteration.get_bool("converged");
  if (const JsonValue* balance = record.find("balance"))
    d.balance_relative = balance->get_number("relative");
  if (const JsonValue* keff = record.find("keff")) {
    d.k = keff->get_number("k");
    d.converged = d.converged && keff->get_bool("converged");
  }
  return d;
}

std::map<std::string, Reference> load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references '" + path + "'");
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = unsnap::util::json_parse(text.str());
  std::map<std::string, Reference> out;
  for (const auto& [name, entry] : doc.at("workloads").members()) {
    Reference ref;
    for (const JsonValue& v : entry.at("group_averages").items())
      ref.group_averages.push_back(v.as_number());
    if (const JsonValue* b = entry.find("balance_relative"))
      ref.balance_relative = b->as_number();
    if (const JsonValue* k = entry.find("k")) ref.k = k->as_number();
    ref.converged = entry.get_bool("converged", false);
    out[name] = std::move(ref);
  }
  return out;
}

namespace {

bool close_rel(double a, double b, double tol) {
  return std::isfinite(a) && std::abs(a - b) <= tol * std::abs(b);
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

std::vector<std::string> check(const Digest& d, const Reference& ref) {
  std::vector<std::string> fails;
  if (d.group_averages.size() != ref.group_averages.size()) {
    fails.push_back("flux digest has " +
                    std::to_string(d.group_averages.size()) +
                    " groups, reference " +
                    std::to_string(ref.group_averages.size()));
  } else {
    for (std::size_t g = 0; g < d.group_averages.size(); ++g)
      if (!close_rel(d.group_averages[g], ref.group_averages[g], kFluxRelTol))
        fails.push_back("group " + std::to_string(g) + " average " +
                        num(d.group_averages[g]) + " vs reference " +
                        num(ref.group_averages[g]));
  }
  if (ref.balance_relative) {
    if (!d.balance_relative)
      fails.push_back("record has no particle balance");
    else if (!(std::abs(*d.balance_relative - *ref.balance_relative) <=
               kBalanceTol))
      fails.push_back("particle balance relative residual " +
                      num(*d.balance_relative) + " vs reference " +
                      num(*ref.balance_relative));
  }
  if (ref.k) {
    if (!d.k)
      fails.push_back("record has no keff block");
    else if (!close_rel(*d.k, *ref.k, kKeffRelTol))
      fails.push_back("k " + num(*d.k) + " vs reference " + num(*ref.k));
  }
  if (ref.converged && !d.converged) fails.push_back("run did not converge");
  return fails;
}

std::vector<std::string> check_equal(const Digest& served,
                                     const Digest& direct) {
  std::vector<std::string> fails;
  if (served.group_averages != direct.group_averages ||
      served.min != direct.min || served.max != direct.max ||
      served.total != direct.total)
    fails.push_back("served flux digest differs from the direct run");
  if (served.sweeps != direct.sweeps)
    fails.push_back("served run took " + std::to_string(served.sweeps) +
                    " sweeps, direct run " + std::to_string(direct.sweeps));
  return fails;
}

std::string reference_json(const Digest& d) {
  unsnap::util::JsonWriter json(0);
  json.begin_object();
  json.key("group_averages").begin_array();
  for (const double v : d.group_averages) json.value(v);
  json.end_array();
  if (d.balance_relative) json.kv("balance_relative", *d.balance_relative);
  if (d.k) json.kv("k", *d.k);
  json.kv("converged", d.converged);
  json.end_object();
  return json.str();
}

}  // namespace perfbench

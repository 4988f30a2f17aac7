#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json_parse.hpp"

namespace perfbench {

/// The physics a RunRecord JSON carries that the gate compares: the flux
/// digest, the sweep count, the particle balance and the eigenvalue.
struct Digest {
  std::vector<double> group_averages;
  double min = 0.0, max = 0.0, total = 0.0;
  long sweeps = 0;
  bool converged = false;
  std::optional<double> balance_relative;
  std::optional<double> k;
};

/// Extract the digest from a parsed RunRecord (api::to_json output).
[[nodiscard]] Digest digest_of(const unsnap::util::JsonValue& record);

/// One workload's reference, recorded from the seed commit.
struct Reference {
  std::vector<double> group_averages;
  std::optional<double> balance_relative;
  std::optional<double> k;
  bool converged = false;
};

/// Tolerances: group averages at the golden battery's relative 5e-7;
/// particle balance closure within 1e-6 of the reference's relative
/// residual (a converged solve closes to ~1e-10, a fixed-iteration one
/// leaves a deterministic residual); k within 1e-6 relative, far inside
/// any wrong eigenvalue yet outside the solver's k_tol of 1e-7.
inline constexpr double kFluxRelTol = 5e-7;
inline constexpr double kBalanceTol = 1e-6;
inline constexpr double kKeffRelTol = 1e-6;

/// Load the per-workload references ({"workloads": {name: {...}}}).
[[nodiscard]] std::map<std::string, Reference> load_references(
    const std::string& path);

/// Failures of `d` against `ref` (empty = passes the gate).
[[nodiscard]] std::vector<std::string> check(const Digest& d,
                                             const Reference& ref);

/// Failures of a served record against the same deck run directly: the
/// digests must be bitwise equal.
[[nodiscard]] std::vector<std::string> check_equal(const Digest& served,
                                                   const Digest& direct);

/// The reference entry `d` would produce (for re-recording references).
[[nodiscard]] std::string reference_json(const Digest& d);

}  // namespace perfbench

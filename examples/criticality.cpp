// Criticality scenario: the k-eigenvalue companion of the fixed-source
// scenarios. decks/criticality.inp puts a two-group fuel cube in a water
// bath and runs it through the `[xs] file = ...` library route (mode =
// keff: xs::KeffSolver's power iteration around downscatter-ordered
// groupset transport solves). The scenario runs the problem twice — once
// split into one groupset per group (the library is pure downscatter),
// once fused into a single block of all groups — and checks the two paths
// agree on k, demonstrating that the groupset partition is a performance
// knob, not a physics one.
//
// The fuel is tuned so its infinite-medium eigenvalue is exactly 1
// (see decks/xs/criticality.xs for the closed form); the finite, leaky
// configuration lands well below that.

#include <cmath>
#include <cstdio>
#include <string>

#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "util/assert.hpp"

namespace {

using namespace unsnap;

int run(const Cli&, api::RunConfig config) {
  require(config.mode == api::RunMode::Keff,
          "criticality: the deck must be a mode = keff deck");
  std::printf("criticality: %s mesh, %d angles/octant, %d groups\n\n",
              api::grid_label(config.mesh.dims).c_str(),
              config.angular.nang, config.materials.num_groups);

  const std::string all_groups =
      "0:" + std::to_string(config.materials.num_groups - 1);
  double k_split = 0.0;
  std::shared_ptr<const core::Discretization> disc;
  for (const bool fused : {false, true}) {
    // Empty = one groupset per group (the library is pure downscatter).
    config.xs.groupsets = fused ? all_groups : "";
    api::Run run(config);
    if (disc) run.set_shared_discretization(disc);
    const api::RunRecord record = run.execute();
    disc = run.shared_discretization();
    const api::RunRecord::KeffStats& result = *record.keff;
    std::printf("%s groupsets (%zu):\n", fused ? "fused" : "per-group",
                result.groupsets.size());
    std::printf("  k = %.9f (%s after %d outers, dominance ratio %.3f)\n",
                result.k, result.converged ? "converged" : "NOT converged",
                result.outers, result.dominance_ratio);
    for (std::size_t s = 0; s < result.groupset_sweeps.size(); ++s)
      std::printf("  groupset %zu: %lld sweeps\n", s,
                  result.groupset_sweeps[s]);
    const core::BalanceReport& balance = *record.balance;
    std::printf("  balance: fission/k %.6e = absorption %.6e + "
                "leakage %.6e (residual %.2e)\n\n",
                balance.fission, balance.absorption, balance.leakage,
                balance.residual());
    if (!fused) k_split = result.k;
    else {
      std::printf("split vs fused |dk| = %.3e\n",
                  std::abs(result.k - k_split));
      require(std::abs(result.k - k_split) < 1e-6,
              "criticality: groupset partition changed the eigenvalue");
    }
  }
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "criticality",
    .summary = "two-group k-eigenvalue solve through the xs library route",
    .run_deck = run,
}};

}  // namespace

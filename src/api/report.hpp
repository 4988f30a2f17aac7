#pragma once

#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/transport_solver.hpp"

namespace unsnap::api {

/// Shared post-solve reporting: iteration outcome, timing and the
/// particle-balance audit in one format, plus the flux-summary
/// diagnostics the scenarios share. The configuration, schedule and
/// decomposition blocks render from RunRecord data (run.hpp). Scenarios
/// use these so the numbers stay comparable across scenarios.

/// Convergence state, iteration counts and wall/sweep timings; under the
/// gmres scheme also the Krylov iteration count, final relative residual
/// and the measured sweeps-per-digit (printed for SI too, from the inner
/// change history, so the two schemes compare directly). With `verbose`
/// the full per-inner change history — and, for gmres, the per-Krylov-
/// iteration residual history — is dumped.
/// Writes to `out` (default stdout) so callers routing the human report
/// to stderr — the driver under `--json -` — can redirect it wholesale.
void print_iteration_report(const core::IterationResult& result,
                            bool time_solve = false, bool verbose = false,
                            std::FILE* out = stdout);

/// Sweeps per decimal digit of error reduction, measured from the
/// per-inner change history (the one consistently-normalised series both
/// schemes record). Returns 0 when the history is too short or did not
/// decrease.
[[nodiscard]] double sweeps_per_digit(const core::IterationResult& result);

/// Source / absorption / leakage / residual block.
void print_balance_report(const core::BalanceReport& balance,
                          std::FILE* out = stdout);

/// A study header's grid label: "6^3" for a cube, "6x6x18" otherwise.
[[nodiscard]] std::string grid_label(const std::array<int, 3>& dims);

/// Volume-average scalar flux per group.
[[nodiscard]] std::vector<double> group_volume_averages(
    const core::Discretization& disc, const core::NodalField& phi);

/// Volume-average flux of group g restricted to elements whose centroid
/// satisfies `inside` — the shielding/duct detector-band diagnostic.
[[nodiscard]] double region_average_flux(
    const core::Discretization& disc, const core::NodalField& phi, int group,
    const std::function<bool(const fem::Vec3& centroid)>& inside);

}  // namespace unsnap::api

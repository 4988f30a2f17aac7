#include "api/report.hpp"

#include <cmath>
#include <cstdio>

namespace unsnap::api {

std::string grid_label(const std::array<int, 3>& dims) {
  const std::string x = std::to_string(dims[0]);
  if (dims[1] == dims[0] && dims[2] == dims[0]) return x + "^3";
  return x + "x" + std::to_string(dims[1]) + "x" + std::to_string(dims[2]);
}

double sweeps_per_digit(const core::IterationResult& result) {
  // Measured on the inner change history for both schemes: it is the one
  // quantity with a single normalization across the whole run (the Krylov
  // residual history is rescaled by each outer's own right-hand side, so
  // digits computed across outers from it would mix norms).
  const std::vector<double>& history = result.inner_history;
  if (history.size() < 2 || result.sweeps <= 0) return 0.0;
  const double first = history.front(), last = history.back();
  if (!(first > 0.0) || !(last > 0.0) || last >= first) return 0.0;
  return result.sweeps / std::log10(first / last);
}

void print_iteration_report(const core::IterationResult& result,
                            bool time_solve, bool verbose,
                            std::FILE* out) {
  std::fprintf(out, "%s after %d inners / %d outers (last inner change %.3e)\n",
              result.converged ? "converged" : "NOT converged",
              result.inners, result.outers, result.final_inner_change);
  const double spd = sweeps_per_digit(result);
  if (result.krylov_iters > 0) {
    std::fprintf(out, "gmres: %d Krylov iters over %d sweeps, final rel residual "
                "%.3e",
                result.krylov_iters, result.sweeps,
                result.residual_history.empty()
                    ? 0.0
                    : result.residual_history.back());
    if (spd > 0.0) std::fprintf(out, ", %.1f sweeps/digit", spd);
    std::fprintf(out, "\n");
  } else if (spd > 0.0) {
    std::fprintf(out, "source iteration: %d sweeps, %.1f sweeps/digit\n",
                result.sweeps, spd);
  }
  if (result.diffusion_preconditioned)
    std::fprintf(out, "dsa: diffusion-accelerated inners, %d CG iterations\n",
                result.dsa_pcg_iters);
  std::fprintf(out, "total %.4f s, %.4f s in assemble/solve sweeps",
              result.total_seconds, result.assemble_solve_seconds);
  if (time_solve && result.assemble_solve_seconds > 0.0)
    std::fprintf(out, " (%.0f%% in solve)",
                100.0 * result.solve_seconds / result.assemble_solve_seconds);
  std::fprintf(out, "\n");
  if (verbose) {
    std::fprintf(out, "inner change history (%zu inners):\n",
                result.inner_history.size());
    for (std::size_t i = 0; i < result.inner_history.size(); ++i)
      std::fprintf(out, "  %4zu  %.6e\n", i, result.inner_history[i]);
    if (!result.residual_history.empty()) {
      std::fprintf(out, "krylov residual history (%zu entries, relative):\n",
                  result.residual_history.size());
      for (std::size_t i = 0; i < result.residual_history.size(); ++i)
        std::fprintf(out, "  %4zu  %.6e\n", i, result.residual_history[i]);
    }
  }
}

void print_balance_report(const core::BalanceReport& balance,
                          std::FILE* out) {
  std::fprintf(out, "particle balance:\n"
              "  source      %.6e\n  inflow      %.6e\n",
              balance.source, balance.inflow);
  if (balance.fission != 0.0)
    std::fprintf(out, "  fission     %.6e (production / k)\n",
                balance.fission);
  std::fprintf(out,
              "  absorption  %.6e\n  leakage     %.6e\n"
              "  residual    %.3e (relative %.3e)\n",
              balance.absorption, balance.leakage, balance.residual(),
              balance.relative());
  // The per-group ledger table only renders for the keff mode's
  // fission-extended reports (and only when there is more than one group
  // to split over).
  if (balance.fission != 0.0 && balance.num_groups() > 1) {
    std::fprintf(out,
                "  group       source        fission       absorption"
                "    leakage\n");
    for (int g = 0; g < balance.num_groups(); ++g) {
      const auto i = static_cast<std::size_t>(g);
      std::fprintf(out, "  %5d   %.6e  %.6e  %.6e  %.6e\n", g,
                  balance.group_source[i], balance.group_fission[i],
                  balance.group_absorption[i], balance.group_leakage[i]);
    }
  }
}

std::vector<double> group_volume_averages(const core::Discretization& disc,
                                          const core::NodalField& phi) {
  std::vector<double> averages(
      static_cast<std::size_t>(phi.num_groups()), 0.0);
  for (int g = 0; g < phi.num_groups(); ++g) {
    double integral = 0.0, volume = 0.0;
    for (int e = 0; e < disc.num_elements(); ++e) {
      const double* w = disc.integrals().node_weights(e);
      const double* ph = phi.at(e, g);
      for (int i = 0; i < disc.num_nodes(); ++i) integral += w[i] * ph[i];
      volume += disc.integrals().volume(e);
    }
    averages[static_cast<std::size_t>(g)] = integral / volume;
  }
  return averages;
}

double region_average_flux(
    const core::Discretization& disc, const core::NodalField& phi, int group,
    const std::function<bool(const fem::Vec3& centroid)>& inside) {
  double integral = 0.0, volume = 0.0;
  for (int e = 0; e < disc.num_elements(); ++e) {
    if (!inside(disc.mesh().centroid(e))) continue;
    const double* w = disc.integrals().node_weights(e);
    const double* ph = phi.at(e, group);
    for (int i = 0; i < disc.num_nodes(); ++i) integral += w[i] * ph[i];
    volume += disc.integrals().volume(e);
  }
  return volume > 0.0 ? integral / volume : 0.0;
}

}  // namespace unsnap::api

#pragma once

// Plain source iteration driven through TransportSolver's single-iteration
// API: the loop of TransportSolver::run() without the DSA correction that
// run() applies to a converging single-domain solve. Distributed ranks run
// this plain loop, and the acceleration tests measure DSA against it.

#include "core/source.hpp"
#include "core/transport_solver.hpp"

namespace unsnap::test {

inline core::IterationResult plain_source_iteration(
    core::TransportSolver& solver) {
  const snap::Input& input = solver.input();
  const double tolerance = solver.tolerance();
  core::IterationResult result;
  for (int outer = 0; outer < input.oitm; ++outer) {
    solver.update_outer_source();
    const core::NodalField phi_outer = solver.scalar_flux();
    for (int inner = 0; inner < input.iitm; ++inner) {
      solver.update_inner_source();
      solver.sweep();
      ++result.inners;
      ++result.sweeps;
      result.final_inner_change = solver.inner_change();
      result.inner_history.push_back(result.final_inner_change);
      if (!input.fixed_iterations && result.final_inner_change < tolerance)
        break;
    }
    ++result.outers;
    result.final_outer_change =
        core::max_relative_change(solver.scalar_flux(), phi_outer);
    result.converged = result.final_outer_change < 100.0 * tolerance &&
                       result.final_inner_change < tolerance;
    if (result.converged && !input.fixed_iterations) break;
  }
  return result;
}

}  // namespace unsnap::test

#include "accel/inner.hpp"

#include <algorithm>
#include <cmath>

#include "accel/dsa.hpp"
#include "linalg/blas_like.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace unsnap::accel {

std::size_t flux_vector_size(const core::TransportSolver& solver) {
  std::size_t n = solver.scalar_flux().size();
  for (const core::NodalField& mom : solver.flux_moments()) n += mom.size();
  return n;
}

void gather_flux(const core::TransportSolver& solver, std::span<double> out) {
  UNSNAP_ASSERT(out.size() == flux_vector_size(solver));
  double* dst = out.data();
  const core::NodalField& phi = solver.scalar_flux();
  dst = std::copy(phi.data(), phi.data() + phi.size(), dst);
  for (const core::NodalField& mom : solver.flux_moments())
    dst = std::copy(mom.data(), mom.data() + mom.size(), dst);
}

void scatter_flux(core::TransportSolver& solver, std::span<const double> in) {
  UNSNAP_ASSERT(in.size() == flux_vector_size(solver));
  const double* src = in.data();
  core::NodalField& phi = solver.scalar_flux();
  std::copy(src, src + phi.size(), phi.data());
  src += phi.size();
  for (core::NodalField& mom : solver.flux_moments()) {
    std::copy(src, src + mom.size(), mom.data());
    src += mom.size();
  }
}

double max_pointwise_change(std::span<const double> delta,
                            std::span<const double> base, double floor) {
  UNSNAP_ASSERT(delta.size() == base.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    const double diff = std::fabs(delta[i]);
    const double scale = std::fabs(base[i]);
    worst = std::max(worst, scale > floor ? diff / scale : diff);
  }
  return worst;
}

core::IterationResult run_gmres(core::TransportSolver& solver,
                                const core::IterationHooks* hooks) {
  const snap::Input& input = solver.input();
  const double tolerance = solver.tolerance();
  core::IterationResult result;
  Stopwatch total;
  total.start();

  // Serial defaults for the distributable seams (core::IterationHooks).
  const auto sweep_frozen = [&] {
    if (hooks != nullptr && hooks->sweep_frozen) hooks->sweep_frozen();
    else solver.sweep(/*frozen_coupling=*/true);
  };
  const auto refresh = [&] {
    if (hooks != nullptr && hooks->refresh) hooks->refresh();
    else solver.refresh_lagged_couplings();
  };
  const auto rmax = [&](double v) {
    return hooks != nullptr && hooks->reduce_max ? hooks->reduce_max(v) : v;
  };
  const auto nrm = [&](std::span<const double> v) {
    return hooks != nullptr && hooks->norm2 ? hooks->norm2(v)
                                            : linalg::norm2(v);
  };

  const std::size_t n = flux_vector_size(solver);
  // SNAP's convergence measures watch the scalar flux only (the l > 0
  // moments ride along in the Krylov vector because the operator needs
  // them, but SI's inner/outer tests never look at them) — slice the
  // change measurements to the phi prefix so both schemes apply the same
  // criterion.
  const std::size_t nphi = solver.scalar_flux().size();
  Gmres workspace(n, input.gmres_restart);
  std::vector<double> x(n), b(n), fx(n), phi_outer(n), diff(n);

  // iitm is the sweep budget per outer, shared with SI sweep for sweep;
  // seed and closing sweeps bracket the Krylov applies (a converged solve
  // skips the closing one).
  const int krylov_applies =
      std::max(input.iitm - 2, 2);

  core::IterationObserver* const observer = solver.observer();
  const bool precondition = preconditions_gmres(input, hooks);
  result.diffusion_preconditioned = precondition;

  for (int outer = 0; outer < input.oitm; ++outer) {
    if (observer != nullptr) observer->on_outer_begin(outer);
    solver.update_outer_source();
    gather_flux(solver, phi_outer);
    x = phi_outer;  // warm start from the current iterate
    int sweeps = 0;

    // Seed the affine part: b = F(0) is the swept response to the outer
    // source, boundary inflow and frozen lagged couplings alone.
    std::fill(b.begin(), b.end(), 0.0);
    scatter_flux(solver, b);
    solver.update_inner_source();
    sweep_frozen();
    ++sweeps;
    gather_flux(solver, b);

    KrylovOptions options;
    options.max_iters = input.gmres_max_iters;
    options.max_applies = krylov_applies;
    if (!input.fixed_iterations) options.rel_tol = 0.1 * tolerance;
    if (hooks != nullptr) {
      options.dot = hooks->dot;
      options.norm2 = hooks->norm2;
    }
    // The true residual r = F(x) - x is exactly the next source-iteration
    // step, so SNAP's pointwise inner test applies verbatim. Record every
    // check; under fixed iterations record but never stop early.
    options.converged_test = [&](std::span<const double> xk,
                                 std::span<const double> r) {
      const double change =
          rmax(max_pointwise_change(r.first(nphi), xk.first(nphi)));
      result.inner_history.push_back(change);
      if (observer != nullptr)
        observer->on_inner(
            static_cast<int>(result.inner_history.size()) - 1,
            result.sweeps + sweeps, change);
      return !input.fixed_iterations && change < tolerance;
    };

    const LinearOperator op = [&](std::span<const double> v,
                                  std::span<double> y) {
      OBS_SPAN("gmres.apply", "outer", outer);
      scatter_flux(solver, v);
      solver.update_inner_source();
      sweep_frozen();
      ++sweeps;
      gather_flux(solver, y);  // y = F(v)
      for (std::size_t i = 0; i < y.size(); ++i) y[i] = v[i] - y[i] + b[i];
    };

    // DSA right-preconditions a converging solve, built at its first use
    // (sigma_t is final by then), and its pointwise checks run on the
    // Arnoldi recurrence instead of costing a restart and a residual sweep.
    int pcg_before = 0;
    DiffusionPreconditioner* dsa = nullptr;
    if (precondition) {
      dsa = &solver.diffusion_preconditioner();
      pcg_before = dsa->pcg_iterations();
      options.preconditioner = [dsa](std::span<const double> v,
                                     std::span<double> z) {
        dsa->apply(v, z);
      };
    }

    const KrylovResult inner = workspace.solve(op, b, x, options);
    result.krylov_iters += inner.iterations;
    if (dsa != nullptr)
      result.dsa_pcg_iters += dsa->pcg_iterations() - pcg_before;
    const double bnorm = nrm(b);
    for (const double r : inner.residual_history) {
      result.residual_history.push_back(bnorm > 0.0 ? r / bnorm : r);
      if (observer != nullptr)
        observer->on_krylov(
            static_cast<int>(result.residual_history.size()) - 1,
            result.residual_history.back());
    }

    // Closing physical sweep: psi consistent with the Krylov solution, the
    // lagged couplings re-anchored on it — the gmres twin of sweep()'s
    // per-iteration bookkeeping. A converged solve stops right after its
    // cycle-start apply at the returned x, which left the solver holding
    // F(x) from this very sweep, so only a solve that ran out of budget
    // needs it.
    if (!inner.converged) {
      scatter_flux(solver, x);
      solver.update_inner_source();
      sweep_frozen();
      ++sweeps;
    }
    refresh();
    gather_flux(solver, fx);

    for (std::size_t i = 0; i < nphi; ++i) diff[i] = fx[i] - x[i];
    result.final_inner_change = rmax(max_pointwise_change(
        std::span<const double>(diff).first(nphi),
        std::span<const double>(x).first(nphi)));
    result.inner_history.push_back(result.final_inner_change);
    result.inners += sweeps;
    result.sweeps += sweeps;
    ++result.outers;
    if (observer != nullptr)
      observer->on_inner(static_cast<int>(result.inner_history.size()) - 1,
                         result.sweeps, result.final_inner_change);

    for (std::size_t i = 0; i < nphi; ++i) diff[i] = fx[i] - phi_outer[i];
    result.final_outer_change = rmax(max_pointwise_change(
        std::span<const double>(diff).first(nphi),
        std::span<const double>(phi_outer).first(nphi)));
    // Same tests as the SI loop: SNAP's outer test is 100x looser.
    result.converged = result.final_outer_change < 100.0 * tolerance &&
                       result.final_inner_change < tolerance;
    if (observer != nullptr)
      observer->on_outer_end(outer, result.final_outer_change,
                             result.converged);
    if (result.converged && !input.fixed_iterations) break;
  }

  result.total_seconds = total.stop();
  result.assemble_solve_seconds = solver.assemble_solve_seconds();
  result.solve_seconds = solver.solve_seconds();
  return result;
}

}  // namespace unsnap::accel

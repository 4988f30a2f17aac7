#pragma once

#include "accel/krylov.hpp"
#include "core/transport_solver.hpp"

namespace unsnap::accel {

/// Sweep-preconditioned Krylov inner solves for the transport solver.
///
/// One source iteration computes phi_new = F(phi) = D L^-1 M (qout + S phi)
/// through update_inner_source() + sweep(); F is affine in phi once the
/// iteration-lagged couplings (reflective mirror, cycle-lag snapshot) are
/// frozen. The within-group equation is therefore the linear system
///   (I - A) phi = b,   A phi = F(phi) - F(0),   b = F(0),
/// and applying (I - A) is exactly one sweep — GMRES over this operator is
/// the classical sweep-preconditioned Krylov transport solve (Haut et al.),
/// whose convergence does not stall as the scattering ratio c -> 1 the way
/// plain source iteration (Richardson on the same operator) does.
///
/// The vectors are the solver's flux moments flattened end to end: the
/// scalar flux first, then each l > 0 moment field (nmom > 1).

[[nodiscard]] std::size_t flux_vector_size(
    const core::TransportSolver& solver);
void gather_flux(const core::TransportSolver& solver, std::span<double> out);
void scatter_flux(core::TransportSolver& solver, std::span<const double> in);

/// SNAP's pointwise convergence measure on flat vectors: max over i of
/// |delta_i| / |base_i|, falling back to |delta_i| where |base_i| <= floor
/// (the flat-vector twin of core::max_relative_change).
[[nodiscard]] double max_pointwise_change(std::span<const double> delta,
                                          std::span<const double> base,
                                          double floor = 1e-12);

/// The full outer/inner loop with GMRES inners: same outer source update,
/// iteration budget and convergence vocabulary as TransportSolver::run()'s
/// source-iteration loop, with each within-group solve delegated to
/// restarted GMRES over the swept operator. Every inner solve spends one
/// sweep seeding b = F(0), at most iitm - 2 sweeps inside the Krylov
/// loop (never fewer than 2, so tiny iitm still makes progress) and one
/// closing physical sweep that restores a consistent psi, then re-anchors
/// the lagged couplings. A converged solve skips the closing sweep: its
/// last apply was the cycle-start residual at the returned x, which left
/// the solver holding that same sweep. A solve that iterates to a
/// tolerance on one domain (no hooks) is right-preconditioned by
/// the solver's DiffusionPreconditioner (accel/dsa.hpp), which also moves
/// its pointwise checks onto the Arnoldi recurrence (KrylovOptions::
/// preconditioner); fixed-budget runs and distributed ranks keep the
/// plain sweep operator. `hooks` (optional) distributes the
/// loop: its frozen sweep is then an exact slice of the global operator
/// apply, and its reductions keep the per-rank Krylov recurrences in
/// lockstep — see core::IterationHooks.
[[nodiscard]] core::IterationResult run_gmres(
    core::TransportSolver& solver,
    const core::IterationHooks* hooks = nullptr);

}  // namespace unsnap::accel

#pragma once

#include <span>
#include <vector>

#include "core/transport_solver.hpp"

namespace unsnap::accel {

/// Diffusion synthetic acceleration (DSA): the right preconditioner of the
/// sweep-preconditioned GMRES inners (accel/inner.*) and the correction
/// that follows every source-iteration sweep (core::TransportSolver::run).
///
/// Per group g it assembles the continuous trilinear diffusion operator on
/// the mesh vertices,
///   C_g = -div D grad + sigma_a,   D = 1 / (3 sigma_t),
///   sigma_a = sigma_t - sigma_s,g->g,
/// with the Marshak term 1/2 Int u v dS on vacuum sides and nothing on
/// reflective ones, as one CSR matrix per group over a shared pattern. It
/// applies
///   y = v + P C_g^-1 P^T sigma_s,g->g M v
/// to each group's block of the scalar flux, where M is the element mass
/// matrix and P the trilinear vertex-to-node prolongation (the identity on
/// corner nodes at order 1). Higher flux moments pass through unchanged.
///
/// The preconditioner of a non-flexible GMRES must be one fixed linear
/// map, so there C_g is solved by Jacobi-preconditioned CG to a relative
/// residual of 1e-10. The source-iteration correction need not be, and
/// stops CG at 1e-4. The stiffness uses 2x2x2 Gauss points: a
/// preconditioner needs spectral equivalence, not exactness, and that
/// keeps the build to a few ms. Every reduction is serial, so the
/// preconditioned iterates stay bitwise across thread counts.
class DiffusionPreconditioner {
 public:
  /// Assemble C_g for every group from the solver's cross sections as they
  /// stand. The solver must outlive the preconditioner.
  explicit DiffusionPreconditioner(const core::TransportSolver& solver);

  /// y = P^-1 x over the Krylov vector of accel/inner.hpp (the scalar flux
  /// first, then the higher moments). x and y never alias.
  void apply(std::span<const double> x, std::span<double> y);

  /// The DSA step of source iteration: phi += P C_g^-1 P^T sigma_s,g->g M
  /// (phi - phi_old) for every group, the diffusion estimate of the error
  /// left by the sweep that took phi_old to phi. Only the scalar flux is
  /// corrected, as in apply().
  void correct(core::NodalField& phi, const core::NodalField& phi_old);

  /// Conjugate-gradient iterations spent by every apply so far.
  [[nodiscard]] int pcg_iterations() const { return pcg_iters_; }

  /// C_g in compressed-sparse-row form over the mesh vertices: every
  /// group shares the pattern, with columns sorted within each row.
  [[nodiscard]] int num_vertices() const { return nv_; }
  [[nodiscard]] std::span<const int> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const int> columns() const { return col_; }
  [[nodiscard]] std::span<const double> values(int g) const;

 private:
  const core::TransportSolver& solver_;
  int nv_ = 0, ng_ = 0;
  std::vector<int> row_ptr_, col_;
  std::vector<double> val_;       // [g][nnz]
  std::vector<double> inv_diag_;  // [g][vertex] Jacobi preconditioner
  std::vector<double> sigs_;      // [e][g] sigma_s,g->g
  std::vector<double> prolong_;   // [node][corner] trilinear weights
  std::vector<double> rhs_, u_, r_, z_, p_, q_;  // per-vertex CG work
  std::vector<double> node_;  // sigma_s M x of one element
  std::vector<double> delta_;  // phi - phi_old of correct()
  int pcg_iters_ = 0;

  /// Position of column j in row i of the shared pattern.
  [[nodiscard]] int position(int i, int j) const;
  /// u = C_g^-1 rhs_ by Jacobi-preconditioned CG from a zero guess, to a
  /// relative residual of `tolerance`.
  void solve(int g, double tolerance);
  /// y += P C_g^-1 P^T sigma_s,g->g M x over the scalar-flux block of
  /// every group.
  void add_correction(const double* x, double* y, double tolerance);
};

/// Whether accel::run_gmres right-preconditions its inners by DSA: the
/// solve iterates to a tolerance (fixed-budget runs keep the plain sweep
/// operator, bit for bit) on one domain (a rank of a distributed solve
/// runs with hooks, and its mesh has remote faces).
[[nodiscard]] bool preconditions_gmres(const snap::Input& input,
                                       const core::IterationHooks* hooks);

/// Whether core::TransportSolver::run corrects every source-iteration
/// sweep by DSA: the same rule as preconditions_gmres, and no reflective
/// side. The correction leaves the lagged reflective inflow as it is, and
/// all-reflective decks diverged under it (ROADMAP item 3).
[[nodiscard]] bool accelerates_source_iteration(
    const snap::Input& input, const core::IterationHooks* hooks);

}  // namespace unsnap::accel

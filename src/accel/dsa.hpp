#pragma once

#include <span>
#include <vector>

#include "core/transport_solver.hpp"

namespace unsnap::accel {

/// Diffusion synthetic acceleration (DSA) as the right preconditioner of
/// the sweep-preconditioned GMRES inners (accel/inner.*).
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
/// map, so C_g is solved by Jacobi-preconditioned CG to a relative
/// residual of 1e-10. The stiffness uses 2x2x2 Gauss points: a
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
  int pcg_iters_ = 0;

  /// Position of column j in row i of the shared pattern.
  [[nodiscard]] int position(int i, int j) const;
  /// u = C_g^-1 rhs_ by Jacobi-preconditioned CG from a zero guess.
  void solve(int g);
};

}  // namespace unsnap::accel

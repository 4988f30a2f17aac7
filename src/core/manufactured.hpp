#pragma once

#include <functional>

#include "core/transport_solver.hpp"

namespace unsnap::core {

/// Manufactured exact solutions for verification. The angular flux is
/// prescribed as an angle-independent spatial field psi_e(x) (so the exact
/// scalar flux equals psi_e because the quadrature weights sum to 1); the
/// matching per-angle source
///   q(x, Omega, g) = Omega . grad psi_e + sigt_g psi_e
///                    - sum_g' sigs(0, g', g) psi_e
/// and Dirichlet inflow boundary data are injected into a TransportSolver.
///
/// Key property: an order-p element reproduces any psi_e whose composition
/// with the trilinear element map lies in Q_p exactly — in particular any
/// polynomial of total degree <= p in physical coordinates, even on twisted
/// meshes. The convergence-order studies use the trigonometric solution.
class ManufacturedSolution {
 public:
  using ValueFn = std::function<double(const Vec3&)>;
  using GradFn = std::function<Vec3(const Vec3&)>;

  ManufacturedSolution(ValueFn value, GradFn gradient)
      : value_(std::move(value)), gradient_(std::move(gradient)) {}

  /// Random polynomial of total degree `degree` with coefficients drawn
  /// deterministically from `seed`.
  static ManufacturedSolution polynomial(int degree, std::uint64_t seed);

  /// Smooth non-polynomial field c + sin/cos products (never reproduced
  /// exactly; drives the h-convergence studies).
  static ManufacturedSolution trigonometric();

  [[nodiscard]] double value(const Vec3& x) const { return value_(x); }
  [[nodiscard]] Vec3 gradient(const Vec3& x) const { return gradient_(x); }

 private:
  ValueFn value_;
  GradFn gradient_;
};

/// Install the manufactured problem on a solver: zeroes the external
/// isotropic source, fills the per-angle source and the inflow boundary
/// data. The exact solution is the same field in every group.
void apply_manufactured(TransportSolver& solver,
                        const ManufacturedSolution& ms);

/// Max nodal error of the solver's scalar flux against the exact field.
[[nodiscard]] double max_nodal_error(const TransportSolver& solver,
                                     const ManufacturedSolution& ms);

/// L2 (volume-integrated) error of the scalar flux for group g.
[[nodiscard]] double l2_error(const TransportSolver& solver,
                              const ManufacturedSolution& ms, int g = 0);

/// Physical coordinates of every element node (row e, node i), used by the
/// MMS setup and the examples.
[[nodiscard]] std::vector<Vec3> element_node_positions(
    const Discretization& disc, int e);

}  // namespace unsnap::core

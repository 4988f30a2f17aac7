#include "core/manufactured.hpp"

#include <cmath>
#include <memory>
#include <numbers>
#include <vector>

#include "util/rng.hpp"

namespace unsnap::core {

ManufacturedSolution ManufacturedSolution::polynomial(int degree,
                                                      std::uint64_t seed) {
  // Monomials x^i y^j z^k with i+j+k <= degree, random coefficients.
  struct Term {
    int i, j, k;
    double c;
  };
  auto terms = std::make_shared<std::vector<Term>>();
  Rng rng(seed);
  for (int i = 0; i <= degree; ++i)
    for (int j = 0; j + i <= degree; ++j)
      for (int k = 0; k + i + j <= degree; ++k)
        terms->push_back({i, j, k, rng.uniform(0.25, 1.0)});

  auto value = [terms](const Vec3& x) {
    double v = 0.0;
    for (const auto& t : *terms)
      v += t.c * std::pow(x[0], t.i) * std::pow(x[1], t.j) *
           std::pow(x[2], t.k);
    return v;
  };
  auto gradient = [terms](const Vec3& x) {
    Vec3 g{0, 0, 0};
    for (const auto& t : *terms) {
      if (t.i > 0)
        g[0] += t.c * t.i * std::pow(x[0], t.i - 1) * std::pow(x[1], t.j) *
                std::pow(x[2], t.k);
      if (t.j > 0)
        g[1] += t.c * t.j * std::pow(x[0], t.i) * std::pow(x[1], t.j - 1) *
                std::pow(x[2], t.k);
      if (t.k > 0)
        g[2] += t.c * t.k * std::pow(x[0], t.i) * std::pow(x[1], t.j) *
                std::pow(x[2], t.k - 1);
    }
    return g;
  };
  return {value, gradient};
}

ManufacturedSolution ManufacturedSolution::trigonometric() {
  constexpr double kPi = std::numbers::pi;
  auto value = [](const Vec3& x) {
    return 2.0 + std::sin(kPi * x[0]) * std::cos(0.5 * kPi * x[1]) *
                     std::sin(0.5 * kPi * x[2] + 0.3);
  };
  auto gradient = [](const Vec3& x) {
    const double sy = std::cos(0.5 * kPi * x[1]);
    const double sz = std::sin(0.5 * kPi * x[2] + 0.3);
    return Vec3{kPi * std::cos(kPi * x[0]) * sy * sz,
                -0.5 * kPi * std::sin(kPi * x[0]) *
                    std::sin(0.5 * kPi * x[1]) * sz,
                0.5 * kPi * std::sin(kPi * x[0]) * sy *
                    std::cos(0.5 * kPi * x[2] + 0.3)};
  };
  return {value, gradient};
}

std::vector<Vec3> element_node_positions(const Discretization& disc, int e) {
  const fem::HexReferenceElement& ref = disc.ref();
  const fem::HexGeometry geom = disc.mesh().geometry(e);
  std::vector<Vec3> pos(static_cast<std::size_t>(ref.num_nodes()));
  for (int i = 0; i < ref.num_nodes(); ++i)
    pos[i] = geom.map(ref.node_coord(i));
  return pos;
}

void apply_manufactured(TransportSolver& solver,
                        const ManufacturedSolution& ms) {
  require(solver.input().nmom == 1,
          "apply_manufactured: manufactured solutions assume isotropic "
          "scattering (nmom == 1)");
  const Discretization& disc = solver.discretization();
  const angular::QuadratureSet& quad = disc.quadrature();
  ProblemData& problem = solver.problem();
  const int ne = disc.num_elements();
  const int ng = problem.xs.ng;
  const int n = disc.num_nodes();
  const int nf = disc.nodes_per_face();
  const int nang = disc.nang();

  problem.qext.fill(0.0);
  AngularFlux& qang = solver.angular_source();
  BoundaryAngularFlux& bc = solver.boundary_values();

  // Per-angle source at every node: q = Omega . grad + removal * value,
  // where removal folds the total minus all scattering into this group
  // (the exact solution is group-independent, so the incoming scattering
  // sum uses the same field).
  for (int e = 0; e < ne; ++e) {
    const std::vector<Vec3> pos = element_node_positions(disc, e);
    const xs::Material& mat = problem.xs.materials[problem.material[e]];
    std::vector<double> val(static_cast<std::size_t>(n));
    std::vector<Vec3> grad(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      val[i] = ms.value(pos[i]);
      grad[i] = ms.gradient(pos[i]);
    }
    for (int g = 0; g < ng; ++g) {
      double removal = mat.sigt[g];
      for (int gp = 0; gp < ng; ++gp) removal -= mat.sigs(0, gp, g);
      for (int oct = 0; oct < angular::kOctants; ++oct)
        for (int a = 0; a < nang; ++a) {
          const Vec3 omega = quad.direction(oct, a);
          double* q = qang.at(oct, a, e, g);
          for (int i = 0; i < n; ++i)
            q[i] = omega[0] * grad[i][0] + omega[1] * grad[i][1] +
                   omega[2] * grad[i][2] + removal * val[i];
        }
    }
  }

  // Dirichlet data on every boundary face node (only inflow ordinates are
  // ever read).
  const fem::HexReferenceElement& ref = disc.ref();
  for (const auto& [e, f] : disc.mesh().boundary_faces()) {
    const int bface = disc.mesh().boundary_face_id(e, f);
    const fem::HexGeometry geom = disc.mesh().geometry(e);
    const std::vector<int>& fnodes = ref.face_nodes(f);
    std::vector<double> vals(static_cast<std::size_t>(nf));
    for (int j = 0; j < nf; ++j)
      vals[j] = ms.value(geom.map(ref.node_coord(fnodes[j])));
    for (int oct = 0; oct < angular::kOctants; ++oct)
      for (int a = 0; a < nang; ++a)
        for (int g = 0; g < ng; ++g) {
          double* target = bc.at(bface, oct, a, g);
          for (int j = 0; j < nf; ++j) target[j] = vals[j];
        }
  }
}

double max_nodal_error(const TransportSolver& solver,
                       const ManufacturedSolution& ms) {
  const Discretization& disc = solver.discretization();
  const NodalField& phi = solver.scalar_flux();
  const int ng = solver.problem().xs.ng;
  double worst = 0.0;
  for (int e = 0; e < disc.num_elements(); ++e) {
    const std::vector<Vec3> pos = element_node_positions(disc, e);
    for (int g = 0; g < ng; ++g) {
      const double* ph = phi.at(e, g);
      for (int i = 0; i < disc.num_nodes(); ++i)
        worst = std::max(worst, std::fabs(ph[i] - ms.value(pos[i])));
    }
  }
  return worst;
}

double l2_error(const TransportSolver& solver, const ManufacturedSolution& ms,
                int g) {
  const Discretization& disc = solver.discretization();
  const fem::HexReferenceElement& ref = disc.ref();
  const NodalField& phi = solver.scalar_flux();
  double err2 = 0.0;
  std::vector<double> basis(static_cast<std::size_t>(ref.num_nodes()));
  for (int e = 0; e < disc.num_elements(); ++e) {
    const fem::HexGeometry geom = disc.mesh().geometry(e);
    const double* ph = phi.at(e, g);
    for (int q = 0; q < ref.num_qp(); ++q) {
      const auto xi = ref.qp_coord(q);
      const fem::Jacobian jac = geom.jacobian(xi);
      double uh = 0.0;
      for (int i = 0; i < ref.num_nodes(); ++i)
        uh += ph[i] * ref.basis_value(q, i);
      const double diff = uh - ms.value(geom.map(xi));
      err2 += ref.qp_weight(q) * jac.det * diff * diff;
    }
  }
  return std::sqrt(err2);
}

}  // namespace unsnap::core

#include "accel/dsa.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "fem/geometry.hpp"
#include "linalg/blas_like.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace unsnap::accel {

namespace {

// Relative residual of C_g u = f: tight where the correction must be a
// fixed linear map (the GMRES preconditioner), loose after a
// source-iteration sweep, whose correction need not be.
constexpr double kPcgTolerance = 1e-10;
constexpr double kCorrectionTolerance = 1e-4;
constexpr int kCorners = 8;

// Two-point Gauss abscissa; both weights are 1.
const double kGauss = 1.0 / std::sqrt(3.0);

}  // namespace

DiffusionPreconditioner::DiffusionPreconditioner(
    const core::TransportSolver& solver)
    : solver_(solver) {
  OBS_SPAN("accel.dsa_build");
  const core::Discretization& disc = solver.discretization();
  const mesh::HexMesh& mesh = disc.mesh();
  const core::ProblemData& problem = solver.problem();
  const snap::Input& input = solver.input();
  const int ne = mesh.num_elements();
  nv_ = mesh.num_vertices();
  ng_ = problem.xs.ng;
  const auto nv = static_cast<std::size_t>(nv_);
  const auto ng = static_cast<std::size_t>(ng_);

  // Shared pattern: row v holds v and every vertex sharing an element
  // with it, found through the vertex-to-element incidence.
  std::vector<int> first(nv + 1, 0);
  std::vector<int> incident(static_cast<std::size_t>(ne) * kCorners);
  for (int e = 0; e < ne; ++e)
    for (int c = 0; c < kCorners; ++c) ++first[mesh.corner(e, c) + 1];
  for (std::size_t v = 0; v < nv; ++v) first[v + 1] += first[v];
  {
    std::vector<int> fill(first.begin(), first.end() - 1);
    for (int e = 0; e < ne; ++e)
      for (int c = 0; c < kCorners; ++c)
        incident[fill[mesh.corner(e, c)]++] = e;
  }
  std::vector<int> seen(nv, -1);
  row_ptr_.assign(nv + 1, 0);
  col_.reserve(nv * 27);
  for (int v = 0; v < nv_; ++v) {
    seen[v] = v;
    col_.push_back(v);  // the diagonal, also for a vertex no element uses
    for (int k = first[v]; k < first[v + 1]; ++k)
      for (int c = 0; c < kCorners; ++c) {
        const int w = mesh.corner(incident[k], c);
        if (seen[w] == v) continue;
        seen[w] = v;
        col_.push_back(w);
      }
    std::sort(col_.begin() + row_ptr_[v], col_.end());
    row_ptr_[v + 1] = static_cast<int>(col_.size());
  }
  const std::size_t nnz = col_.size();
  val_.assign(ng * nnz, 0.0);

  sigs_.assign(static_cast<std::size_t>(ne) * ng, 0.0);
  for (int e = 0; e < ne; ++e)
    for (int g = 0; g < ng_; ++g)
      sigs_[e * ng + g] = problem.xs.slgg(problem.material[e], g, g);

  // Volume terms, scattered straight into every group's values.
  for (int e = 0; e < ne; ++e) {
    const fem::HexGeometry geom = mesh.geometry(e);
    double stiff[kCorners][kCorners] = {};
    double mass[kCorners][kCorners] = {};
    for (int q = 0; q < 8; ++q) {
      const fem::Vec3 xi{(q & 1) ? kGauss : -kGauss,
                         (q & 2) ? kGauss : -kGauss,
                         (q & 4) ? kGauss : -kGauss};
      const fem::Jacobian jac = geom.jacobian(xi);
      std::array<double, kCorners> n;
      std::array<std::array<double, 3>, kCorners> dn;
      fem::HexGeometry::shape(xi, n);
      fem::HexGeometry::shape_grad(xi, dn);
      std::array<std::array<double, 3>, kCorners> grad;
      for (int c = 0; c < kCorners; ++c)
        for (int r = 0; r < 3; ++r)
          grad[c][r] = jac.inv_t[r][0] * dn[c][0] +
                       jac.inv_t[r][1] * dn[c][1] +
                       jac.inv_t[r][2] * dn[c][2];
      for (int i = 0; i < kCorners; ++i)
        for (int j = 0; j < kCorners; ++j) {
          stiff[i][j] += jac.det * (grad[i][0] * grad[j][0] +
                                    grad[i][1] * grad[j][1] +
                                    grad[i][2] * grad[j][2]);
          mass[i][j] += jac.det * n[i] * n[j];
        }
    }
    int pos[kCorners][kCorners];
    for (int i = 0; i < kCorners; ++i)
      for (int j = 0; j < kCorners; ++j)
        pos[i][j] = position(mesh.corner(e, i), mesh.corner(e, j));
    for (int g = 0; g < ng_; ++g) {
      const double sigt = problem.sigt_eg(e, g);
      require(sigt > 0.0, "DiffusionPreconditioner: sigma_t must be positive");
      const double diffusion = 1.0 / (3.0 * sigt);
      const double removal = std::max(sigt - sigs_[e * ng + g], 0.0);
      double* values = val_.data() + g * nnz;
      for (int i = 0; i < kCorners; ++i)
        for (int j = 0; j < kCorners; ++j)
          values[pos[i][j]] +=
              diffusion * stiff[i][j] + removal * mass[i][j];
    }
  }

  // Marshak vacuum condition, the same for every group.
  for (const auto& [e, f] : mesh.boundary_faces()) {
    const int side = mesh.boundary_kind(e, f);
    if (side < 0 || side >= 6 ||
        input.boundary[side] != snap::Input::Bc::Vacuum)
      continue;
    const fem::HexGeometry geom = mesh.geometry(e);
    const auto [ua, va] = fem::face_axes(f);
    double face[kCorners][kCorners] = {};
    for (int q = 0; q < 4; ++q) {
      const double u = (q & 1) ? kGauss : -kGauss;
      const double v = (q & 2) ? kGauss : -kGauss;
      fem::Vec3 xi{};
      xi[fem::face_axis(f)] = fem::face_side(f) == 0 ? -1.0 : 1.0;
      xi[ua] = u;
      xi[va] = v;
      const fem::Vec3 nds = geom.face_normal_ds(f, u, v);
      const double ds = std::sqrt(fem::dot(nds, nds));
      std::array<double, kCorners> n;
      fem::HexGeometry::shape(xi, n);
      for (int i = 0; i < kCorners; ++i)
        for (int j = 0; j < kCorners; ++j)
          face[i][j] += 0.5 * ds * n[i] * n[j];
    }
    for (int i = 0; i < kCorners; ++i)
      for (int j = 0; j < kCorners; ++j) {
        if (face[i][j] == 0.0) continue;  // a corner off the face
        const int p = position(mesh.corner(e, i), mesh.corner(e, j));
        for (int g = 0; g < ng_; ++g) val_[g * nnz + p] += face[i][j];
      }
  }

  inv_diag_.assign(ng * nv, 1.0);
  for (int g = 0; g < ng_; ++g)
    for (int v = 0; v < nv_; ++v) {
      const double d = val_[g * nnz + position(v, v)];
      if (d > 0.0) inv_diag_[g * nv + v] = 1.0 / d;
      else val_[g * nnz + position(v, v)] = 1.0;  // an unused vertex
    }

  // P: trilinear weights of the 8 corners at every node of the element.
  const fem::HexReferenceElement& ref = disc.ref();
  const int n = ref.num_nodes();
  prolong_.assign(static_cast<std::size_t>(n) * kCorners, 0.0);
  for (int i = 0; i < n; ++i) {
    std::array<double, kCorners> w;
    fem::HexGeometry::shape(ref.node_coord(i), w);
    std::copy(w.begin(), w.end(), prolong_.begin() + i * kCorners);
  }

  for (auto* work : {&rhs_, &u_, &r_, &z_, &p_, &q_}) work->assign(nv, 0.0);
  node_.assign(static_cast<std::size_t>(n), 0.0);
}

std::span<const double> DiffusionPreconditioner::values(int g) const {
  UNSNAP_ASSERT(g >= 0 && g < ng_);
  return {val_.data() + static_cast<std::size_t>(g) * col_.size(),
          col_.size()};
}

int DiffusionPreconditioner::position(int i, int j) const {
  const auto begin = col_.begin() + row_ptr_[i];
  const auto end = col_.begin() + row_ptr_[i + 1];
  const auto it = std::lower_bound(begin, end, j);
  UNSNAP_ASSERT(it != end && *it == j);
  return static_cast<int>(it - col_.begin());
}

void DiffusionPreconditioner::solve(int g, double tolerance) {
  const auto nv = static_cast<std::size_t>(nv_);
  const double* values = val_.data() + static_cast<std::size_t>(g) *
                                           col_.size();
  const double* inv_diag = inv_diag_.data() + static_cast<std::size_t>(g) *
                                                  nv;
  const auto multiply = [&](const std::vector<double>& x,
                            std::vector<double>& y) {
    for (int v = 0; v < nv_; ++v) {
      double s = 0.0;
      for (int k = row_ptr_[v]; k < row_ptr_[v + 1]; ++k)
        s += values[k] * x[col_[k]];
      y[v] = s;
    }
  };

  std::fill(u_.begin(), u_.end(), 0.0);
  const double target = tolerance * linalg::norm2(rhs_);
  if (target == 0.0) return;
  r_ = rhs_;
  for (std::size_t v = 0; v < nv; ++v) z_[v] = inv_diag[v] * r_[v];
  p_ = z_;
  double rz = linalg::dot(r_, z_);
  // CG ends within nv steps in exact arithmetic; the cap only guards a
  // singular operator (no absorption, no vacuum side).
  for (int it = 0; it < nv_ + 50; ++it) {
    multiply(p_, q_);
    const double alpha = rz / linalg::dot(p_, q_);
    linalg::axpy(alpha, p_, u_);
    linalg::axpy(-alpha, q_, r_);
    ++pcg_iters_;
    if (linalg::norm2(r_) <= target) break;
    for (std::size_t v = 0; v < nv; ++v) z_[v] = inv_diag[v] * r_[v];
    const double rz_next = linalg::dot(r_, z_);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t v = 0; v < nv; ++v) p_[v] = z_[v] + beta * p_[v];
  }
}

void DiffusionPreconditioner::apply(std::span<const double> x,
                                    std::span<double> y) {
  OBS_SPAN("accel.dsa_apply");
  UNSNAP_ASSERT(x.size() == y.size());
  std::copy(x.begin(), x.end(), y.begin());
  add_correction(x.data(), y.data(), kPcgTolerance);
}

void DiffusionPreconditioner::correct(core::NodalField& phi,
                                      const core::NodalField& phi_old) {
  OBS_SPAN("accel.dsa_apply");
  UNSNAP_ASSERT(phi.size() == phi_old.size());
  delta_.resize(phi.size());
  const double* now = phi.data();
  const double* old = phi_old.data();
  for (std::size_t i = 0; i < delta_.size(); ++i) delta_[i] = now[i] - old[i];
  add_correction(delta_.data(), phi.data(), kCorrectionTolerance);
}

void DiffusionPreconditioner::add_correction(const double* x, double* y,
                                             double tolerance) {
  const core::Discretization& disc = solver_.discretization();
  const mesh::HexMesh& mesh = disc.mesh();
  const core::ElementIntegrals& ints = disc.integrals();
  const core::NodalField& layout = solver_.scalar_flux();
  const int ne = disc.num_elements();
  const int n = disc.num_nodes();

  for (int g = 0; g < ng_; ++g) {
    // rhs = P^T sigma_s M x_g: the scattering source of the correction,
    // restricted to the vertices.
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    for (int e = 0; e < ne; ++e) {
      const double sigs = sigs_[static_cast<std::size_t>(e) * ng_ + g];
      if (sigs == 0.0) continue;
      const double* xe = x + layout.offset(e, g);
      const double* m = ints.mass(e);
      for (int i = 0; i < n; ++i) {
        double s = 0.0;
        for (int j = 0; j < n; ++j) s += m[i * n + j] * xe[j];
        node_[i] = sigs * s;
      }
      for (int c = 0; c < kCorners; ++c) {
        double s = 0.0;
        for (int i = 0; i < n; ++i)
          s += prolong_[i * kCorners + c] * node_[i];
        rhs_[mesh.corner(e, c)] += s;
      }
    }
    solve(g, tolerance);
    // y_g += P u.
    for (int e = 0; e < ne; ++e) {
      double corner[kCorners];
      for (int c = 0; c < kCorners; ++c) corner[c] = u_[mesh.corner(e, c)];
      double* ye = y + layout.offset(e, g);
      for (int i = 0; i < n; ++i) {
        double s = 0.0;
        for (int c = 0; c < kCorners; ++c)
          s += prolong_[i * kCorners + c] * corner[c];
        ye[i] += s;
      }
    }
  }
}

bool preconditions_gmres(const snap::Input& input,
                         const core::IterationHooks* hooks) {
  return !input.fixed_iterations && hooks == nullptr;
}

bool accelerates_source_iteration(const snap::Input& input,
                                  const core::IterationHooks* hooks) {
  return input.iteration_scheme == snap::IterationScheme::SourceIteration &&
         preconditions_gmres(input, hooks) && !input.any_reflective();
}

}  // namespace unsnap::accel

#include "accel/krylov.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas_like.hpp"
#include "util/assert.hpp"

namespace unsnap::accel {

namespace {

/// Cycle-start convergence logic. When a converged_test is given it
/// is the sole authority: the 2-norm target then only paces the cycles,
/// and is tightened whenever it has been met but the authority still says
/// no (otherwise the solve would declare victory on the 2-norm while the
/// pointwise test keeps failing on relatively-large residuals at tiny
/// flux entries). An exactly zero residual is always converged.
bool residual_converged(const KrylovOptions& options,
                        std::span<const double> x, std::span<const double> r,
                        double beta, double& target) {
  if (beta == 0.0) return true;
  if (options.converged_test) {
    if (options.converged_test(x, r)) return true;
    // Demand one order beyond the current residual before the next
    // cycle-boundary check — the pointwise authority usually trails the
    // 2-norm by a few digits on fluxes spanning many magnitudes.
    if (target > 0.0 && beta <= target) target = 0.1 * beta;
    return false;
  }
  return beta <= target;
}

}  // namespace

Gmres::Gmres(std::size_t n, int restart) : n_(n), restart_(restart) {
  require(restart >= 1, "gmres: restart length must be >= 1");
  basis_.assign(n_ * static_cast<std::size_t>(restart_ + 1), 0.0);
  h_.assign(static_cast<std::size_t>(restart_ + 1) * h_cols(), 0.0);
  cs_.assign(h_cols(), 0.0);
  sn_.assign(h_cols(), 0.0);
  g_.assign(static_cast<std::size_t>(restart_ + 1), 0.0);
  y_.assign(h_cols(), 0.0);
  q_.assign(static_cast<std::size_t>(restart_ + 1), 0.0);
  r_.assign(n_, 0.0);
  w_.assign(n_, 0.0);
  z_.assign(n_, 0.0);
}

std::span<const double> Gmres::basis_vector(int j) const {
  UNSNAP_ASSERT(j >= 0 && j < last_cycle_size_);
  return {basis_.data() + n_ * static_cast<std::size_t>(j), n_};
}

void Gmres::form_iterate(int cols, std::span<const double> x,
                         const KrylovOptions& options,
                         std::span<double> out) {
  // Back-substitute R y = g over the first `cols` columns.
  for (int i = cols - 1; i >= 0; --i) {
    double s = g_[i];
    for (int k = i + 1; k < cols; ++k) s -= h(i, k) * y_[k];
    y_[i] = h(i, i) == 0.0 ? 0.0 : s / h(i, i);
  }
  if (!options.preconditioner) {
    if (out.data() != x.data()) std::copy(x.begin(), x.end(), out.begin());
    for (int j = 0; j < cols; ++j) linalg::axpy(y_[j], {vec(j), n_}, out);
    return;
  }
  std::fill(w_.begin(), w_.end(), 0.0);
  for (int j = 0; j < cols; ++j) linalg::axpy(y_[j], {vec(j), n_}, w_);
  options.preconditioner(w_, z_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = x[i] + z_[i];
}

void Gmres::recurrence_residual(int cols, std::span<double> r) {
  // The least-squares residual is (0, ..., 0, g_cols) in the rotated
  // basis; undo the Givens rotations, last first, to express it in V.
  std::fill(q_.begin(), q_.begin() + cols, 0.0);
  q_[cols] = g_[cols];
  for (int i = cols - 1; i >= 0; --i) {
    const double a = q_[i], c = q_[i + 1];
    q_[i] = cs_[i] * a - sn_[i] * c;
    q_[i + 1] = sn_[i] * a + cs_[i] * c;
  }
  std::fill(r.begin(), r.end(), 0.0);
  for (int i = 0; i <= cols; ++i) linalg::axpy(q_[i], {vec(i), n_}, r);
}

KrylovResult Gmres::solve(const LinearOperator& op, std::span<const double> b,
                          std::span<double> x,
                          const KrylovOptions& options) {
  require(b.size() == n_ && x.size() == n_,
          "gmres: vector length does not match the workspace");
  const auto nrm = [&](std::span<const double> v) {
    return options.norm2 ? options.norm2(v) : linalg::norm2(v);
  };
  const auto dotf = [&](std::span<const double> a,
                        std::span<const double> v) {
    return options.dot ? options.dot(a, v) : linalg::dot(a, v);
  };
  KrylovResult result;
  double target = std::max(options.abs_tol, options.rel_tol * nrm(b));
  last_cycle_size_ = 0;

  while (true) {
    // True residual r = b - A x (one apply; also GMRES's restart vector).
    if (result.applies >= options.max_applies) break;
    op(x, w_);
    ++result.applies;
    for (std::size_t i = 0; i < n_; ++i) r_[i] = b[i] - w_[i];
    const double beta = nrm(r_);
    result.residual_history.push_back(beta);
    if (residual_converged(options, x, r_, beta, target)) {
      result.converged = true;
      break;
    }
    if (result.iterations >= options.max_iters) break;

    // Arnoldi cycle seeded with the normalised residual.
    double* v0 = vec(0);
    for (std::size_t i = 0; i < n_; ++i) v0[i] = r_[i] / beta;
    g_[0] = beta;
    for (int i = 1; i <= restart_; ++i) g_[static_cast<std::size_t>(i)] = 0.0;
    int cols = 0;
    int formed = 1;
    int iterate_cols = -1;  // z_ holds the iterate of this many columns
    bool happy = false;
    for (int j = 0; j < restart_; ++j) {
      if (result.iterations >= options.max_iters ||
          result.applies >= options.max_applies)
        break;
      if (options.preconditioner) {
        options.preconditioner({vec(j), n_}, z_);
        iterate_cols = -1;
        op(z_, w_);
      } else {
        op({vec(j), n_}, w_);
      }
      ++result.applies;
      ++result.iterations;
      const double wnorm = nrm(w_);
      for (int i = 0; i <= j; ++i) {
        h(i, j) = dotf(w_, {vec(i), n_});
        linalg::axpy(-h(i, j), {vec(i), n_}, w_);
      }
      const double hsub = nrm(w_);
      h(j + 1, j) = hsub;
      happy = hsub <= 1e-14 * wnorm;  // Krylov space is invariant: exact solve
      if (!happy) {
        double* vnext = vec(j + 1);
        for (std::size_t i = 0; i < n_; ++i) vnext[i] = w_[i] / hsub;
        ++formed;
      }
      // Reduce column j to upper triangular with the accumulated Givens
      // rotations, then a new rotation zeroing the subdiagonal.
      for (int i = 0; i < j; ++i) {
        const double t = cs_[i] * h(i, j) + sn_[i] * h(i + 1, j);
        h(i + 1, j) = -sn_[i] * h(i, j) + cs_[i] * h(i + 1, j);
        h(i, j) = t;
      }
      const double a = h(j, j), sub = h(j + 1, j);
      const double rr = std::hypot(a, sub);
      cs_[j] = rr == 0.0 ? 1.0 : a / rr;
      sn_[j] = rr == 0.0 ? 0.0 : sub / rr;
      h(j, j) = rr;
      h(j + 1, j) = 0.0;
      g_[j + 1] = -sn_[j] * g_[j];
      g_[j] *= cs_[j];
      ++cols;
      // |g_{j+1}| is the least-squares residual norm of the cycle iterate.
      const double est = std::fabs(g_[j + 1]);
      result.residual_history.push_back(est);
      if (happy) break;
      if (target > 0.0 && est <= target) {
        if (!options.preconditioner || !options.converged_test) break;
        // Pointwise test on the recurrence residual: no apply, no restart.
        form_iterate(cols, x, options, z_);
        iterate_cols = cols;
        recurrence_residual(cols, r_);
        if (options.converged_test(z_, r_)) break;
        target = 0.1 * est;
      }
    }
    if (cols == 0) break;  // budget exhausted before any Arnoldi step
    last_cycle_size_ = formed;

    // Fold the cycle's correction into x (already formed in z_ when the
    // last step ran a recurrence check).
    if (iterate_cols == cols) std::copy(z_.begin(), z_.end(), x.begin());
    else form_iterate(cols, x, options, x);
  }
  return result;
}

}  // namespace unsnap::accel

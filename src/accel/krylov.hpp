#pragma once

#include <functional>
#include <span>
#include <vector>

namespace unsnap::accel {

/// Matrix-free restarted GMRES over flat double vectors. The operator is a
/// black box — for the transport binding in accel/inner.* one application
/// is exactly one sweep — so every operator the mini-app can express (any
/// CycleStrategy, ConcurrencyScheme, layout, solver kind) is accelerated
/// for free. Source iteration, the Richardson recurrence on the same
/// operator, lives in core::TransportSolver::run.
///
/// All inner products go through the serial linalg::blas_like kernels,
/// keeping the iterates bit-reproducible across OpenMP thread counts.

/// y = A x. x and y never alias; both have the solver's vector length.
using LinearOperator =
    std::function<void(std::span<const double> x, std::span<double> y)>;

struct KrylovOptions {
  // The GMRES restart length is a property of the Gmres workspace (it
  // sizes the stored basis), not an option here.
  int max_iters = 100;  // total Krylov iterations across cycles
  /// Cap on operator applications (the transport binding's sweep budget).
  /// GMRES spends one extra apply per cycle on the true residual; when
  /// preconditioned, a failed pointwise test no longer ends the cycle, so
  /// only a passing one pays that apply.
  int max_applies = 1 << 30;
  double abs_tol = 0.0;  // stop when ||r||_2 <= abs_tol ...
  double rel_tol = 0.0;  // ... or ||r||_2 <= rel_tol * ||b||_2
  /// Optional extra convergence test on the *true* residual, evaluated at
  /// cycle starts (where r = b - A x is formed anyway). The transport
  /// binding uses it for SNAP's pointwise max-relative-change criterion,
  /// which the 2-norm tests cannot express.
  std::function<bool(std::span<const double> x, std::span<const double> r)>
      converged_test;
  /// Optional right preconditioner z = P^-1 v (v and z never alias).
  /// Arnoldi then runs on A P^-1 and each cycle adds P^-1 V y to x, so x,
  /// the residuals and converged_test stay those of A x = b. P^-1 must be
  /// one fixed linear map: the basis is not flexible. A preconditioned
  /// solve also evaluates converged_test inside a cycle, once the Givens
  /// estimate meets the 2-norm target: on the cycle iterate x_k and its
  /// recurrence residual V_{k+1} Q_k^T (g_{k+1} e_{k+1}), which equals
  /// b - A x_k in exact arithmetic and costs no apply. A failure tightens
  /// the target tenfold and continues the same cycle; a pass ends it, and
  /// the next cycle-start true residual confirms it.
  LinearOperator preconditioner;
  /// Replacement inner product / norm (default: the serial linalg
  /// kernels). A distributed caller supplies globally-reduced versions so
  /// each rank can run the same recurrence over its slice of a partitioned
  /// vector: every rank then sees identical scalars and the per-rank
  /// iterates stay in lockstep (see comm::DistributedSweepSolver).
  std::function<double(std::span<const double>, std::span<const double>)>
      dot;
  std::function<double(std::span<const double>)> norm2;
};

struct KrylovResult {
  bool converged = false;
  int iterations = 0;  // Krylov iterations (Arnoldi steps)
  int applies = 0;     // operator applications
  /// ||r||_2 per iteration: entry 0 is the initial residual, then one entry
  /// per Krylov iteration (GMRES entries between cycle starts are the
  /// Givens least-squares estimate, exact in exact arithmetic).
  std::vector<double> residual_history;
  [[nodiscard]] double final_residual() const {
    return residual_history.empty() ? 0.0 : residual_history.back();
  }
};

/// Restarted GMRES with modified Gram-Schmidt and Givens least squares,
/// optionally right-preconditioned (KrylovOptions::preconditioner).
/// A class so the (restart+1) x n basis workspace survives across solves
/// (the transport driver solves once per outer) and so the tests can
/// inspect the Arnoldi basis orthonormality after a solve.
class Gmres {
 public:
  Gmres(std::size_t n, int restart);

  /// Solve A x = b starting from the incoming x (not assumed zero).
  KrylovResult solve(const LinearOperator& op, std::span<const double> b,
                     std::span<double> x, const KrylovOptions& options);

  /// Arnoldi basis of the most recent cycle: basis_size() orthonormal
  /// vectors of length n. Exposed for the orthonormality tests.
  [[nodiscard]] int basis_size() const { return last_cycle_size_; }
  [[nodiscard]] std::span<const double> basis_vector(int j) const;

 private:
  std::size_t n_;
  int restart_;
  int last_cycle_size_ = 0;
  std::vector<double> basis_;            // (restart+1) x n, row-major
  std::vector<double> h_;                // (restart+1) x restart Hessenberg
  std::vector<double> cs_, sn_, g_, y_;  // Givens rotations + projected rhs
  std::vector<double> q_;                // Q^T (g_{k+1} e_{k+1})
  std::vector<double> r_, w_, z_;  // residual / candidate / P^-1 vectors

  [[nodiscard]] double* vec(int j) { return basis_.data() + n_ * j; }
  /// out = x + P^-1 V y over the first `cols` Arnoldi vectors (out may be
  /// x): the iterate of the current cycle.
  void form_iterate(int cols, std::span<const double> x,
                    const KrylovOptions& options, std::span<double> out);
  /// r = V_{cols+1} Q^T (g_cols e_cols): the residual of that iterate as
  /// the Arnoldi recurrence carries it.
  void recurrence_residual(int cols, std::span<double> r);
  [[nodiscard]] double& h(int i, int j) { return h_[h_cols() * i + j]; }
  [[nodiscard]] std::size_t h_cols() const {
    return static_cast<std::size_t>(restart_);
  }
};

}  // namespace unsnap::accel

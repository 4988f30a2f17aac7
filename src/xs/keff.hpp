#pragma once

#include <memory>
#include <vector>

#include "core/balance.hpp"
#include "core/transport_solver.hpp"
#include "xs/library.hpp"

namespace unsnap::xs {

/// Controls of the k-eigenvalue power iteration (`[xs]` deck section).
struct KeffOptions {
  /// Downscatter-ordered groupset partition; empty = default_groupsets of
  /// the problem's cross sections (maximal splitting the scattering
  /// structure permits).
  std::vector<GroupRange> groupsets;
  double k_tol = 1e-6;        // |k_new - k| stopping criterion
  double fission_tol = 1e-5;  // max relative fission-source change
  int max_outers = 100;
  /// Shifted (Lyusternik) fission-source extrapolation: every fifth outer
  /// the source step is amplified by sigma/(1 - sigma) with sigma the
  /// current dominance-ratio estimate, collapsing the slowly-decaying
  /// first harmonic. Off by default (plain power iteration).
  bool extrapolate = false;
};

/// Outcome of one power iteration.
struct KeffResult {
  double k = 1.0;
  bool converged = false;
  int outers = 0;
  double dominance_ratio = 0.0;       // last sigma estimate
  double final_k_change = 0.0;
  double final_fission_change = 0.0;
  std::vector<double> k_history;      // k after each outer
  /// Max relative fission-source change of each outer (the delta the
  /// outer test reads); ends at final_fission_change.
  std::vector<double> fission_history;
  int inners = 0;                     // summed over groupset solves
  int sweeps = 0;
  int krylov_iters = 0;               // gmres scheme only
  /// Whether the groupset inners ran under DSA (gmres preconditioner or
  /// source-iteration correction), and the CG iterations of its solves.
  bool diffusion_preconditioned = false;
  int dsa_pcg_iters = 0;
  std::vector<long long> groupset_sweeps;  // [set] cumulative sweeps
  double total_seconds = 0.0;
  /// Summed over the groupset solvers, which sweep one after another:
  /// wall time inside the sweeps, and the solve time within them (when
  /// input.time_solve).
  double assemble_solve_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// k-eigenvalue driver: power iteration over the fission source around
/// block Gauss-Seidel groupset solves. Each groupset owns a full
/// core::TransportSolver over the shared discretisation, seeing only its
/// in-set scattering block; fission (chi_g / k) and cross-set scattering
/// enter through the solver's additive coupling source, so both iteration
/// schemes, preassembly and every concurrency scheme work per groupset
/// exactly as they do for fixed-source runs. Sets are solved in
/// downscatter order with the freshest global flux (Gauss-Seidel), which
/// makes a pure-downscatter library converge its scattering source in one
/// pass per outer.
///
/// input.fixed_iterations picks the inner policy. With true every
/// groupset solve spends its whole iitm x oitm budget in every outer (the
/// paper's timing setup) and the power iteration stops on its last step:
/// |dk| <= k_tol and delta <= fission_tol, where delta is the max relative
/// fission-source change of the outer. With false iitm x oitm is a cap:
/// outer k's groupset solves stop at the tolerance
///   max(0.1 epsi, f delta_{k-1})   (delta_{-1} = 1),
/// with f = 1 for a groupset whose source iteration is DSA-corrected
/// (accel::accelerates_source_iteration) and f = 0.1 otherwise, so early
/// outers sweep a few times and late ones converge tightly. The
/// power iteration then stops on a bound of its error rather than its
/// step: |dk| <= k_tol and delta_k max(1, sigma/(1 - sigma)) <=
/// fission_tol, with sigma = delta_k / delta_{k-1} the dominance-ratio
/// estimate, never at outer 0 and never while sigma >= 1. A step shrinks
/// when an outer does little work, not only when the error is small.
///
/// All cross-thread reductions (fission production, source norms) are
/// serial element-ordered loops, so k histories are bitwise-identical
/// across thread counts and concurrency schemes.
class KeffSolver {
 public:
  /// `input` is the global flat input (its ng spans the whole library);
  /// `problem` carries the fission-extended cross sections (xs.has_fission
  /// must hold). The external source in `problem` is ignored: keff is a
  /// pure eigenvalue problem.
  KeffSolver(std::shared_ptr<const core::Discretization> disc,
             const snap::Input& input, const core::ProblemData& problem,
             KeffOptions options);

  KeffResult run();

  [[nodiscard]] const std::vector<GroupRange>& groupsets() const {
    return sets_;
  }
  [[nodiscard]] int num_groupsets() const {
    return static_cast<int>(sets_.size());
  }
  /// Global scalar flux (normalised to unit fission production).
  [[nodiscard]] const core::NodalField& scalar_flux() const { return phi_; }
  [[nodiscard]] double k() const { return k_; }
  [[nodiscard]] const core::TransportSolver& groupset_solver(int set) const {
    return *solvers_[static_cast<std::size_t>(set)];
  }

  /// Summed per-groupset balance with the fission ledger filled: at
  /// convergence fission/k = absorption + leakage (up to the iteration
  /// tolerance); per-group entries live at their global group index.
  [[nodiscard]] core::BalanceReport balance() const;

  /// Forwarded to every groupset solver.
  void set_observer(core::IterationObserver* observer);
  void enable_preassembly();
  [[nodiscard]] std::size_t preassembly_bytes() const;

 private:
  std::shared_ptr<const core::Discretization> disc_;
  snap::Input input_;            // global (ng = library ng)
  core::ProblemData problem_;    // global fission-extended data
  KeffOptions options_;
  std::vector<GroupRange> sets_;
  std::vector<std::unique_ptr<core::TransportSolver>> solvers_;

  core::NodalField phi_;                   // global scalar flux
  std::vector<core::NodalField> phi_mom_;  // nmom > 1 companions
  /// Normalised fission source F(e*n + i) = sum_g nu_sigf phi_g, scaled
  /// to unit production.
  std::vector<double> fission_;
  double k_ = 1.0;
  core::IterationObserver* observer_ = nullptr;

  /// sum_e sum_i w_i F(e, i) (serial, element-ordered).
  [[nodiscard]] double production(const std::vector<double>& fission) const;
  void compute_fission(std::vector<double>& out) const;
  /// Fill a groupset solver's coupling source with chi/k fission plus
  /// out-of-set scattering from the global flux.
  void fill_coupling(int set);
  void scatter_flux(int set);  // global slice -> set solver state
  void gather_flux(int set);   // set solver flux -> global slice
  void scale_state(double factor);
};

}  // namespace unsnap::xs

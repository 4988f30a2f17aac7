#pragma once

#include <functional>
#include <memory>
#include <span>

#include "core/balance.hpp"
#include "core/observer.hpp"
#include "core/preassembly.hpp"
#include "core/source.hpp"
#include "core/sweeper.hpp"

namespace unsnap::accel {
class DiffusionPreconditioner;
}

namespace unsnap::core {

/// Outcome of a TransportSolver::run().
struct IterationResult {
  bool converged = false;
  int outers = 0;
  int inners = 0;                    // total inner iterations (all outers)
  int sweeps = 0;    // total transport sweeps (== inners under SI)
  int krylov_iters = 0;  // Arnoldi steps (gmres scheme only)
  /// Whether the inners were diffusion-accelerated (accel/dsa.hpp: the
  /// gmres right preconditioner, or the correction after every
  /// source-iteration sweep), and the CG iterations of their diffusion
  /// solves.
  bool diffusion_preconditioned = false;
  int dsa_pcg_iters = 0;
  double final_inner_change = 0.0;   // last inner dfmxi
  double final_outer_change = 0.0;   // last outer dfmxo
  double total_seconds = 0.0;
  double assemble_solve_seconds = 0.0;  // wall time inside the sweeps
  double solve_seconds = 0.0;  // per-thread solve time (if timed; Sweeper)
  /// Max flux change per inner (SI: one entry per sweep; gmres: one entry
  /// per pointwise check); globally reduced when the loop runs distributed.
  std::vector<double> inner_history;
  /// gmres only: relative 2-norm residual per Krylov iteration (entry 0 is
  /// the initial residual of the first outer's inner solve).
  std::vector<double> residual_history;
};

/// Seams that let a distributed solve run TransportSolver::run() over one
/// rank's slice of a partitioned problem (comm::DistributedSweepSolver):
/// the sweeps become the rank's exchange sweeps, dot/norm2 become
/// globally-reduced inner products, reduce_max wraps the pointwise
/// convergence measures, and refresh also re-anchors cross-rank lagged
/// couplings. Every reduction returns the identical value on every rank,
/// so the per-rank iterations stay in lockstep and take the same
/// branches. Unset members fall back to the single-domain behaviour.
struct IterationHooks {
  std::function<void()> sweep;         // default: sweep()
  std::function<void()> sweep_frozen;  // default: sweep(true)
  std::function<void()> refresh;       // default: refresh_lagged_couplings()
  std::function<double(std::span<const double>, std::span<const double>)>
      dot;
  std::function<double(std::span<const double>)> norm2;
  std::function<double(double)> reduce_max;  // global max of a local max
};

/// The UnSNAP mini-app: owns the discretisation, problem data and solution
/// state and drives SNAP's outer/inner source iteration around the
/// wavefront sweeps. The fine-grained methods (update_*_source, sweep,
/// inner_change) are public so the distributed solver and the tests can
/// interleave halo exchanges and inspect single iterations.
class TransportSolver {
 public:
  explicit TransportSolver(const snap::Input& input);
  /// Use a caller-supplied mesh (block Jacobi subdomains, bespoke tests).
  TransportSolver(mesh::HexMesh mesh, const snap::Input& input);
  /// Share an existing discretisation across solvers — the benchmark
  /// harness sweeps schemes/threads/solvers without rebuilding the mesh,
  /// element integrals and schedules for every configuration. The input's
  /// order/nang/quadrature must match the discretisation.
  TransportSolver(std::shared_ptr<const Discretization> disc,
                  const snap::Input& input);
  /// Fully custom problem data (bespoke materials/sources beyond the SNAP
  /// options — see the shielding and duct examples).
  TransportSolver(std::shared_ptr<const Discretization> disc,
                  const snap::Input& input, ProblemData problem);
  ~TransportSolver();  // out of line: dsa_ holds an incomplete type here

  /// Full solve: oitm outers of up to iitm inners; with
  /// input.fixed_iterations the loop ignores the convergence tests and
  /// always runs oitm x iitm sweeps (the paper's timing setup). A source
  /// iteration that converges on one domain without reflective sides
  /// follows every sweep with the DSA correction
  /// (accel::accelerates_source_iteration). With
  /// input.iteration_scheme == Gmres the within-group solve is delegated
  /// to the sweep-preconditioned Krylov driver (accel::run_gmres), with
  /// the same outer loop and convergence vocabulary. `hooks` (optional)
  /// runs either loop over one rank of a distributed solve; see
  /// IterationHooks.
  IterationResult run(const IterationHooks* hooks = nullptr);

  /// Tolerance of run()'s convergence tests: the inner test, the 100x
  /// looser outer test and GMRES's residual target. input.epsi until set;
  /// the k-eigenvalue driver tightens it outer by outer.
  void set_tolerance(double tolerance);
  [[nodiscard]] double tolerance() const { return tolerance_; }

  // --- single-iteration control ---------------------------------------
  void update_outer_source();  // group-to-group scattering (Jacobi)
  void update_inner_source();  // within-group scattering
  /// One full sweep; updates psi and phi, snapshots phi for inner_change()
  /// and refreshes reflective boundary data for the next sweep.
  ///
  /// With frozen_coupling the iteration-lagged couplings stay frozen: the
  /// cycle-lag snapshot is not recaptured and the reflective boundary
  /// mirror is not refreshed, so the sweep is an affine map of the flux
  /// moments alone. This is the operator application of the matrix-free
  /// Krylov inners (accel/) — Krylov basis vectors are not physical
  /// fluxes, and folding them into the lagged couplings would destroy the
  /// linearity GMRES needs. Updates psi and phi only (no phi_old_
  /// snapshot).
  void sweep(bool frozen_coupling = false);
  /// Re-anchor the lagged couplings on the current (physical) psi: mirror
  /// the reflective boundaries and recapture the cycle-lag snapshot.
  /// Called by the Krylov inner driver once psi holds the swept Krylov
  /// solution, matching what sweep() does around each source iteration.
  void refresh_lagged_couplings();

  /// Split sweep for drivers that interleave halo traffic between octants
  /// (comm::DistributedSweepSolver's pipelined exchange). sweep(frozen)
  /// is exactly sweep_begin(frozen) + the eight sweep_octant() calls in
  /// order + sweep_end(frozen), so every sweep takes this one path.
  /// Between the calls the caller may rewrite the halo slots of
  /// boundary_values(); nothing else may be touched.
  void sweep_begin(bool frozen_coupling = false);
  void sweep_octant(int oct);
  void sweep_end(bool frozen_coupling = false);

  [[nodiscard]] double inner_change() const;

  // --- state access -----------------------------------------------------
  [[nodiscard]] const Discretization& discretization() const {
    return *disc_;
  }
  [[nodiscard]] const ProblemData& problem() const { return problem_; }
  /// Mutable problem data (manufactured solutions rewrite the source).
  [[nodiscard]] ProblemData& problem() { return problem_; }
  [[nodiscard]] const NodalField& scalar_flux() const { return phi_; }
  [[nodiscard]] NodalField& scalar_flux() { return phi_; }
  [[nodiscard]] const AngularFlux& angular_flux() const { return psi_; }
  [[nodiscard]] AngularFlux& angular_flux() { return psi_; }
  /// Flux moments above l = 0 (empty unless input.nmom > 1); entry m is
  /// the flat spherical-harmonic index m+1.
  [[nodiscard]] const std::vector<NodalField>& flux_moments() const {
    return phi_mom_;
  }
  /// Mutable moments (the Krylov inner driver scatters iterates into them).
  [[nodiscard]] std::vector<NodalField>& flux_moments() { return phi_mom_; }

  /// Prescribed boundary flux (Dirichlet inflow / halo target). Allocated
  /// on first access; inactive means vacuum.
  BoundaryAngularFlux& boundary_values();
  [[nodiscard]] bool has_boundary_values() const { return bc_.active(); }

  /// Per-angle (manufactured) source; allocated on first access.
  AngularFlux& angular_source();

  /// Additive isotropic coupling source over (element, group), folded on
  /// top of the scattering outer source at every update_outer_source().
  /// This is the seam the k-eigenvalue driver feeds: each groupset block
  /// writes its fission + cross-groupset scattering source here before
  /// running the block's solve, so both iteration schemes, preassembly
  /// and every concurrency scheme see it without modification (GMRES
  /// freezes the outer source per outer, exactly as for qext). Allocated
  /// on first access; inactive (absent) otherwise.
  NodalField& coupling_source();
  [[nodiscard]] bool has_coupling_source() const {
    return coupling_.size() != 0;
  }
  /// Moment-space companions of coupling_source(): nmom^2 - 1 fields,
  /// entry m feeding the outer source of flat harmonic index m + 1.
  /// Allocated on first access (nmom > 1 only; empty otherwise).
  std::vector<NodalField>& coupling_source_moments();

  /// Diffusion operator of the GMRES preconditioner and the
  /// source-iteration correction (accel/dsa.hpp), built at the first call
  /// from the cross sections as they stand then (the time integrator folds
  /// 1/(v dt) into sigt_eg after construction) and reused by every later
  /// inner solve, keff's outers included.
  accel::DiffusionPreconditioner& diffusion_preconditioner();

  /// Switch the sweep kernel to pre-assembled operators (paper §IV-B-1).
  void enable_preassembly();
  /// Adopt an operator built by another solver over the same
  /// discretisation/problem (the daemon's lowering cache injects here so
  /// digest-identical submissions skip the inversion). Dimensions are
  /// checked; a null pointer disables preassembly.
  void set_preassembly(std::shared_ptr<const PreassembledOperator> pre);
  [[nodiscard]] const PreassembledOperator* preassembly() const {
    return pre_.get();
  }
  /// Shared handle for caching the built operator alongside the
  /// discretisation (what the serve layer stores after a cold run).
  [[nodiscard]] std::shared_ptr<const PreassembledOperator>
  shared_preassembly() const {
    return pre_;
  }

  [[nodiscard]] BalanceReport balance() const;
  [[nodiscard]] const snap::Input& input() const { return input_; }

  /// Subscribe an observer to the iteration events of run() (both
  /// schemes). Not owned; nullptr unsubscribes. See core::IterationObserver
  /// for the event contract.
  void set_observer(IterationObserver* observer) { observer_ = observer; }
  [[nodiscard]] IterationObserver* observer() const { return observer_; }

  /// Cumulative sweep timings since construction.
  [[nodiscard]] double assemble_solve_seconds() const {
    return assemble_solve_seconds_;
  }
  [[nodiscard]] double solve_seconds() const { return solve_seconds_; }

 private:
  snap::Input input_;
  std::shared_ptr<const Discretization> disc_;
  ProblemData problem_;
  Assembler assembler_;
  Sweeper sweeper_;
  SourceUpdater sources_;
  AngularFlux psi_;
  NodalField phi_, phi_old_, qout_, qin_;
  std::vector<NodalField> phi_mom_, qout_mom_, qin_mom_;  // nmom > 1 only
  NodalField coupling_;                        // keff groupset coupling
  std::vector<NodalField> coupling_mom_;       // its nmom > 1 companions
  BoundaryAngularFlux bc_;
  /// Previous-iterate lagged-face traces, sized (and captured per sweep)
  /// only when the schedule set broke sweep cycles: lagged faces read
  /// from here so their semantics are deterministic across concurrency
  /// schemes and thread counts.
  LagSnapshot lag_;
  std::unique_ptr<AngularFlux> qang_;
  std::shared_ptr<const PreassembledOperator> pre_;
  std::unique_ptr<accel::DiffusionPreconditioner> dsa_;
  IterationObserver* observer_ = nullptr;
  double tolerance_;
  double assemble_solve_seconds_ = 0.0;
  double solve_seconds_ = 0.0;

  [[nodiscard]] SweepState make_state();
  /// Gather the current psi traces behind every lagged face into lag_
  /// (called at sweep start; lagged faces then read last-sweep data).
  void capture_lag_snapshot();
  /// Mirror outgoing boundary traces into the sign-flipped octants of the
  /// boundary storage (reflective sides only).
  void apply_reflective_boundaries();
};

}  // namespace unsnap::core

#pragma once

#include <vector>

#include "core/assembler.hpp"
#include "util/threads.hpp"

namespace unsnap::core {

using snap::ConcurrencyScheme;

/// Execution configuration of one sweep (the experiment axes of
/// Figures 3/4 and Table II).
struct SweepConfig {
  ConcurrencyScheme scheme = ConcurrencyScheme::ElementsGroups;
  linalg::SolverKind solver = linalg::SolverKind::GaussianElimination;
  /// Loop-collapse decode order; must match the flux layout for the
  /// paper's matched loop-order/data-layout schemes.
  FluxLayout loop_order = FluxLayout::AngleElementGroup;
  bool time_solve = false;
  int ng = 1;
  /// Legendre scattering orders; > 1 enables the moment machinery.
  int nmom = 1;
};

/// Executes full transport sweeps: all octants, all angles following each
/// angle's bucketed schedule, threading the configured loops. Owns the
/// per-thread assembly scratch.
class Sweeper {
 public:
  Sweeper(const Assembler& assembler, SweepConfig config);

  /// One full sweep is sweep_begin + the eight sweep_octant calls in
  /// order + sweep_end, split so callers can interleave work between
  /// octants (the pipelined halo exchange): begin zeroes phi and the
  /// accumulators, each sweep_octant solves every (angle, element, group)
  /// of one octant into psi and phi, end folds up the timers.
  void sweep_begin(SweepState& state);
  void sweep_octant(SweepState& state, int oct);
  void sweep_end();

  /// Wall time of the last sweep's assemble/solve region.
  [[nodiscard]] double last_sweep_seconds() const { return sweep_seconds_; }
  /// Time the last sweep spent in the dense solve (valid when
  /// config.time_solve), per thread: every solving thread's time in the
  /// solve kernel, averaged over those threads. It is at most
  /// last_sweep_seconds() at any thread count, so their ratio is the
  /// paper's "% of runtime in the solve".
  [[nodiscard]] double last_solve_seconds() const { return solve_seconds_; }

  [[nodiscard]] const SweepConfig& config() const { return config_; }

 private:
  /// Everything the batched kernel needs per batched angle, precomputed
  /// once per batch outside the parallel region: the angle's SweepState
  /// (schedule + ylm rows bound), its direction and quadrature weight.
  struct BatchAngle {
    SweepState state;
    Vec3 omega{};
    double weight = 0.0;
    int a = 0;
  };

  const Assembler* assembler_;
  SweepConfig config_;
  KernelOptions kernel_options_;
  std::vector<AssemblyContext> contexts_;  // one per OpenMP thread
  std::vector<BatchAngle> batch_angles_;   // per-batch scratch (AngleBatch)
  double sweep_seconds_ = 0.0;
  double solve_seconds_ = 0.0;
  /// Spherical-harmonic coefficient tables per (octant, angle):
  /// accumulation row Y_lm(omega) and source row (2l+1) Y_lm(omega).
  NDArray<double, 3> ylm_acc_;
  NDArray<double, 3> ylm_src_;

  // The per-scheme loops, templated on the kernel extent E (an Extent<N,
  // NF>) that sweep_octant picks once per octant. Every loop hands its
  // units to Assembler::submit and flushes each thread at bucket ends.
  template <class E, class Body>
  void parallel_bucket(long count, util::RegionErrors& errors, Body&& body);
  template <class E>
  void sweep_angle(SweepState state, int oct, int a);
  template <class E>
  void sweep_octant_angles_atomic(const SweepState& state, int oct);
  template <class E>
  void sweep_octant_batched(const SweepState& state, int oct);
  /// Grow the per-thread scratch if the OpenMP thread count was raised
  /// after construction (contexts_[omp_get_thread_num()] must never be
  /// out of bounds).
  void ensure_contexts();
};

}  // namespace unsnap::core

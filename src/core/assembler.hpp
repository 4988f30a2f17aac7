#pragma once

#include <array>
#include <span>
#include <vector>

#include "core/discretization.hpp"
#include "core/flux_storage.hpp"
#include "core/problem_data.hpp"
#include "linalg/gauss_elim.hpp"
#include "linalg/solver.hpp"
#include "util/timer.hpp"

namespace unsnap::core {

class PreassembledOperator;
struct SweepState;

/// One unit of sweep work: an (angle, element, group) system of the bucket
/// being swept. The units of one bucket are independent of each other.
struct SweepUnit {
  const SweepState* state = nullptr;  // bound to the unit's angle
  Vec3 omega{};
  double weight = 0.0;  // quadrature weight of the angle
  int oct = 0, a = 0, e = 0, g = 0;
};

/// How a sweep runs the kernel on the units it submits.
struct KernelOptions {
  linalg::SolverKind solver = linalg::SolverKind::GaussianElimination;
  bool atomic_phi = false;  // atomic phi accumulation (angle-threaded)
  bool time_solve = false;  // accumulate solve time into solve_seconds
};

/// Whether an element with n nodes, nf per face, runs the kernels at the
/// fixed order-1 extent (see Extent and with_extent).
[[nodiscard]] constexpr bool fixed_extent(int n, int nf) {
  return n == 8 && nf == 4;
}

/// The group-independent part of one (angle, element)'s system. Of
///   A_g = sigma_g M - Omega . G + sum_{outflow f} Omega . F_f
/// only sigma_g M depends on the group, so the streaming term Omega . G
/// and each face's Omega . F_f are built once and shared by every group the
/// sweep solves for that (angle, element). outflow[f] says whether face f's
/// coupling joins the matrix or, as an inflow face, multiplies the upwind
/// trace on the right-hand side.
struct ElementCoupling {
  AlignedVector<double> stream;  // n x n, Omega . G
  AlignedVector<double> faces;   // kFacesPerHex blocks of nf x nf, Omega . F_f
  std::array<bool, fem::kFacesPerHex> outflow{};
  int nf = 0;

  [[nodiscard]] const double* face(int f) const {
    return faces.data() + static_cast<std::size_t>(f) * nf * nf;
  }
  void resize(int n, int nf);
};

/// Per-thread scratch for the assemble/solve kernel; allocated once per
/// sweep thread so the hot loop never touches the allocator.
struct AssemblyContext {
  linalg::Matrix a;                  // n x n system matrix
  AlignedVector<double> rhs;         // n
  AlignedVector<double> upwind;      // nf gathered neighbour trace
  AlignedVector<double> qtmp;        // n source staging (angular source)
  ElementCoupling coupling;          // of the (angle, element) in hand
  linalg::SolveWorkspace workspace;
  double solve_seconds = 0.0;        // accumulated when timing is enabled
  Stopwatch solve_watch;
  // Units queued for the next lockstep solve and their lane-interleaved
  // systems (fixed extent only).
  std::array<SweepUnit, linalg::kLanes> queue;
  int queued = 0;
  linalg::LaneBlock lanes;

  void resize(int n, int nf);
};

/// Compact previous-iterate storage for cycle-broken (lagged) faces: one
/// face trace (nodes-per-face values, pre-gathered into the downstream
/// element's face-node order) per lagged face of each angle's schedule,
/// per group. The transport solver captures it at sweep start and the
/// assembly kernel reads it instead of the neighbour's live psi, so
/// lagged faces have deterministic previous-iterate semantics at the
/// cost of a few hundred doubles instead of a full psi copy.
class LagSnapshot {
 public:
  LagSnapshot() = default;
  /// Size from the schedule set's lagged faces; empty (inactive) when no
  /// schedule broke a cycle.
  LagSnapshot(const sweep::ScheduleSet& schedules, int ng, int nf);

  [[nodiscard]] bool active() const { return !data_.empty(); }
  [[nodiscard]] double* row(int oct, int a, int slot, int g) {
    return data_.data() + offset(oct, a, slot, g);
  }
  [[nodiscard]] const double* row(int oct, int a, int slot, int g) const {
    return data_.data() + offset(oct, a, slot, g);
  }

 private:
  [[nodiscard]] std::size_t offset(int oct, int a, int slot, int g) const {
    return base_[static_cast<std::size_t>(oct) * nang_ + a] +
           (static_cast<std::size_t>(slot) * ng_ + g) * nf_;
  }
  std::size_t nang_ = 0, ng_ = 0, nf_ = 0;
  std::vector<std::size_t> base_;  // per (octant, angle)
  std::vector<double> data_;
};

/// References to the solution state one sweep works on. qang (per-angle
/// source) and bc (prescribed boundary flux) are optional; pre switches the
/// kernel to the pre-assembled operator path (no matrix assembly/solve).
///
/// Anisotropic scattering (nmom > 1) adds the higher flux/source moment
/// fields and per-ordinate spherical-harmonic coefficient tables; the
/// sweeper points ylm_acc/ylm_src at the current angle's row before each
/// bucket. Moment index m here is the flat (l, m) index minus one (the
/// l = 0 moment is phi/qin themselves).
struct SweepState {
  AngularFlux* psi = nullptr;
  NodalField* phi = nullptr;
  /// Schedule of the ordinate currently being swept (set per angle by the
  /// sweeper). Together with lag it gives cycle-broken (lagged) faces
  /// well-defined previous-iterate semantics: without the snapshot a
  /// lagged read would return whatever the neighbour holds right now —
  /// racy under element threading when both ends share a bucket, and
  /// schedule-order dependent even serially.
  const sweep::SweepSchedule* schedule = nullptr;
  /// Previous-iterate traces for lagged-face reads (null when the
  /// schedule set broke no cycles; lagged faces then never occur).
  const LagSnapshot* lag = nullptr;
  const NodalField* qin = nullptr;
  const AngularFlux* qang = nullptr;
  const BoundaryAngularFlux* bc = nullptr;
  const PreassembledOperator* pre = nullptr;
  std::vector<NodalField>* phi_hi = nullptr;        // count-1 fields
  const std::vector<NodalField>* qmom_hi = nullptr; // count-1 fields
  const double* ylm_acc = nullptr;  // Y_lm(omega), count entries
  const double* ylm_src = nullptr;  // (2l+1) Y_lm(omega), count entries
  int moment_count = 1;
};

/// Node counts the element kernels are compiled for. Extent<8, 4> is the
/// order-1 hexahedron (8 nodes, 4 per face): its 8 x 8 systems, face blocks
/// and node loops get compile-time trip counts and unroll. Every other
/// order runs the same kernels at Extent<kDynamic, kDynamic>, with the node
/// counts read at run time; instantiating each order would multiply the
/// code for systems (27 x 27 and up) whose cost is the O(n^3) arithmetic,
/// not the loop overhead the fixed extent removes.
template <int N, int NF>
struct Extent {
  static constexpr int n = N;
  static constexpr int nf = NF;
};

/// Call f with the kernel extent of `disc`'s element order. Callers pick
/// it once, outside their element loops.
template <typename F>
void with_extent(const Discretization& disc, F&& f) {
  if (fixed_extent(disc.num_nodes(), disc.nodes_per_face()))
    f(Extent<8, 4>{});
  else
    f(Extent<linalg::kDynamic, linalg::kDynamic>{});
}

/// The central computation of the paper (Fig. 2): for one
/// (octant, angle, element, group), build the small dense system
///   A = sigma_t M - Omega . G + sum_{outflow f} Omega . F_f
///   b = M (q_in + q_ang) - sum_{inflow f} Omega . F_f psi_upwind
/// solve A psi = b, store psi and accumulate the scalar flux.
///
/// Assembly runs in two steps: couple() builds the (angle, element)'s
/// group-independent terms, then assemble_matrix and assemble_rhs add each
/// group's sigma_t M, source and upwind trace. Every entry is summed in the
/// same order as a one-step assembly would, so sharing the coupling
/// between groups changes no bit of a result.
///
/// The kernels are templates over the extent (N nodes, NF per face; see
/// Extent), instantiated for <8, 4> and for the dynamic default.
class Assembler {
 public:
  Assembler(const Discretization& disc, const ProblemData& problem)
      : disc_(&disc), problem_(&problem) {}

  /// Build element e's coupling for direction omega into c: the outflow
  /// flags and inflow faces' Omega . F_f always, and with `matrix` also
  /// Omega . G and the outflow faces' Omega . F_f (the pre-assembled path
  /// assembles only right-hand sides and needs neither).
  template <int N = linalg::kDynamic, int NF = linalg::kDynamic>
  void couple(ElementCoupling& c, int e, const Vec3& omega,
              bool matrix) const;

  /// Assemble the matrices of sigt.size() systems that share element e and
  /// the coupling c (built with `matrix`) and differ only in sigma_t:
  /// entry (i, j) of system l goes to a[(i * n + j) * S + l]. S = 1 is one
  /// contiguous n x n matrix; S = linalg::kLanes fills lanes of a
  /// linalg::LaneBlock, starting at the lane `a` points to.
  template <int N = linalg::kDynamic, int NF = linalg::kDynamic, int S = 1>
  void assemble_matrix(double* a, const ElementCoupling& c, int e,
                       std::span<const double> sigt) const;

  /// Assemble the right-hand side only into ctx.rhs, reading the inflow
  /// faces' Omega . F_f from c (element e's coupling for the unit's angle).
  template <int N = linalg::kDynamic, int NF = linalg::kDynamic>
  void assemble_rhs(AssemblyContext& ctx, const ElementCoupling& c,
                    const SweepState& state, int oct, int a, int e,
                    int g) const;

  /// Full kernel: assemble, solve (or apply the pre-assembled inverse),
  /// scatter psi, accumulate phi with quadrature weight `weight`.
  /// atomic_phi selects atomic accumulation (angle-threaded scheme);
  /// time_solve accumulates pure solve time into ctx.solve_seconds.
  template <int N = linalg::kDynamic, int NF = linalg::kDynamic>
  void process(AssemblyContext& ctx, const SweepState& state, int oct, int a,
               int e, int g, const Vec3& omega, double weight,
               linalg::SolverKind solver, bool atomic_phi,
               bool time_solve) const;

  /// The batch entry point every sweep scheme feeds. At the fixed extent,
  /// ge and ge-nopivot queue the unit on ctx and, once linalg::kLanes are
  /// queued, solve them together: consecutive lanes of one (angle,
  /// element) share one couple() call, each lane's system is assembled
  /// into ctx.lanes, one linalg::gauss_solve_lanes call eliminates them
  /// all, and psi and phi are stored lane by lane in submission order. A
  /// lane's psi is bitwise the one process() would give, so neither the
  /// lane nor the batch a unit lands in changes a result. Units swept
  /// through a preassembled operator queue the same way, so a run shares
  /// its right-hand-side couplings, and each is applied and stored in
  /// submission order. Everything else (lu, the dynamic extent) runs
  /// process() on the unit at once.
  template <int N, int NF>
  void submit(AssemblyContext& ctx, const SweepUnit& unit,
              const KernelOptions& options) const;

  /// Solve whatever ctx has queued. Every scheme flushes each thread at
  /// the end of its share of a bucket, because the next bucket reads this
  /// one's psi.
  template <int N, int NF>
  void flush(AssemblyContext& ctx, const KernelOptions& options) const;

  [[nodiscard]] const Discretization& discretization() const { return *disc_; }
  [[nodiscard]] const ProblemData& problem() const { return *problem_; }

 private:
  const Discretization* disc_;
  const ProblemData* problem_;

  /// Store one solved psi and accumulate it into phi (and the higher
  /// moments) with quadrature weight `weight`.
  template <int N>
  void store(const SweepState& state, int oct, int a, int e, int g,
             double weight, const double* psi, bool atomic_phi) const;
};

template <int N, int NF>
void Assembler::submit(AssemblyContext& ctx, const SweepUnit& unit,
                       const KernelOptions& options) const {
  const bool pre = unit.state->pre != nullptr;
  if (N == linalg::kDynamic ||
      (!pre && options.solver == linalg::SolverKind::LapackLu)) {
    process<N, NF>(ctx, *unit.state, unit.oct, unit.a, unit.e, unit.g,
                   unit.omega, unit.weight, options.solver,
                   options.atomic_phi, options.time_solve);
    return;
  }
  // A queue holds units of one kind: all solved in lockstep, or all
  // applied through a preassembled operator.
  if (ctx.queued > 0 && (ctx.queue[0].state->pre != nullptr) != pre)
    flush<N, NF>(ctx, options);
  ctx.queue[ctx.queued++] = unit;
  if (ctx.queued == linalg::kLanes) flush<N, NF>(ctx, options);
}

}  // namespace unsnap::core

#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace unsnap::linalg {

/// Hand-written dense Gaussian elimination, the paper's in-house solver
/// (§IV-B). The factorisation and right-hand-side updates are fused in a
/// single pass (no separate pivot array or triangular-solve call), which is
/// what makes it beat a library-style LU on small systems. Row updates are
/// vectorised with `omp simd` exactly as UnSNAP vectorised over element
/// nodes.
///
/// N is the kernel extent (matrix.hpp): instantiated for the order-1
/// element's N = 8, where A must be a contiguous 8 x 8 matrix, and for
/// kDynamic, the default.
///
/// Destroys A and b; on return b holds the solution x.
/// Throws NumericalError if a pivot is (numerically) zero.
template <int N = kDynamic>
void gauss_solve(MatrixView a, std::span<double> b);

/// Variant without partial pivoting. The upwind DG transport matrices are
/// coercive (positive definite in the energy norm) so elimination without
/// pivoting is stable in practice; this removes the pivot search from the
/// critical path. Throws NumericalError on a zero pivot.
template <int N = kDynamic>
void gauss_solve_nopivot(MatrixView a, std::span<double> b);

/// How many independent systems gauss_solve_lanes eliminates side by side.
/// Chosen by measurement on the order-1 8 x 8 systems, where 8 lanes beat 4.
inline constexpr int kLanes = 8;

/// Up to kLanes independent n x n systems stored lane-interleaved
/// (structure of arrays): entry (i, j) of lane l at a()[(i * n + j) *
/// kLanes + l], b_i at b()[i * kLanes + l] and the solution x_i at
/// x()[i * kLanes + l]. One elimination step then runs across the lanes as
/// a single loop instead of along one short row. Holds the scratch
/// gauss_solve_lanes needs, so a solve never allocates.
class LaneBlock {
 public:
  LaneBlock() = default;
  explicit LaneBlock(int n);

  [[nodiscard]] double* a() { return a_.data(); }
  [[nodiscard]] double* b() { return b_.data(); }
  [[nodiscard]] const double* x() const { return x_.data(); }

 private:
  template <int N>
  friend bool gauss_solve_lanes(LaneBlock&, int, bool);

  int n_ = 0;
  AlignedVector<double> a_, b_;  // the systems, left intact by a solve
  AlignedVector<double> work_;   // eliminated matrices
  AlignedVector<double> x_;      // eliminated right-hand sides, then x
  Matrix one_;                   // one lane's system, for the fallback
  AlignedVector<double> one_b_;
};

/// Solves lanes 0..lanes-1 (1 <= lanes <= kLanes) of the block in
/// lockstep: gauss_solve<N> when `pivot`, else gauss_solve_nopivot<N>.
/// Every lane runs the scalar kernel's own elimination body, so its
/// solution is bitwise the one that kernel gives the same system.
///
/// Lanes cannot swap rows independently, so the lockstep pass checks at
/// every column whether some lane's partial-pivot search would pick
/// another row, whether a pivot is zero or non-finite, and whether a
/// multiplier is exactly zero (a row the scalar kernel skips). If any of
/// these holds, every lane is re-solved one at a time by the scalar kernel
/// from the untouched a() and b(): it pivots, or throws its
/// NumericalError, exactly as for a lone system. Returns false when the
/// block took that fallback. Instantiated for N = 8.
template <int N>
bool gauss_solve_lanes(LaneBlock& block, int lanes, bool pivot);

}  // namespace unsnap::linalg

#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace unsnap::linalg {

/// Explicit inverse via LU (dgetri-style): used by the pre-assembled /
/// pre-inverted matrix mode the paper sketches as future work (§IV-B-1),
/// where each angle-group-element matrix is inverted once and every solve
/// becomes a matvec. `inv` must be n x n; `a` is destroyed and `pivots`
/// (n entries) is the caller's scratch, so the call never allocates.
/// N is the kernel extent (matrix.hpp): instantiated for the order-1
/// element's N = 8, where both matrices must be contiguous 8 x 8, and for
/// kDynamic, the default.
template <int N = kDynamic>
void invert(MatrixView a, MatrixView inv, std::span<int> pivots);

/// FLOP-count helpers used by the benchmark harness to report arithmetic
/// intensity (paper §II-C quotes 0.67 N^3 for dgesv).
[[nodiscard]] constexpr double flops_lu_solve(int n) {
  return 2.0 / 3.0 * n * n * n + 2.0 * n * n;
}
[[nodiscard]] constexpr double flops_matvec(int n) { return 2.0 * n * n; }

}  // namespace unsnap::linalg

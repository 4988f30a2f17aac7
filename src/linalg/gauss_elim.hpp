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

}  // namespace unsnap::linalg

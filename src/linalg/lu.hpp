#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace unsnap::linalg {

/// LAPACK-style dense LU with partial pivoting. This is the in-house
/// stand-in for Intel MKL's `dgesv` used by the paper's Table II: a
/// general-purpose, factor-then-solve library routine with pivot
/// bookkeeping and blocked trailing updates (panel width `kPanel`),
/// i.e. the structure that pays off once the matrix outgrows L1 but loses
/// to the fused hand-written elimination on tiny systems.
///
/// N is the kernel extent (matrix.hpp): instantiated for the order-1
/// element's N = 8, where the matrix must be contiguous 8 x 8, and for
/// kDynamic, the default.

inline constexpr int kPanel = 24;  // blocked-path panel width
inline constexpr int kBlockedThreshold = 48;  // use blocked path for n >= this

/// Factor A = P * L * U in place (LAPACK dgetrf semantics: L unit-lower,
/// U upper, pivots[k] = row swapped with row k at step k).
/// Throws NumericalError if U has a zero diagonal entry.
template <int N = kDynamic>
void lu_factor(MatrixView a, std::span<int> pivots);

/// Unblocked right-looking factorisation (internal building block of
/// lu_factor's panel step; exposed for testing and for the solver study).
void lu_factor_unblocked(MatrixView a, std::span<int> pivots);

/// Solve A x = b given the factorisation from lu_factor (dgetrs semantics);
/// b is overwritten with x.
template <int N = kDynamic>
void lu_solve_factored(ConstMatrixView lu, std::span<const int> pivots,
                       std::span<double> b);

/// Convenience dgesv equivalent: factor + solve. Destroys A and b; b holds
/// the solution on return.
template <int N = kDynamic>
void lapack_style_solve(MatrixView a, std::span<double> b,
                        std::span<int> pivots);

}  // namespace unsnap::linalg

#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace unsnap::linalg {

/// BLAS-like micro-kernels backing the blocked (LAPACK-style) LU. They are
/// deliberately written in the register-tiled style linear algebra
/// libraries use, because the point of the Table II comparison is
/// "library-grade blocked code vs fused hand-written elimination".

/// C -= A * B, row-major, cache-tiled. Shapes: A (m x k), B (k x n),
/// C (m x n).
void gemm_subtract(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// Solve L * X = B in place where L is the unit-lower-triangular factor
/// stored in the given square matrix (diagonal implicitly 1). B is
/// overwritten with X. Shapes: L (m x m), B (m x n). N is the kernel
/// extent (matrix.hpp): N = 8 takes contiguous 8 x 8 operands, kDynamic
/// (the default) any shape.
template <int N = kDynamic>
void trsm_lower_unit(ConstMatrixView l, MatrixView b);

/// Flat-vector (level-1) kernels backing the matrix-free Krylov solvers in
/// accel/: the vectors are NodalField storage viewed as one long array.
/// The reductions are deliberately serial (SIMD only): their summation
/// order must not depend on the OpenMP thread count, or the GMRES
/// iterates — and every golden digest downstream of them — would stop
/// being thread-bitwise-invariant.

/// <x, y>; spans must have equal length. Empty spans dot to 0.
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// ||x||_2 (0 for an empty span).
[[nodiscard]] double norm2(std::span<const double> x);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha.
void scal(double alpha, std::span<double> x);

}  // namespace unsnap::linalg

#include "linalg/invert.hpp"

#include <algorithm>

#include "linalg/blas_like.hpp"
#include "linalg/lu.hpp"
#include "util/assert.hpp"

namespace unsnap::linalg {

template <int N>
void invert(MatrixView a, MatrixView inv, std::span<int> pivots) {
  const int n = extent<N>(a.rows());
  const int lda = extent<N>(a.row_stride());
  const int ld = extent<N>(inv.row_stride());
  UNSNAP_ASSERT(a.cols() == n && a.row_stride() == lda && inv.rows() == n &&
                inv.cols() == n && inv.row_stride() == ld);
  lu_factor<N>(a, pivots);

  // A^{-1} = U^{-1} L^{-1} P, solved for all n columns at once by row
  // operations on inv: start from P, then the unit-lower and the upper
  // triangular solves, each an axpy over a contiguous row. Solving column
  // by column instead strides through the row-major inverse and
  // serialises a division and a horizontal sum per entry.
  double* const x = inv.data();
  for (int i = 0; i < n; ++i) {
    std::fill(x + i * ld, x + i * ld + n, 0.0);
    x[i * ld + i] = 1.0;
  }
  for (int k = 0; k < n; ++k)
    if (pivots[k] != k)
      std::swap_ranges(x + k * ld, x + k * ld + n, x + pivots[k] * ld);
  trsm_lower_unit<N>(a, inv);
  const double* const u = a.data();
  for (int i = n - 1; i >= 0; --i) {
    double* xi = x + i * ld;
    for (int j = i + 1; j < n; ++j) {
      const double uij = u[i * lda + j];
      const double* xj = x + j * ld;
#pragma omp simd
      for (int c = 0; c < n; ++c) xi[c] -= uij * xj[c];
    }
    const double r = 1.0 / u[i * lda + i];  // finite: lu_factor checked it
#pragma omp simd
    for (int c = 0; c < n; ++c) xi[c] *= r;
  }
}

template void invert<8>(MatrixView, MatrixView, std::span<int>);
template void invert<kDynamic>(MatrixView, MatrixView, std::span<int>);

}  // namespace unsnap::linalg

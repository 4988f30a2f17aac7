#include "linalg/gauss_elim.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace unsnap::linalg {

namespace {

// Shared elimination core; kPivot selects partial pivoting for column k.
template <int N, bool kPivot>
void eliminate(MatrixView a, std::span<double> b) {
  const int n = extent<N>(a.rows());
  const int ld = extent<N>(a.row_stride());
  UNSNAP_ASSERT(a.rows() == n && a.cols() == n && a.row_stride() == ld &&
                static_cast<int>(b.size()) == n);
  double* const m = a.data();

  for (int k = 0; k < n; ++k) {
    double* rk = m + k * ld;
    if constexpr (kPivot) {
      int piv = k;
      double best = std::fabs(rk[k]);
      for (int i = k + 1; i < n; ++i) {
        const double v = std::fabs(m[i * ld + k]);
        if (v > best) best = v, piv = i;
      }
      if (piv != k) {
        std::swap_ranges(rk + k, rk + n, m + piv * ld + k);
        std::swap(b[k], b[piv]);
      }
    }
    const double diag = rk[k];
    if (diag == 0.0 || !std::isfinite(diag))
      throw NumericalError("gauss_solve: zero pivot at column " +
                           std::to_string(k));
    const double inv = 1.0 / diag;
    const double bk = b[k];
    for (int i = k + 1; i < n; ++i) {
      double* ri = m + i * ld;
      const double factor = ri[k] * inv;
      if (factor == 0.0) continue;
#pragma omp simd
      for (int j = k + 1; j < n; ++j) ri[j] -= factor * rk[j];
      b[i] -= factor * bk;
    }
  }

  // Back substitution; b becomes x.
  for (int i = n - 1; i >= 0; --i) {
    const double* ri = m + i * ld;
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (int j = i + 1; j < n; ++j) acc += ri[j] * b[j];
    b[i] = (b[i] - acc) / ri[i];
  }
}

}  // namespace

template <int N>
void gauss_solve(MatrixView a, std::span<double> b) {
  eliminate<N, true>(a, b);
}

template <int N>
void gauss_solve_nopivot(MatrixView a, std::span<double> b) {
  eliminate<N, false>(a, b);
}

template void gauss_solve<8>(MatrixView, std::span<double>);
template void gauss_solve<kDynamic>(MatrixView, std::span<double>);
template void gauss_solve_nopivot<8>(MatrixView, std::span<double>);
template void gauss_solve_nopivot<kDynamic>(MatrixView, std::span<double>);

}  // namespace unsnap::linalg

#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "linalg/blas_like.hpp"
#include "util/assert.hpp"

namespace unsnap::linalg {

namespace {

// Swap full rows i and j of the matrix (used when applying panel pivots to
// the columns outside the panel).
void swap_row_range(MatrixView a, int i, int j, int c0, int c1) {
  if (i == j) return;
  double* ri = a.row(i);
  double* rj = a.row(j);
  std::swap_ranges(ri + c0, ri + c1, rj + c0);
}

[[noreturn]] void zero_pivot(int k) {
  throw NumericalError("lu_factor: zero pivot at column " + std::to_string(k));
}

// Right-looking unblocked LU over the rectangular panel rows x cols (N x N
// when the extent is fixed). Pivot search runs over the full row range;
// pivots are recorded relative to the panel's first row.
template <int N>
void factor_panel(MatrixView panel, std::span<int> pivots) {
  const int m = extent<N>(panel.rows());
  const int n = extent<N>(panel.cols());
  const int ld = extent<N>(panel.row_stride());
  UNSNAP_ASSERT(panel.rows() == m && panel.cols() == n &&
                panel.row_stride() == ld);
  double* const p = panel.data();
  const int steps = std::min(m, n);
  for (int k = 0; k < steps; ++k) {
    double* rk = p + k * ld;
    int piv = k;
    double best = std::fabs(rk[k]);
    for (int i = k + 1; i < m; ++i) {
      const double v = std::fabs(p[i * ld + k]);
      if (v > best) best = v, piv = i;
    }
    pivots[k] = piv;
    if (piv != k) std::swap_ranges(rk, rk + n, p + piv * ld);
    const double diag = rk[k];
    if (diag == 0.0 || !std::isfinite(diag)) zero_pivot(k);
    const double inv = 1.0 / diag;
    // Scale l21, then the rank-1 update A22 -= l21 * u12.
    for (int i = k + 1; i < m; ++i) p[i * ld + k] *= inv;
    for (int i = k + 1; i < m; ++i) {
      double* ri = p + i * ld;
      const double li = ri[k];
      if (li == 0.0) continue;
#pragma omp simd
      for (int j = k + 1; j < n; ++j) ri[j] -= li * rk[j];
    }
  }
}

}  // namespace

void lu_factor_unblocked(MatrixView a, std::span<int> pivots) {
  UNSNAP_ASSERT(a.rows() == a.cols());
  UNSNAP_ASSERT(static_cast<int>(pivots.size()) >= a.rows());
  factor_panel<kDynamic>(a, pivots);
}

template <int N>
void lu_factor(MatrixView a, std::span<int> pivots) {
  const int n = extent<N>(a.rows());
  UNSNAP_ASSERT(a.rows() == n && a.cols() == n);
  UNSNAP_ASSERT(static_cast<int>(pivots.size()) >= n);

  if (n < kBlockedThreshold) {
    factor_panel<N>(a, pivots);
    return;
  }

  for (int k0 = 0; k0 < n; k0 += kPanel) {
    const int nb = std::min(kPanel, n - k0);
    // Factor the current panel (all rows below and including the diagonal
    // block, nb columns wide).
    factor_panel<kDynamic>(a.block(k0, k0, n - k0, nb),
                           pivots.subspan(k0, static_cast<std::size_t>(nb)));
    // Panel pivots are relative to row k0; rebase and apply the swaps to
    // the columns left and right of the panel.
    for (int k = k0; k < k0 + nb; ++k) {
      pivots[k] += k0;
      if (pivots[k] != k) {
        swap_row_range(a, k, pivots[k], 0, k0);
        swap_row_range(a, k, pivots[k], k0 + nb, n);
      }
    }
    const int rest = n - k0 - nb;
    if (rest > 0) {
      // U12 = L11^{-1} A12, then trailing update A22 -= L21 U12.
      trsm_lower_unit(a.block(k0, k0, nb, nb), a.block(k0, k0 + nb, nb, rest));
      gemm_subtract(a.block(k0 + nb, k0, rest, nb),
                    a.block(k0, k0 + nb, nb, rest),
                    a.block(k0 + nb, k0 + nb, rest, rest));
    }
  }
}

template <int N>
void lu_solve_factored(ConstMatrixView lu, std::span<const int> pivots,
                       std::span<double> b) {
  const int n = extent<N>(lu.rows());
  const int ld = extent<N>(lu.row_stride());
  UNSNAP_ASSERT(lu.rows() == n && lu.cols() == n && lu.row_stride() == ld &&
                static_cast<int>(b.size()) == n);
  const double* const f = lu.data();

  // Apply row interchanges to b.
  for (int k = 0; k < n; ++k)
    if (pivots[k] != k) std::swap(b[k], b[pivots[k]]);

  // Forward substitution with unit-lower L.
  for (int i = 1; i < n; ++i) {
    const double* ri = f + i * ld;
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (int j = 0; j < i; ++j) acc += ri[j] * b[j];
    b[i] -= acc;
  }

  // Back substitution with U.
  for (int i = n - 1; i >= 0; --i) {
    const double* ri = f + i * ld;
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (int j = i + 1; j < n; ++j) acc += ri[j] * b[j];
    const double diag = ri[i];
    if (diag == 0.0) zero_pivot(i);
    b[i] = (b[i] - acc) / diag;
  }
}

template <int N>
void lapack_style_solve(MatrixView a, std::span<double> b,
                        std::span<int> pivots) {
  lu_factor<N>(a, pivots);
  lu_solve_factored<N>(a, pivots, b);
}

template void lu_factor<8>(MatrixView, std::span<int>);
template void lu_factor<kDynamic>(MatrixView, std::span<int>);
template void lu_solve_factored<8>(ConstMatrixView, std::span<const int>,
                                   std::span<double>);
template void lu_solve_factored<kDynamic>(ConstMatrixView,
                                          std::span<const int>,
                                          std::span<double>);
template void lapack_style_solve<8>(MatrixView, std::span<double>,
                                    std::span<int>);
template void lapack_style_solve<kDynamic>(MatrixView, std::span<double>,
                                           std::span<int>);

}  // namespace unsnap::linalg

#include "linalg/blas_like.hpp"

#include <algorithm>
#include <cmath>

namespace unsnap::linalg {

void gemm_subtract(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  UNSNAP_ASSERT(a.cols() == b.rows());
  UNSNAP_ASSERT(c.rows() == a.rows() && c.cols() == b.cols());
  const int m = a.rows(), kk = a.cols(), n = b.cols();
  // Cache tiles sized so one A tile + one B tile + one C tile fit in L1.
  constexpr int kTileM = 32, kTileK = 64, kTileN = 64;
  for (int i0 = 0; i0 < m; i0 += kTileM) {
    const int im = std::min(i0 + kTileM, m);
    for (int k0 = 0; k0 < kk; k0 += kTileK) {
      const int km = std::min(k0 + kTileK, kk);
      for (int j0 = 0; j0 < n; j0 += kTileN) {
        const int jm = std::min(j0 + kTileN, n);
        for (int i = i0; i < im; ++i) {
          double* crow = c.row(i);
          for (int k = k0; k < km; ++k) {
            const double aik = a(i, k);
            const double* brow = b.row(k);
#pragma omp simd
            for (int j = j0; j < jm; ++j) crow[j] -= aik * brow[j];
          }
        }
      }
    }
  }
}

template <int N>
void trsm_lower_unit(ConstMatrixView l, MatrixView b) {
  const int m = extent<N>(l.rows());
  const int n = extent<N>(b.cols());
  const int ldl = extent<N>(l.row_stride());
  const int ldb = extent<N>(b.row_stride());
  UNSNAP_ASSERT(l.rows() == m && l.cols() == m && b.rows() == m &&
                b.cols() == n && l.row_stride() == ldl &&
                b.row_stride() == ldb);
  const double* const lp = l.data();
  double* const bp = b.data();
  for (int i = 1; i < m; ++i) {
    double* bi = bp + i * ldb;
    for (int k = 0; k < i; ++k) {
      const double lik = lp[i * ldl + k];
      if (lik == 0.0) continue;
      const double* bk = bp + k * ldb;
#pragma omp simd
      for (int j = 0; j < n; ++j) bi[j] -= lik * bk[j];
    }
  }
}

template void trsm_lower_unit<8>(ConstMatrixView, MatrixView);
template void trsm_lower_unit<kDynamic>(ConstMatrixView, MatrixView);

double dot(std::span<const double> x, std::span<const double> y) {
  UNSNAP_ASSERT(x.size() == y.size());
  double sum = 0.0;
#pragma omp simd reduction(+ : sum)
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double norm2(std::span<const double> x) {
  double sum = 0.0;
#pragma omp simd reduction(+ : sum)
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * x[i];
  return std::sqrt(sum);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  UNSNAP_ASSERT(x.size() == y.size());
#pragma omp simd
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(double alpha, std::span<double> x) {
#pragma omp simd
  for (std::size_t i = 0; i < x.size(); ++i) x[i] *= alpha;
}

}  // namespace unsnap::linalg

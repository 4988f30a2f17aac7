#include "linalg/gauss_elim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace unsnap::linalg {

namespace {

// The one elimination body behind the scalar kernels and the lockstep one.
// W systems are eliminated side by side, S apart: entry (i, j) of lane l
// sits at [(i * ld + j) * S + l] and b_i at [i * S + l]. The scalar
// kernels are W = S = 1; the lockstep kernel is S = kLanes with W lanes in
// use. Column 0 reads (a, b) and writes the rows it updates into (ea, x);
// later columns work on (ea, x), and back substitution reads row 0 from
// (a, b), which elimination never rewrites. The scalar kernels pass the
// same arrays twice and pivot or throw in place. The lockstep kernel keeps
// (a, b) intact and returns false, without a solution, if some lane needs
// a row swap, a zero or non-finite pivot, or the skip of a zero
// multiplier; otherwise every lane did exactly the scalar arithmetic.
//
// The lockstep kernel does not branch on those cases per lane and row. It
// folds each into a per-lane accumulator that a NaN cannot mask, and tests
// the accumulators once, after the last column:
//   pivot_min  smallest |pivot|            -> 0 for a zero pivot
//   pivot_nan  sum of pivot * 0            -> NaN for an infinite or NaN one
//   climb      largest |below| - |pivot|   -> > 0 where the scalar search
//                                             would swap rows
//   factor_min smallest |multiplier|       -> 0 for a row the scalar skips
// A NaN operand fails every comparison in the scalar kernel, and the
// `x < acc ? x : acc` updates below leave the accumulator untouched by it,
// so each accumulator trips in exactly the cases the scalar test does.
template <int N, int W, int S, bool kPivot>
bool eliminate(double* a, double* b, double* ea, double* x, int n_in,
               int ld_in) {
  const int n = extent<N>(n_in), ld = extent<N>(ld_in);
  constexpr bool kScalar = S == 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static_assert(W >= 1 && W <= S);
  double pivot_min[W], pivot_nan[W], climb[W], factor_min[W];
  if constexpr (!kScalar)
    for (int l = 0; l < W; ++l) {
      pivot_min[l] = kInf;
      pivot_nan[l] = 0.0;
      climb[l] = -kInf;
      factor_min[l] = kInf;
    }

  for (int k = 0; k < n; ++k) {
    double* const m = k == 0 ? a : ea;  // rows as column k sees them
    const double* const bm = k == 0 ? b : x;
    double* const rk = m + k * ld * S;
    if constexpr (kScalar && kPivot) {
      int piv = k;
      double best = std::fabs(rk[k]);
      for (int i = k + 1; i < n; ++i) {
        const double v = std::fabs(m[i * ld + k]);
        if (v > best) best = v, piv = i;
      }
      if (piv != k) {
        std::swap_ranges(rk + k, rk + n, m + piv * ld + k);
        std::swap(x[k], x[piv]);  // x is b in the scalar kernels
      }
    }
    double inv[W], bk[W], pivot_abs[W];
    if constexpr (kScalar) {
      const double diag = rk[k];
      if (diag == 0.0 || !std::isfinite(diag))
        throw NumericalError("gauss_solve: zero pivot at column " +
                             std::to_string(k));
      inv[0] = 1.0 / diag;
      bk[0] = bm[k];
    } else {
#pragma omp simd
      for (int l = 0; l < W; ++l) {
        const double diag = rk[k * S + l];
        pivot_abs[l] = std::fabs(diag);
        pivot_min[l] =
            pivot_abs[l] < pivot_min[l] ? pivot_abs[l] : pivot_min[l];
        pivot_nan[l] += diag * 0.0;
        inv[l] = 1.0 / diag;
        bk[l] = bm[k * S + l];
      }
    }
    for (int i = k + 1; i < n; ++i) {
      const double* ri = m + i * ld * S;
      double* wi = ea + i * ld * S;
      double factor[W];
      if constexpr (kScalar) {
        factor[0] = ri[k] * inv[0];
        if (factor[0] == 0.0) continue;
      } else {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
          factor[l] = ri[k * S + l] * inv[l];
          const double f = std::fabs(factor[l]);
          factor_min[l] = f < factor_min[l] ? f : factor_min[l];
          if constexpr (kPivot) {
            const double c = std::fabs(ri[k * S + l]) - pivot_abs[l];
            climb[l] = c > climb[l] ? c : climb[l];
          }
        }
      }
      // The same update either way; the loop that vectorises differs.
      if constexpr (kScalar) {
#pragma omp simd
        for (int j = k + 1; j < n; ++j) wi[j] = ri[j] - factor[0] * rk[j];
      } else {
        for (int j = k + 1; j < n; ++j)
#pragma omp simd
          for (int l = 0; l < W; ++l)
            wi[j * S + l] = ri[j * S + l] - factor[l] * rk[j * S + l];
      }
#pragma omp simd
      for (int l = 0; l < W; ++l)
        x[i * S + l] = bm[i * S + l] - factor[l] * bk[l];
    }
  }
  if constexpr (!kScalar) {
    bool bail = false;  // the lockstep pass cannot follow some lane
    for (int l = 0; l < W; ++l)
      bail |= !(pivot_min[l] > 0.0) | !(pivot_nan[l] == 0.0) |
              (climb[l] > 0.0) | (factor_min[l] == 0.0);
    if (bail) return false;
  }

  // Back substitution; x becomes the solution. At a fixed extent each lane
  // sums j in ascending order, so the lanes and the scalar kernel round
  // alike. The dynamic extent has no lockstep twin and reaches n = 216, so
  // it keeps the vectorised (reordered) sum.
  for (int i = n - 1; i >= 0; --i) {
    const double* ri = (i == 0 ? a : ea) + i * ld * S;
    const double* bi = (i == 0 ? b : x) + i * S;
    double acc[W] = {};
    if constexpr (N == kDynamic) {
      double sum = 0.0;
#pragma omp simd reduction(+ : sum)
      for (int j = i + 1; j < n; ++j) sum += ri[j] * x[j];
      acc[0] = sum;
    } else {
      for (int j = i + 1; j < n; ++j)
#pragma omp simd
        for (int l = 0; l < W; ++l) acc[l] += ri[j * S + l] * x[j * S + l];
    }
#pragma omp simd
    for (int l = 0; l < W; ++l)
      x[i * S + l] = (bi[l] - acc[l]) / ri[i * S + l];
  }
  return true;
}

template <int N, bool kPivot>
void solve_one(MatrixView a, std::span<double> b) {
  const int n = extent<N>(a.rows());
  const int ld = extent<N>(a.row_stride());
  UNSNAP_ASSERT(a.rows() == n && a.cols() == n && a.row_stride() == ld &&
                static_cast<int>(b.size()) == n);
  eliminate<N, 1, 1, kPivot>(a.data(), b.data(), a.data(), b.data(), n, ld);
}

// The lockstep kernels for 1..kLanes lanes in use, indexed by lanes - 1.
template <int N, bool kPivot, std::size_t... I>
constexpr auto lane_kernels(std::index_sequence<I...>) {
  return std::array{&eliminate<N, static_cast<int>(I) + 1, kLanes, kPivot>...};
}

}  // namespace

template <int N>
void gauss_solve(MatrixView a, std::span<double> b) {
  solve_one<N, true>(a, b);
}

template <int N>
void gauss_solve_nopivot(MatrixView a, std::span<double> b) {
  solve_one<N, false>(a, b);
}

LaneBlock::LaneBlock(int n)
    : n_(n),
      a_(static_cast<std::size_t>(n) * n * kLanes),
      b_(static_cast<std::size_t>(n) * kLanes),
      work_(static_cast<std::size_t>(n) * n * kLanes),
      x_(static_cast<std::size_t>(n) * kLanes),
      one_(n, n),
      one_b_(static_cast<std::size_t>(n)) {}

template <int N>
bool gauss_solve_lanes(LaneBlock& block, int lanes, bool pivot) {
  static_assert(N != kDynamic, "the lockstep kernel runs at a fixed extent");
  UNSNAP_ASSERT(block.n_ == N && lanes >= 1 && lanes <= kLanes);
  static constexpr auto pivoted =
      lane_kernels<N, true>(std::make_index_sequence<kLanes>{});
  static constexpr auto unpivoted =
      lane_kernels<N, false>(std::make_index_sequence<kLanes>{});
  const auto kernel = (pivot ? pivoted : unpivoted)[lanes - 1];
  if (kernel(block.a(), block.b(), block.work_.data(), block.x_.data(), N, N))
    return true;

  // Fallback: each lane on its own through the scalar kernel, from a copy
  // of its assembled system.
  double* one = block.one_.data();
  double* one_b = block.one_b_.data();
  for (int l = 0; l < lanes; ++l) {
    for (int t = 0; t < N * N; ++t) one[t] = block.a_[t * kLanes + l];
    for (int i = 0; i < N; ++i) one_b[i] = block.b_[i * kLanes + l];
    if (pivot)
      gauss_solve<N>(block.one_.view(), {one_b, N});
    else
      gauss_solve_nopivot<N>(block.one_.view(), {one_b, N});
    for (int i = 0; i < N; ++i) block.x_[i * kLanes + l] = one_b[i];
  }
  return false;
}

template void gauss_solve<8>(MatrixView, std::span<double>);
template void gauss_solve<kDynamic>(MatrixView, std::span<double>);
template void gauss_solve_nopivot<8>(MatrixView, std::span<double>);
template void gauss_solve_nopivot<kDynamic>(MatrixView, std::span<double>);
template bool gauss_solve_lanes<8>(LaneBlock&, int, bool);

}  // namespace unsnap::linalg

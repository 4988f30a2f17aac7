#pragma once

#include <cstddef>
#include <span>

#include "util/aligned.hpp"
#include "util/assert.hpp"

namespace unsnap::linalg {

/// Extent of a dense kernel instantiation. The small-system kernels are
/// templates over the system size N: a positive N fixes it at compile time
/// (the order-1 element's 8 x 8 systems, whose loops then unroll), and
/// kDynamic reads it from the arguments. Both run the same body.
inline constexpr int kDynamic = 0;

/// The size an extent-N kernel works at: N when fixed, else the run-time n.
template <int N>
[[nodiscard]] constexpr int extent(int n) {
  return N == kDynamic ? n : N;
}

/// Non-owning view of a dense row-major matrix. Row-major (C layout) is
/// used throughout UnSNAP: the assembly kernel writes matrix rows
/// contiguously while vectorising over the column (trial node) index.
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(double* data, int rows, int cols, int row_stride)
      : data_(data), rows_(rows), cols_(cols), ld_(row_stride) {
    UNSNAP_ASSERT(row_stride >= cols);
  }
  MatrixView(double* data, int rows, int cols)
      : MatrixView(data, rows, cols, cols) {}

  [[nodiscard]] double& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * ld_ + j];
  }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int row_stride() const { return ld_; }
  [[nodiscard]] double* data() const { return data_; }
  [[nodiscard]] double* row(int i) const {
    return data_ + static_cast<std::size_t>(i) * ld_;
  }

  /// Sub-view rows [r0, r0+nr) x cols [c0, c0+nc), sharing storage.
  [[nodiscard]] MatrixView block(int r0, int c0, int nr, int nc) const {
    UNSNAP_ASSERT(r0 + nr <= rows_ && c0 + nc <= cols_);
    return {data_ + static_cast<std::size_t>(r0) * ld_ + c0, nr, nc, ld_};
  }

 private:
  double* data_ = nullptr;
  int rows_ = 0;
  int cols_ = 0;
  int ld_ = 0;
};

/// Read-only counterpart of MatrixView.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const double* data, int rows, int cols, int row_stride)
      : data_(data), rows_(rows), cols_(cols), ld_(row_stride) {}
  ConstMatrixView(const double* data, int rows, int cols)
      : ConstMatrixView(data, rows, cols, cols) {}
  ConstMatrixView(MatrixView m)  // NOLINT: implicit view conversion intended
      : ConstMatrixView(m.data(), m.rows(), m.cols(), m.row_stride()) {}

  [[nodiscard]] const double& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * ld_ + j];
  }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int row_stride() const { return ld_; }
  [[nodiscard]] const double* data() const { return data_; }
  [[nodiscard]] const double* row(int i) const {
    return data_ + static_cast<std::size_t>(i) * ld_;
  }

 private:
  const double* data_ = nullptr;
  int rows_ = 0;
  int cols_ = 0;
  int ld_ = 0;
};

/// Owning dense row-major matrix with SIMD-aligned storage.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, fill) {}

  [[nodiscard]] double& operator()(int i, int j) {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  [[nodiscard]] const double& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] MatrixView view() { return {data_.data(), rows_, cols_}; }
  [[nodiscard]] ConstMatrixView view() const {
    return {data_.data(), rows_, cols_};
  }
  void fill(double value) { data_.assign(data_.size(), value); }

 private:
  int rows_ = 0;
  int cols_ = 0;
  AlignedVector<double> data_;
};

/// Frobenius-style max-abs difference, used by tests and solver checks.
double max_abs_diff(ConstMatrixView a, ConstMatrixView b);

/// y = A x (row-major matvec); spans must match A's shape.
void matvec(ConstMatrixView a, std::span<const double> x, std::span<double> y);

/// C += A * B for row-major matrices (naive ikj kernel; the blocked LU
/// uses the tiled version in blas_like.hpp for its trailing update).
void matmul_accumulate(ConstMatrixView a, ConstMatrixView b, MatrixView c);

}  // namespace unsnap::linalg

#pragma once

#include "core/assembler.hpp"
#include "util/aligned.hpp"

namespace unsnap::core {

/// Pre-assembled matrix mode (paper §IV-B-1, listed as future work): since
/// A depends only on (angle, group, element) — not on the iteration — it
/// can be explicitly inverted once and reused every inner/outer
/// iteration, trading a factor-(p+1)^3-squared memory blow-up for solves
/// that become plain matvecs.
class PreassembledOperator {
 public:
  /// Inverts every system in parallel, at the kernel extent of the
  /// discretisation's element order (see with_extent). The store is not
  /// zero-filled: the build threads write it first.
  explicit PreassembledOperator(const Assembler& assembler);

  /// Solve the system for ctx.rhs: a contiguous matvec into ctx.qtmp,
  /// whose pointer is returned — no copy-back, the caller scatters
  /// psi/phi straight from the returned row. N is the kernel extent the
  /// operator was built at.
  template <int N = linalg::kDynamic>
  const double* apply(AssemblyContext& ctx, int oct, int a, int e,
                      int g) const;

  /// Total storage, the memory-footprint cost the paper warns about.
  [[nodiscard]] std::size_t bytes() const {
    return sizeof(double) * systems_ * n_ * n_;
  }

  // Dimensions of the discretisation the operator was built for, so a
  // shared operator can be validated before injection into another solver.
  [[nodiscard]] int nang() const { return nang_; }
  [[nodiscard]] int num_elements() const { return ne_; }
  [[nodiscard]] int num_groups() const { return ng_; }
  [[nodiscard]] int num_nodes() const { return n_; }

 private:
  int nang_, ne_, ng_, n_;
  std::size_t systems_;
  AlignedArray<double> mats_;  // [system][n*n], each A^{-1} column-major

  template <int N, int NF>
  void build(const Assembler& assembler);

  [[nodiscard]] std::size_t index(int oct, int a, int e, int g) const {
    return ((static_cast<std::size_t>(oct) * nang_ + a) * ne_ + e) * ng_ + g;
  }
};

template <int N>
const double* PreassembledOperator::apply(AssemblyContext& ctx, int oct,
                                          int a, int e, int g) const {
  const int n = linalg::extent<N>(n_);
  const double* stored =
      mats_.get() + index(oct, a, e, g) * static_cast<std::size_t>(n) * n;
  const double* rhs = ctx.rhs.data();
  // psi = A^{-1} b = sum_j b_j A^{-1}(:, j). The inverse is stored
  // column-major, so this is n axpys over contiguous columns with no
  // horizontal sums; the result stays in the staging scratch (the caller
  // reads it there instead of paying a copy back into rhs).
  double* out = ctx.qtmp.data();
  for (int i = 0; i < n; ++i) out[i] = 0.0;
  for (int j = 0; j < n; ++j) {
    const double* col = stored + static_cast<std::size_t>(j) * n;
    const double bj = rhs[j];
#pragma omp simd
    for (int i = 0; i < n; ++i) out[i] += col[i] * bj;
  }
  return out;
}

}  // namespace unsnap::core

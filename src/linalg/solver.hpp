#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace unsnap::linalg {

/// Which local dense solver the sweep kernel uses (the paper's Table II
/// axis). GaussianElimination is the paper's hand-written fused solver;
/// LapackLu stands in for MKL dgesv (see lu.hpp); the NoPivot variant is an
/// ablation exploiting the coercivity of the transport matrices.
enum class SolverKind {
  GaussianElimination,
  GaussianEliminationNoPivot,
  LapackLu,
};

[[nodiscard]] std::string to_string(SolverKind kind);
[[nodiscard]] SolverKind solver_from_string(const std::string& name);

/// Per-thread scratch so the hot loop never allocates. Sized once for the
/// largest system the run will solve.
class SolveWorkspace {
 public:
  void reserve(int n) {
    if (static_cast<int>(pivots_.size()) < n) pivots_.resize(n);
  }
  [[nodiscard]] std::span<int> pivots(int n) {
    reserve(n);
    return {pivots_.data(), static_cast<std::size_t>(n)};
  }

 private:
  std::vector<int> pivots_;
};

/// Solve A x = b in place with the requested solver; A and b are destroyed
/// and b holds the solution on return. N is the kernel extent (matrix.hpp):
/// 8 for the order-1 element's systems, kDynamic (the default) otherwise.
template <int N = kDynamic>
void solve_in_place(SolverKind kind, MatrixView a, std::span<double> b,
                    SolveWorkspace& workspace);

}  // namespace unsnap::linalg

#include "linalg/solver.hpp"

#include "linalg/gauss_elim.hpp"
#include "linalg/lu.hpp"
#include "util/assert.hpp"

namespace unsnap::linalg {

std::string to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::GaussianElimination: return "ge";
    case SolverKind::GaussianEliminationNoPivot: return "ge-nopivot";
    case SolverKind::LapackLu: return "lu";
  }
  UNSNAP_ASSERT(false);
  return {};
}

SolverKind solver_from_string(const std::string& name) {
  if (name == "ge") return SolverKind::GaussianElimination;
  if (name == "ge-nopivot") return SolverKind::GaussianEliminationNoPivot;
  if (name == "lu" || name == "lapack" || name == "mkl")
    return SolverKind::LapackLu;
  throw InvalidInput("unknown solver '" + name +
                     "' (expected ge, ge-nopivot or lu)");
}

template <int N>
void solve_in_place(SolverKind kind, MatrixView a, std::span<double> b,
                    SolveWorkspace& workspace) {
  switch (kind) {
    case SolverKind::GaussianElimination:
      gauss_solve<N>(a, b);
      return;
    case SolverKind::GaussianEliminationNoPivot:
      gauss_solve_nopivot<N>(a, b);
      return;
    case SolverKind::LapackLu:
      lapack_style_solve<N>(a, b, workspace.pivots(a.rows()));
      return;
  }
  UNSNAP_ASSERT(false);
}

template void solve_in_place<8>(SolverKind, MatrixView, std::span<double>,
                                SolveWorkspace&);
template void solve_in_place<kDynamic>(SolverKind, MatrixView,
                                       std::span<double>, SolveWorkspace&);

}  // namespace unsnap::linalg

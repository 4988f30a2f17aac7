#pragma once

#include "core/discretization.hpp"
#include "core/flux_storage.hpp"
#include "core/problem_data.hpp"

namespace unsnap::core {

/// SNAP-style source construction (paper Fig. 2 / §II): the outer source
/// couples energy groups through the scattering transfer matrix with
/// previous-outer fluxes (Jacobi in energy); the inner source adds the
/// within-group scattering with the latest flux. All sources here are
/// isotropic (the paper's evaluation uses isotropic scattering).
class SourceUpdater {
 public:
  SourceUpdater(const Discretization& disc, const ProblemData& problem)
      : disc_(&disc), problem_(&problem) {}

  /// qout(e,g,:) = qext(e,g) + sum_{g' != g} sigs(0, g', g) phi(e,g',:),
  /// with sigs the element material's transfer matrix.
  void update_outer(const NodalField& phi, NodalField& qout) const;

  /// qin(e,g,:) = qout(e,g,:) + sigs(0, g, g) phi(e,g,:).
  void update_inner(const NodalField& phi, const NodalField& qout,
                    NodalField& qin) const;

  /// Higher-moment analogues for anisotropic scattering (nmom > 1): the
  /// source moment of flat index m uses the l = degree(m) transfer matrix
  /// sigs(l, ., .). Vectors hold the count-1 moments above l = 0.
  void update_outer_moments(const std::vector<NodalField>& phi_hi,
                            std::vector<NodalField>& qout_hi) const;
  void update_inner_moments(const std::vector<NodalField>& phi_hi,
                            const std::vector<NodalField>& qout_hi,
                            std::vector<NodalField>& qin_hi) const;

 private:
  const Discretization* disc_;
  const ProblemData* problem_;
};

/// SNAP's pointwise convergence measure: max over all unknowns of
/// |new - old| / |old|, falling back to the absolute difference where the
/// old value is below `floor`. Parallel reduction.
[[nodiscard]] double max_relative_change(const NodalField& now,
                                         const NodalField& before,
                                         double floor = 1e-12);

}  // namespace unsnap::core

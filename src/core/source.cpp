#include "core/source.hpp"

#include <algorithm>
#include <cmath>

#include "angular/harmonics.hpp"
#include "util/assert.hpp"

namespace unsnap::core {

void SourceUpdater::update_outer(const NodalField& phi,
                                 NodalField& qout) const {
  const int ne = disc_->num_elements();
  const int ng = problem_->xs.ng;
  const int n = disc_->num_nodes();
  const auto& qext = problem_->qext;

#pragma omp parallel for schedule(static)
  for (int e = 0; e < ne; ++e) {
    const auto& sigs = problem_->xs.materials[problem_->material[e]].sigs;
    for (int g = 0; g < ng; ++g) {
      double* out = qout.at(e, g);
      const double q0 = qext(e, g);
#pragma omp simd
      for (int i = 0; i < n; ++i) out[i] = q0;
      for (int gp = 0; gp < ng; ++gp) {
        if (gp == g) continue;
        const double xs = sigs(0, gp, g);
        if (xs == 0.0) continue;
        const double* ph = phi.at(e, gp);
#pragma omp simd
        for (int i = 0; i < n; ++i) out[i] += xs * ph[i];
      }
    }
  }
}

void SourceUpdater::update_inner(const NodalField& phi,
                                 const NodalField& qout,
                                 NodalField& qin) const {
  const int ne = disc_->num_elements();
  const int ng = problem_->xs.ng;
  const int n = disc_->num_nodes();

#pragma omp parallel for schedule(static)
  for (int e = 0; e < ne; ++e) {
    const auto& sigs = problem_->xs.materials[problem_->material[e]].sigs;
    for (int g = 0; g < ng; ++g) {
      const double xs = sigs(0, g, g);
      const double* qo = qout.at(e, g);
      const double* ph = phi.at(e, g);
      double* out = qin.at(e, g);
#pragma omp simd
      for (int i = 0; i < n; ++i) out[i] = qo[i] + xs * ph[i];
    }
  }
}

void SourceUpdater::update_outer_moments(
    const std::vector<NodalField>& phi_hi,
    std::vector<NodalField>& qout_hi) const {
  const int ne = disc_->num_elements();
  const int ng = problem_->xs.ng;
  const int n = disc_->num_nodes();
  UNSNAP_ASSERT(phi_hi.size() == qout_hi.size());

  for (std::size_t mom = 0; mom < qout_hi.size(); ++mom) {
    // Flat moment index mom+1; its Legendre degree selects the transfer.
    const int l = angular::SphericalHarmonics::degree_of(
        static_cast<int>(mom) + 1);
#pragma omp parallel for schedule(static)
    for (int e = 0; e < ne; ++e) {
      const auto& sigs = problem_->xs.materials[problem_->material[e]].sigs;
      for (int g = 0; g < ng; ++g) {
        double* out = qout_hi[mom].at(e, g);
#pragma omp simd
        for (int i = 0; i < n; ++i) out[i] = 0.0;
        for (int gp = 0; gp < ng; ++gp) {
          if (gp == g) continue;
          const double xs = sigs(l, gp, g);
          if (xs == 0.0) continue;
          const double* ph = phi_hi[mom].at(e, gp);
#pragma omp simd
          for (int i = 0; i < n; ++i) out[i] += xs * ph[i];
        }
      }
    }
  }
}

void SourceUpdater::update_inner_moments(
    const std::vector<NodalField>& phi_hi,
    const std::vector<NodalField>& qout_hi,
    std::vector<NodalField>& qin_hi) const {
  const int ne = disc_->num_elements();
  const int ng = problem_->xs.ng;
  const int n = disc_->num_nodes();

  for (std::size_t mom = 0; mom < qin_hi.size(); ++mom) {
    const int l = angular::SphericalHarmonics::degree_of(
        static_cast<int>(mom) + 1);
#pragma omp parallel for schedule(static)
    for (int e = 0; e < ne; ++e) {
      const auto& sigs = problem_->xs.materials[problem_->material[e]].sigs;
      for (int g = 0; g < ng; ++g) {
        const double xs = sigs(l, g, g);
        const double* qo = qout_hi[mom].at(e, g);
        const double* ph = phi_hi[mom].at(e, g);
        double* out = qin_hi[mom].at(e, g);
#pragma omp simd
        for (int i = 0; i < n; ++i) out[i] = qo[i] + xs * ph[i];
      }
    }
  }
}

double max_relative_change(const NodalField& now, const NodalField& before,
                           double floor) {
  UNSNAP_ASSERT(now.size() == before.size());
  const double* a = now.data();
  const double* b = before.data();
  const auto size = static_cast<long>(now.size());
  double worst = 0.0;
#pragma omp parallel for reduction(max : worst) schedule(static)
  for (long i = 0; i < size; ++i) {
    const double diff = std::fabs(a[i] - b[i]);
    const double base = std::fabs(b[i]);
    worst = std::max(worst, base > floor ? diff / base : diff);
  }
  return worst;
}

}  // namespace unsnap::core

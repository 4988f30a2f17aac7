#include "core/preassembly.hpp"

#include <vector>

#include "angular/quadrature.hpp"
#include "linalg/invert.hpp"
#include "linalg/matrix.hpp"
#include "util/threads.hpp"

namespace unsnap::core {

PreassembledOperator::PreassembledOperator(const Assembler& assembler) {
  const Discretization& disc = assembler.discretization();
  nang_ = disc.nang();
  ne_ = disc.num_elements();
  ng_ = assembler.problem().xs.ng;
  n_ = disc.num_nodes();
  systems_ = static_cast<std::size_t>(angular::kOctants) * nang_ * ne_ * ng_;

  mats_ = make_aligned_for_overwrite<double>(
      systems_ * static_cast<std::size_t>(n_) * n_);
  with_extent(disc, [&](auto ext) {
    using E = decltype(ext);
    build<E::n, E::nf>(assembler);
  });
}

template <int N, int NF>
void PreassembledOperator::build(const Assembler& assembler) {
  const Discretization& disc = assembler.discretization();
  const int n = linalg::extent<N>(n_);
  const auto nn = static_cast<std::size_t>(n) * n;
  util::RegionErrors errors;
#pragma omp parallel
  {
    linalg::Matrix scratch(n, n);
    linalg::Matrix inverse(n, n);
    std::vector<int> piv(static_cast<std::size_t>(n));
    ElementCoupling coupling;
    coupling.resize(n, disc.nodes_per_face());
#pragma omp for collapse(2) schedule(dynamic, 8)
    for (int oct = 0; oct < angular::kOctants; ++oct) {
      for (int a = 0; a < nang_; ++a) {
        errors.capture([&] {
          const Vec3 omega = disc.quadrature().direction(oct, a);
          for (int e = 0; e < ne_; ++e) {
            // One coupling serves every group of the (angle, element).
            assembler.couple<N, NF>(coupling, e, omega, /*matrix=*/true);
            for (int g = 0; g < ng_; ++g) {
              double* stored = mats_.get() + index(oct, a, e, g) * nn;
              const double sigt = assembler.problem().sigt_eg(e, g);
              assembler.assemble_matrix<N, NF>(scratch.data(), coupling, e,
                                               {&sigt, 1});
              linalg::invert<N>(scratch.view(), inverse.view(), piv);
              // Stored column-major: apply() is then n axpys.
              for (int j = 0; j < n; ++j)
                for (int i = 0; i < n; ++i)
                  stored[static_cast<std::size_t>(j) * n + i] = inverse(i, j);
            }
          }
        });
      }
    }
  }
  errors.rethrow();
}

}  // namespace unsnap::core

#pragma once

#include <vector>

#include "core/discretization.hpp"
#include "snap/data.hpp"
#include "xs/library.hpp"

namespace unsnap::core {

/// Material data mapped onto the mesh: the cross-section library whose
/// material i is material id i (selected, ordered and cut to the input's
/// scattering orders at lowering), per-(element, group) totals flattened
/// for the assembly kernel, plus the external source. The kernel never
/// chases the material indirection at solve time.
struct ProblemData {
  ProblemData(const Discretization& disc, const snap::Input& input);
  /// Directly from components (tests build bespoke problems this way).
  ProblemData(const Discretization& disc, xs::Library xs,
              std::vector<int> material, NDArray<double, 2> qext);

  xs::Library xs;
  std::vector<int> material;     // per element
  NDArray<double, 2> sigt_eg;    // [e][g]
  NDArray<double, 2> siga_eg;    // [e][g]
  NDArray<double, 2> qext;       // [e][g] isotropic, constant per element

 private:
  void flatten(const Discretization& disc);
};

}  // namespace unsnap::core

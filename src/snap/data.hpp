#pragma once

#include <vector>

#include "mesh/hex_mesh.hpp"
#include "util/ndarray.hpp"

namespace unsnap::snap {

/// Material id per element, assigned by element centroid so shuffled
/// numbering cannot leak structure:
///  - mat_opt 0: material 0 everywhere,
///  - mat_opt 1: material 1 in the central half-width box (SNAP option 1),
///  - mat_opt 2: material 1 in the upper half-space z > Lz/2 (slab).
[[nodiscard]] std::vector<int> assign_materials(const mesh::HexMesh& mesh,
                                                int mat_opt);

/// Isotropic external source strength per (element, group), constant within
/// each element:
///  - src_opt 0: 1.0 everywhere,
///  - src_opt 1: 1.0 inside the central half-width box (SNAP option 1),
///  - src_opt 2: 1.0 inside the central quarter-width box.
[[nodiscard]] NDArray<double, 2> make_external_source(
    const mesh::HexMesh& mesh, int src_opt, int ng);

}  // namespace unsnap::snap

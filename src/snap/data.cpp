#include "snap/data.hpp"

#include "util/assert.hpp"

namespace unsnap::snap {

namespace {

// True if the centroid lies in the centred box covering `fraction` of the
// domain width in every dimension.
bool in_central_box(const mesh::HexMesh& mesh, const mesh::Vec3& centroid,
                    double fraction) {
  for (int d = 0; d < 3; ++d) {
    const double lo = mesh.domain_lo()[d];
    const double hi = mesh.domain_hi()[d];
    const double half = 0.5 * fraction * (hi - lo);
    const double mid = 0.5 * (lo + hi);
    if (centroid[d] < mid - half || centroid[d] > mid + half) return false;
  }
  return true;
}

}  // namespace

std::vector<int> assign_materials(const mesh::HexMesh& mesh, int mat_opt) {
  require(mat_opt >= 0 && mat_opt <= 2, "mat_opt must be 0, 1 or 2");
  std::vector<int> mat(static_cast<std::size_t>(mesh.num_elements()), 0);
  if (mat_opt == 0) return mat;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const mesh::Vec3 c = mesh.centroid(e);
    if (mat_opt == 1) {
      if (in_central_box(mesh, c, 0.5)) mat[e] = 1;
    } else {
      const double mid =
          0.5 * (mesh.domain_lo()[2] + mesh.domain_hi()[2]);
      if (c[2] > mid) mat[e] = 1;
    }
  }
  return mat;
}

NDArray<double, 2> make_external_source(const mesh::HexMesh& mesh,
                                        int src_opt, int ng) {
  require(src_opt >= 0 && src_opt <= 2, "src_opt must be 0, 1 or 2");
  NDArray<double, 2> q({static_cast<std::size_t>(mesh.num_elements()),
                        static_cast<std::size_t>(ng)},
                       0.0);
  for (int e = 0; e < mesh.num_elements(); ++e) {
    bool inside = true;
    if (src_opt == 1)
      inside = in_central_box(mesh, mesh.centroid(e), 0.5);
    else if (src_opt == 2)
      inside = in_central_box(mesh, mesh.centroid(e), 0.25);
    if (!inside) continue;
    for (int g = 0; g < ng; ++g) q(e, g) = 1.0;
  }
  return q;
}

}  // namespace unsnap::snap

#pragma once

#include <array>
#include <vector>

#include "fem/lagrange.hpp"
#include "fem/quadrature1d.hpp"
#include "util/ndarray.hpp"

namespace unsnap::fem {

/// Local face numbering shared across the mesh, sweep and assembly code:
/// 0:-x 1:+x 2:-y 3:+y 4:-z 5:+z. Opposite face flips the last bit.
inline constexpr int kFacesPerHex = 6;
[[nodiscard]] constexpr int opposite_face(int f) { return f ^ 1; }
[[nodiscard]] constexpr int face_axis(int f) { return f / 2; }
[[nodiscard]] constexpr int face_side(int f) { return f % 2; }  // 0:-, 1:+

/// Arbitrary-order Lagrange hexahedral reference element on [-1,1]^3 with
/// tensor-product equispaced nodes (paper Table I: order p has (p+1)^3
/// nodes). Tabulates basis values/gradients at the volume and face
/// quadrature points once so per-element integral computation is pure
/// table arithmetic.
class HexReferenceElement {
 public:
  /// quad_points_per_dim == 0 selects order + 2, which integrates every
  /// basis-pair product on a trilinearly-mapped (twisted) hex exactly:
  /// per coordinate the pair has degree 2 * order and the Jacobian
  /// determinant degree 2, and an (order + 2)-point Gauss rule is exact
  /// to degree 2 * order + 3.
  explicit HexReferenceElement(int order, int quad_points_per_dim = 0);

  [[nodiscard]] int order() const { return order_; }
  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] int nodes_per_face() const { return nodes_per_face_; }
  [[nodiscard]] int nodes_per_dim() const { return order_ + 1; }

  /// Lexicographic node numbering, x fastest: id = i + (p+1)*(j + (p+1)*k).
  [[nodiscard]] int node_id(int i, int j, int k) const;
  [[nodiscard]] std::array<int, 3> node_ijk(int node) const;
  [[nodiscard]] std::array<double, 3> node_coord(int node) const;

  /// Volume node ids of the 8 geometric corners, ordered c = i + 2j + 4k
  /// over the +-1 corner coordinates (matches mesh corner ordering).
  [[nodiscard]] const std::array<int, 8>& corner_nodes() const {
    return corner_nodes_;
  }

  /// Volume node ids lying on face f, ordered lexicographically by the
  /// in-face axes (u fastest). For +-x faces (u,v)=(y,z); +-y: (x,z);
  /// +-z: (x,y).
  [[nodiscard]] const std::vector<int>& face_nodes(int f) const {
    return face_nodes_[f];
  }

  // --- volume quadrature ---
  [[nodiscard]] int num_qp() const { return num_qp_; }
  [[nodiscard]] double qp_weight(int q) const { return qp_weight_[q]; }
  [[nodiscard]] std::array<double, 3> qp_coord(int q) const;
  /// phi_node evaluated at volume quadrature point q.
  [[nodiscard]] double basis_value(int q, int node) const {
    return basis_val_(q, node);
  }
  /// d phi_node / d xi_d at volume quadrature point q.
  [[nodiscard]] double basis_grad(int q, int node, int d) const {
    return basis_grad_(q, node, d);
  }

  // --- face quadrature (same 2-D tensor rule on every face) ---
  [[nodiscard]] int num_face_qp() const { return num_face_qp_; }
  [[nodiscard]] double face_qp_weight(int fq) const {
    return face_qp_weight_[fq];
  }
  /// Reference (u, v) in-face coordinates of face quadrature point fq.
  [[nodiscard]] std::array<double, 2> face_qp_uv(int fq) const;
  /// Full reference coordinates of face quadrature point fq on face f.
  [[nodiscard]] std::array<double, 3> face_qp_coord(int f, int fq) const;
  /// Trace basis: value of face-local node fl's basis at face point fq
  /// (identical for all faces thanks to the tensor construction, and the
  /// only nonzero traces on a face belong to its face nodes).
  [[nodiscard]] double face_basis_value(int fq, int fl) const {
    return face_basis_val_(fq, fl);
  }

  // --- general-point evaluation (setup, tests, post-processing) ---
  void eval_basis(const std::array<double, 3>& xi, double* out) const;
  /// out laid out [node][3].
  void eval_basis_grad(const std::array<double, 3>& xi, double* out) const;

  [[nodiscard]] const LagrangeBasis1D& basis1d() const { return basis1d_; }
  [[nodiscard]] const Quadrature1D& rule1d() const { return rule1d_; }

 private:
  int order_;
  int num_nodes_;
  int nodes_per_face_;
  int num_qp_;
  int num_face_qp_;
  LagrangeBasis1D basis1d_;
  Quadrature1D rule1d_;
  std::array<int, 8> corner_nodes_{};
  std::array<std::vector<int>, kFacesPerHex> face_nodes_;
  std::vector<double> qp_weight_;
  std::vector<double> face_qp_weight_;
  NDArray<double, 2> basis_val_;    // [qp][node]
  NDArray<double, 3> basis_grad_;   // [qp][node][3]
  NDArray<double, 2> face_basis_val_;  // [face_qp][face_local_node]
};

/// In-face axes (u, v) for face f, as global axis indices.
[[nodiscard]] std::array<int, 2> face_axes(int f);

}  // namespace unsnap::fem

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "mesh/mesh_builder.hpp"
#include "snap/data.hpp"
#include "snap/input.hpp"
#include "util/assert.hpp"

namespace unsnap::snap {
namespace {

mesh::HexMesh make_mesh() {
  mesh::MeshOptions opt;
  opt.dims = {8, 8, 8};
  opt.extent = {1.0, 1.0, 1.0};
  opt.shuffle_seed = 77;  // material assignment must survive shuffling
  return mesh::build_brick_mesh(opt);
}

TEST(Materials, Option0Homogeneous) {
  const mesh::HexMesh mesh = make_mesh();
  for (const int m : assign_materials(mesh, 0)) EXPECT_EQ(m, 0);
}

TEST(Materials, Option1CentralBox) {
  const mesh::HexMesh mesh = make_mesh();
  const std::vector<int> mat = assign_materials(mesh, 1);
  int count2 = 0;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const auto c = mesh.centroid(e);
    const bool inside = c[0] > 0.25 && c[0] < 0.75 && c[1] > 0.25 &&
                        c[1] < 0.75 && c[2] > 0.25 && c[2] < 0.75;
    EXPECT_EQ(mat[e], inside ? 1 : 0);
    count2 += mat[e];
  }
  EXPECT_EQ(count2, 4 * 4 * 4);  // central half-box of an 8^3 grid
}

TEST(Materials, Option2UpperSlab) {
  const mesh::HexMesh mesh = make_mesh();
  const std::vector<int> mat = assign_materials(mesh, 2);
  for (int e = 0; e < mesh.num_elements(); ++e)
    EXPECT_EQ(mat[e], mesh.centroid(e)[2] > 0.5 ? 1 : 0);
}

TEST(Materials, ShuffleInvariantByPosition) {
  mesh::MeshOptions opt;
  opt.dims = {6, 6, 6};
  const mesh::HexMesh plain = mesh::build_brick_mesh(opt);
  opt.shuffle_seed = 1234;
  const mesh::HexMesh shuffled = mesh::build_brick_mesh(opt);
  const auto mat_plain = assign_materials(plain, 1);
  const auto mat_shuffled = assign_materials(shuffled, 1);
  // Compare via provenance: same brick cell -> same material.
  std::map<std::array<int, 3>, int> by_ijk;
  for (int e = 0; e < plain.num_elements(); ++e)
    by_ijk[plain.provenance_ijk(e)] = mat_plain[e];
  for (int e = 0; e < shuffled.num_elements(); ++e)
    EXPECT_EQ(mat_shuffled[e], by_ijk.at(shuffled.provenance_ijk(e)));
}

TEST(Source, Option0Everywhere) {
  const mesh::HexMesh mesh = make_mesh();
  const auto q = make_external_source(mesh, 0, 3);
  for (int e = 0; e < mesh.num_elements(); ++e)
    for (int g = 0; g < 3; ++g) EXPECT_DOUBLE_EQ(q(e, g), 1.0);
}

TEST(Source, Option1MatchesMaterialRegion) {
  const mesh::HexMesh mesh = make_mesh();
  const auto q = make_external_source(mesh, 1, 2);
  const auto mat = assign_materials(mesh, 1);
  for (int e = 0; e < mesh.num_elements(); ++e)
    EXPECT_DOUBLE_EQ(q(e, 0), mat[e] == 1 ? 1.0 : 0.0);
}

TEST(Source, Option2SmallerThanOption1) {
  const mesh::HexMesh mesh = make_mesh();
  const auto q1 = make_external_source(mesh, 1, 1);
  const auto q2 = make_external_source(mesh, 2, 1);
  double s1 = 0.0, s2 = 0.0;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    s1 += q1(e, 0);
    s2 += q2(e, 0);
  }
  EXPECT_GT(s1, s2);
  EXPECT_GT(s2, 0.0);
}

TEST(Input, ValidationCatchesBadFields) {
  Input input;
  EXPECT_NO_THROW(input.validate());
  input.order = 0;
  EXPECT_THROW(input.validate(), InvalidInput);
  input = Input{};
  input.scattering_ratio = 1.0;
  EXPECT_THROW(input.validate(), InvalidInput);
  input = Input{};
  input.mat_opt = 5;
  EXPECT_THROW(input.validate(), InvalidInput);
  input = Input{};
  input.epsi = 0.0;
  EXPECT_THROW(input.validate(), InvalidInput);
}

TEST(Input, EnumNamesRoundTrip) {
  for (const auto layout :
       {FluxLayout::AngleElementGroup, FluxLayout::AngleGroupElement})
    EXPECT_EQ(layout_from_string(to_string(layout)), layout);
  for (const auto scheme :
       {ConcurrencyScheme::Serial, ConcurrencyScheme::Elements,
        ConcurrencyScheme::ElementsGroups, ConcurrencyScheme::Groups,
        ConcurrencyScheme::AnglesAtomic})
    EXPECT_EQ(scheme_from_string(to_string(scheme)), scheme);
  EXPECT_THROW((void)layout_from_string("xyz"), InvalidInput);
  EXPECT_THROW((void)scheme_from_string("xyz"), InvalidInput);
}

}  // namespace
}  // namespace unsnap::snap

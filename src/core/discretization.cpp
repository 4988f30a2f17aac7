#include "core/discretization.hpp"

#include "mesh/mesh_builder.hpp"
#include "mesh/mesh_checks.hpp"
#include "util/assert.hpp"

namespace unsnap::core {

Discretization::Discretization(mesh::HexMesh mesh, int order,
                               angular::QuadratureKind quadrature_kind,
                               int nang, sweep::CycleStrategy cycle_strategy)
    : mesh_(std::move(mesh)),
      ref_(order),
      quadrature_(quadrature_kind, nang),
      integrals_(std::make_unique<ElementIntegrals>(mesh_, ref_)),
      schedules_(std::make_unique<sweep::ScheduleSet>(mesh_, quadrature_,
                                                      cycle_strategy)) {}

namespace {

mesh::HexMesh build_input_mesh(const snap::Input& input) {
  input.validate();
  mesh::MeshOptions options;
  options.dims = input.dims;
  options.extent = {input.extent[0], input.extent[1], input.extent[2]};
  options.twist = input.twist;
  options.shuffle_seed = input.shuffle_seed;
  mesh::HexMesh mesh = mesh::build_brick_mesh(options);
  if (input.validate_mesh) {
    const auto report =
        mesh::check_mesh(mesh, fem::HexReferenceElement(input.order));
    require(report.ok(), "mesh validation failed: " + report.summary());
  }
  return mesh;
}

}  // namespace

Discretization::Discretization(const snap::Input& input)
    : Discretization(build_input_mesh(input), input.order, input.quadrature,
                     input.nang, input.cycle_strategy) {}

}  // namespace unsnap::core

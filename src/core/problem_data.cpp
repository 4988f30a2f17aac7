#include "core/problem_data.hpp"

#include "util/assert.hpp"

namespace unsnap::core {

ProblemData::ProblemData(const Discretization& disc, const snap::Input& input)
    : ProblemData(disc,
                  xs::Library::synthetic(input.ng, input.scattering_ratio,
                                         input.nmom),
                  snap::assign_materials(disc.mesh(), input.mat_opt),
                  snap::make_external_source(disc.mesh(), input.src_opt,
                                             input.ng)) {}

ProblemData::ProblemData(const Discretization& disc, xs::Library xs_in,
                         std::vector<int> material_in,
                         NDArray<double, 2> qext_in)
    : xs(std::move(xs_in)),
      material(std::move(material_in)),
      qext(std::move(qext_in)) {
  require(static_cast<int>(material.size()) == disc.num_elements(),
          "ProblemData: material field size mismatch");
  require(static_cast<int>(qext.extent(0)) == disc.num_elements() &&
              static_cast<int>(qext.extent(1)) == xs.ng,
          "ProblemData: source array shape mismatch");
  const auto ng = static_cast<std::size_t>(xs.ng);
  for (const xs::Material& mat : xs.materials)
    require(mat.sigt.size() == ng &&
                mat.sigs.extent(0) == static_cast<std::size_t>(xs.nmom) &&
                mat.sigs.extent(1) == ng && mat.sigs.extent(2) == ng,
            "ProblemData: material '" + mat.name +
                "' needs ng totals and an nmom x ng x ng scatter matrix");
  const int nm = static_cast<int>(xs.materials.size());
  for (const int m : material)
    require(m >= 0 && m < nm, "ProblemData: material id out of range");
  flatten(disc);
}

void ProblemData::flatten(const Discretization& disc) {
  const auto ne = static_cast<std::size_t>(disc.num_elements());
  const auto ng = static_cast<std::size_t>(xs.ng);
  sigt_eg.resize({ne, ng});
  siga_eg.resize({ne, ng});
  for (std::size_t e = 0; e < ne; ++e) {
    const xs::Material& mat = xs.materials[material[e]];
    for (std::size_t g = 0; g < ng; ++g) {
      sigt_eg(e, g) = mat.sigt[g];
      siga_eg(e, g) =
          mat.sigt[g] - mat.scattering_total(static_cast<int>(g));
    }
  }
}

}  // namespace unsnap::core

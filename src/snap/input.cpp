#include "snap/input.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace unsnap::snap {

std::string to_string(FluxLayout layout) {
  return layout == FluxLayout::AngleElementGroup ? "aeg" : "age";
}

std::string to_string(ConcurrencyScheme scheme) {
  switch (scheme) {
    case ConcurrencyScheme::Serial: return "serial";
    case ConcurrencyScheme::Elements: return "elements";
    case ConcurrencyScheme::ElementsGroups: return "elements-groups";
    case ConcurrencyScheme::Groups: return "groups";
    case ConcurrencyScheme::AnglesAtomic: return "angles-atomic";
    case ConcurrencyScheme::AngleBatch: return "angle-batch";
  }
  UNSNAP_ASSERT(false);
  return {};
}

std::string to_string(IterationScheme scheme) {
  switch (scheme) {
    case IterationScheme::SourceIteration: return "source-iteration";
    case IterationScheme::Gmres: return "gmres";
  }
  UNSNAP_ASSERT(false);
  return {};
}

std::string to_string(SweepExchange exchange) {
  switch (exchange) {
    case SweepExchange::BlockJacobi: return "jacobi";
    case SweepExchange::Pipelined: return "pipelined";
  }
  UNSNAP_ASSERT(false);
  return {};
}

std::string to_string(PreassemblyMode mode) {
  switch (mode) {
    case PreassemblyMode::None: return "none";
    case PreassemblyMode::ExplicitInverse: return "explicit-inverse";
  }
  UNSNAP_ASSERT(false);
  return {};
}

PreassemblyMode preassembly_from_string(const std::string& name) {
  if (name == "none") return PreassemblyMode::None;
  if (name == "explicit-inverse") return PreassemblyMode::ExplicitInverse;
  throw InvalidInput("unknown preassembly mode '" + name +
                     "' (expected none or explicit-inverse)");
}

FluxLayout layout_from_string(const std::string& name) {
  if (name == "aeg") return FluxLayout::AngleElementGroup;
  if (name == "age") return FluxLayout::AngleGroupElement;
  throw InvalidInput("unknown layout '" + name + "' (expected aeg or age)");
}

ConcurrencyScheme scheme_from_string(const std::string& name) {
  if (name == "serial") return ConcurrencyScheme::Serial;
  if (name == "elements") return ConcurrencyScheme::Elements;
  if (name == "elements-groups") return ConcurrencyScheme::ElementsGroups;
  if (name == "groups") return ConcurrencyScheme::Groups;
  if (name == "angles-atomic") return ConcurrencyScheme::AnglesAtomic;
  if (name == "angle-batch") return ConcurrencyScheme::AngleBatch;
  throw InvalidInput("unknown scheme '" + name +
                     "' (expected serial, elements, elements-groups, groups, "
                     "angles-atomic or angle-batch)");
}

IterationScheme iteration_scheme_from_string(const std::string& name) {
  if (name == "source-iteration" || name == "si")
    return IterationScheme::SourceIteration;
  if (name == "gmres") return IterationScheme::Gmres;
  throw InvalidInput("unknown iteration scheme '" + name +
                     "' (expected source-iteration, si or gmres)");
}

SweepExchange sweep_exchange_from_string(const std::string& name) {
  if (name == "jacobi" || name == "block-jacobi")
    return SweepExchange::BlockJacobi;
  if (name == "pipelined") return SweepExchange::Pipelined;
  throw InvalidInput("unknown sweep exchange '" + name +
                     "' (expected jacobi, block-jacobi or pipelined)");
}

void Input::validate() const {
  require(dims[0] >= 1 && dims[1] >= 1 && dims[2] >= 1,
          "input: mesh dims must be positive");
  require(extent[0] > 0 && extent[1] > 0 && extent[2] > 0,
          "input: extent must be positive");
  require(order >= 1 && order <= 8, "input: element order must be in 1..8");
  require(nang >= 1, "input: nang must be positive");
  require(ng >= 1, "input: ng must be positive");
  require(nmom >= 1 && nmom <= 6, "input: nmom must be in 1..6");
  require(nmom <= nang,
          "input: nmom scattering orders need at least nmom angles per "
          "octant to resolve the flux moments");
  require(mat_opt >= 0 && mat_opt <= 2, "input: mat_opt must be 0, 1 or 2");
  require(src_opt >= 0 && src_opt <= 2, "input: src_opt must be 0, 1 or 2");
  require(scattering_ratio >= 0.0 && scattering_ratio < 1.0,
          "input: scattering ratio must be in [0, 1)");
  require(epsi > 0.0, "input: epsi must be positive");
  require(iitm >= 1 && oitm >= 1, "input: iteration limits must be >= 1");
  require(gmres_restart >= 1, "input: gmres_restart must be >= 1");
  require(gmres_max_iters >= 1, "input: gmres_max_iters must be >= 1");
  require(num_threads >= 0, "input: num_threads must be >= 0");
  // Reflective sides mirror the flux as if the boundary planes were the
  // untwisted ones; beyond a small twist that approximation is wrong, not
  // merely inaccurate (see the boundary field's doc comment).
  if (any_reflective())
    require(std::fabs(twist) <= 0.01,
            "input: reflective boundaries require |twist| <= 0.01 "
            "(reflection is specular w.r.t. the untwisted planes)");
}

}  // namespace unsnap::snap

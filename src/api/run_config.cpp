#include "api/run_config.hpp"

#include <cctype>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "core/problem_data.hpp"
#include "snap/deck.hpp"
#include "util/assert.hpp"
#include "util/threads.hpp"
#include "xs/library.hpp"

namespace unsnap::api {

// RunConfig's `xs` member shadows the xs:: namespace inside member
// functions; alias it for the library route.
namespace libxs = ::unsnap::xs;

std::string to_string(RunMode mode) {
  switch (mode) {
    case RunMode::Solve: return "solve";
    case RunMode::Schedule: return "schedule";
    case RunMode::Mms: return "mms";
    case RunMode::Time: return "time";
    case RunMode::Keff: return "keff";
  }
  UNSNAP_ASSERT(false);
  return {};
}

RunMode run_mode_from_string(const std::string& name) {
  if (name == "solve") return RunMode::Solve;
  if (name == "schedule") return RunMode::Schedule;
  if (name == "mms") return RunMode::Mms;
  if (name == "time") return RunMode::Time;
  if (name == "keff") return RunMode::Keff;
  throw InvalidInput("unknown run mode '" + name +
                     "' (expected solve, schedule, mms, time or keff)");
}

snap::CrossSections MaterialModel::cross_sections() const {
  UNSNAP_ASSERT(custom());
  snap::CrossSections xs;
  xs.num_materials = static_cast<int>(sigt.size());
  xs.ng = num_groups;
  const auto nm = sigt.size();
  const auto g_count = static_cast<std::size_t>(num_groups);
  xs.sigt.resize({nm, g_count});
  xs.sigs.resize({nm, g_count});
  xs.siga.resize({nm, g_count});
  xs.slgg.resize({nm, g_count, g_count}, 0.0);
  for (std::size_t m = 0; m < nm; ++m)
    for (std::size_t g = 0; g < g_count; ++g) {
      xs.sigt(m, g) = sigt[m];
      xs.sigs(m, g) = scattering[m] * sigt[m];
      xs.siga(m, g) = xs.sigt(m, g) - xs.sigs(m, g);
      xs.slgg(m, g, g) = xs.sigs(m, g);  // isotropic, in-group only
    }
  return xs;
}

void RunConfig::validate() const {
  // A deck asking for more threads than the machine has would silently
  // oversubscribe under OpenMP; reject it here so the error carries the
  // deck's source location (the binder wraps validate() failures). The
  // daemon reuses this same check against its worker thread budget.
  util::require_thread_budget(execution.num_threads, "execution: threads");
  // Field ranges of the flat deck first: the cross-field rules below
  // assume positive dims, group counts and orders.
  to_input().validate();
  // The [xs] library is loaded once up front: the material-route, mode
  // and groupset checks below all need its shape.
  std::optional<libxs::Library> lib;
  if (xs.active()) {
    lib = libxs::read_library_file(xs.file);
    require(xs.k_tol > 0.0, "xs: k_tol must be positive");
    require(xs.fission_tol > 0.0, "xs: fission_tol must be positive");
    require(xs.max_outers >= 1, "xs: max_outers must be at least 1");
    require(materials.num_groups == lib->ng,
            "materials: ng = " + std::to_string(materials.num_groups) +
                " disagrees with the [xs] library '" + xs.file +
                "', which carries " + std::to_string(lib->ng) + " groups");
    require(lib->nmom >= angular.nmom,
            "xs: library '" + xs.file + "' carries " +
                std::to_string(lib->nmom) +
                " scattering orders but [angular] nmom = " +
                std::to_string(angular.nmom));
    if (!xs.groupsets.empty())
      (void)libxs::parse_groupsets(xs.groupsets, lib->ng);
  }
  if (materials.custom()) {
    require(!xs.active(),
            "materials: the custom sigt route and an [xs] library are "
            "mutually exclusive");
    require(materials.material_names.empty(),
            "materials: material name bindings need an [xs] library");
    require(materials.sigt.size() == materials.scattering.size(),
            "materials: sigt lists " + std::to_string(materials.sigt.size()) +
                " materials but scattering lists " +
                std::to_string(materials.scattering.size()));
    const int nm = static_cast<int>(materials.sigt.size());
    for (const double s : materials.sigt)
      require(std::isfinite(s) && s > 0.0,
              "materials: sigt entries must be positive and finite");
    for (const double c : materials.scattering)
      require(std::isfinite(c) && c >= 0.0 && c < 1.0,
              "materials: scattering ratios must be in [0, 1)");
    // The sigt route's cross sections are isotropic: one scattering order.
    require(angular.nmom == 1,
            "materials: custom cross sections carry 1 scattering orders but "
            "the angular spec asks for " +
                std::to_string(angular.nmom));
    require(materials.default_material >= 0 &&
                materials.default_material < nm,
            "materials: default_material outside 0.." +
                std::to_string(nm - 1));
    for (const MaterialRegion& r : materials.regions)
      require(r.material >= 0 && r.material < nm,
              "materials: region material id " +
                  std::to_string(r.material) + " outside 0.." +
                  std::to_string(nm - 1));
  } else if (xs.active()) {
    require(materials.scattering.empty(),
            "materials: scattering lists need a sigt list (the custom "
            "route)");
    for (const std::string& name : materials.material_names)
      require(lib->index_of(name) >= 0,
              "materials: material '" + name +
                  "' is not in the [xs] library '" + xs.file + "'");
    const int nm = materials.material_names.empty()
                       ? static_cast<int>(lib->materials.size())
                       : static_cast<int>(materials.material_names.size());
    require(materials.default_material >= 0 &&
                materials.default_material < nm,
            "materials: default_material outside 0.." +
                std::to_string(nm - 1));
    for (const MaterialRegion& r : materials.regions)
      require(r.material >= 0 && r.material < nm,
              "materials: region material id " +
                  std::to_string(r.material) + " outside 0.." +
                  std::to_string(nm - 1));
  } else {
    require(materials.regions.empty() && materials.scattering.empty(),
            "materials: region/scattering lists need a sigt list (the "
            "custom route)");
    require(materials.material_names.empty(),
            "materials: material name bindings need an [xs] library "
            "([xs] file = ...)");
  }
  for (const SourceRegion& r : source.regions)
    require(r.group >= -1 && r.group < materials.num_groups,
            "source: region group " + std::to_string(r.group) +
                " outside the " + std::to_string(materials.num_groups) +
                " groups");
  const bool custom = materials.custom() || source.custom();
  require(decomposition.px >= 1 && decomposition.py >= 1 &&
              decomposition.pz >= 1,
          "decomposition: px, py and pz must be positive");
  const int ranks = decomposition.ranks();
  // Reject over-decomposition here (not only in make_kba_partition) so a
  // deck gets a located "<file>: ..." message before any mesh is built.
  const char axis[3] = {'x', 'y', 'z'};
  const int blocks[3] = {decomposition.px, decomposition.py,
                         decomposition.pz};
  for (int a = 0; a < 3; ++a)
    require(blocks[a] <= mesh.dims[static_cast<std::size_t>(a)],
            std::string("decomposition: p") + axis[a] + " = " +
                std::to_string(blocks[a]) + " exceeds the " +
                std::to_string(mesh.dims[static_cast<std::size_t>(a)]) +
                " cells along " + axis[a]);
  if (mode == RunMode::Time) {
    require(time.dt > 0.0, "time: dt must be positive");
    require(time.steps >= 1, "time: steps must be >= 1");
    require(ranks == 1, "time: the time integrator is single-domain");
    require(!custom,
            "time: the time integrator consumes the flat snap::Input deck "
            "(no custom material/source regions)");
  }
  if (mode == RunMode::Time && xs.active())
    require(!lib->velocity.empty(),
            "time: the [xs] library '" + xs.file +
                "' carries no group velocities");
  if (mode == RunMode::Mms) {
    require(ranks == 1, "mms: manufactured runs are single-domain");
    require(!xs.active(),
            "mms: manufactured runs overwrite materials (no [xs] library)");
  }
  if (mode == RunMode::Keff) {
    require(xs.active(),
            "keff: mode = keff needs an [xs] library ([xs] file = ...)");
    require(lib->has_fission(),
            "keff: the [xs] library '" + xs.file +
                "' carries no fission data (nu_sigf)");
    require(!source.custom(),
            "keff: k-eigenvalue runs are source-free (no [source] regions)");
    require(ranks == 1, "keff: the k-eigenvalue driver is single-domain");
  }
  if (ranks > 1) {
    require(!xs.active(),
            "decomposition: the distributed drivers consume the flat "
            "snap::Input deck (no [xs] library)");
    require(!custom,
            "decomposition: the distributed drivers consume the flat "
            "snap::Input deck (no custom material/source regions)");
    // The distributed drivers build per-rank solvers over per-rank
    // subdomain meshes; a global pre-assembled operator has no meaning
    // there and silently ignoring the knob would misreport the run.
    require(execution.preassembly == snap::PreassemblyMode::None,
            "execution: preassembly requires a single-domain run "
            "(decomposition px * py * pz == 1)");
  }
}

snap::Input RunConfig::to_input() const {
  snap::Input input;
  input.dims = mesh.dims;
  input.extent = mesh.extent;
  input.twist = mesh.twist;
  input.shuffle_seed = mesh.shuffle_seed;
  input.order = mesh.order;
  input.validate_mesh = mesh.validate;
  input.cycle_strategy = mesh.cycle_strategy;
  input.nang = angular.nang;
  input.quadrature = angular.quadrature;
  input.nmom = angular.nmom;
  input.ng = materials.num_groups;
  input.mat_opt = materials.mat_opt;
  input.scattering_ratio = materials.scattering_ratio;
  input.src_opt = source.src_opt;
  input.boundary = boundary.sides;
  input.epsi = iteration.epsi;
  input.iitm = iteration.iitm;
  input.oitm = iteration.oitm;
  input.fixed_iterations = iteration.fixed_iterations;
  input.iteration_scheme = iteration.scheme;
  input.gmres_restart = iteration.gmres_restart;
  input.gmres_max_iters = iteration.gmres_max_iters;
  input.layout = execution.layout;
  input.scheme = execution.scheme;
  input.solver = execution.solver;
  input.num_threads = execution.num_threads;
  input.time_solve = execution.time_solve;
  input.sweep_exchange = decomposition.exchange;
  return input;
}

namespace {

/// Material id of the first region containing `centroid`, else the
/// default material (the sigt and library routes).
int material_at(const MaterialModel& model, const fem::Vec3& centroid) {
  for (const MaterialRegion& r : model.regions)
    if (r.box.contains(centroid)) return r.material;
  return model.default_material;
}

/// Strength of the first region containing `centroid` that applies to
/// `group`, else 0.
double strength_at(const SourceModel& model, const fem::Vec3& centroid,
                   int group) {
  for (const SourceRegion& r : model.regions)
    if ((r.group < 0 || r.group == group) && r.box.contains(centroid))
      return r.strength;
  return 0.0;
}

}  // namespace

core::ProblemData RunConfig::problem_data(
    const core::Discretization& disc) const {
  const mesh::HexMesh& m = disc.mesh();
  const int ne = m.num_elements();
  const int ng = materials.num_groups;

  snap::CrossSections table =
      materials.custom()
          ? materials.cross_sections()
          : xs.active()
                ? libxs::read_library_file(xs.file).cross_sections(
                      materials.material_names, angular.nmom)
                : snap::make_cross_sections(ng, materials.scattering_ratio,
                                            angular.nmom);

  std::vector<int> material;
  if (materials.custom() || xs.active()) {
    material.reserve(static_cast<std::size_t>(ne));
    for (int e = 0; e < ne; ++e)
      material.push_back(material_at(materials, m.centroid(e)));
  } else {
    material = snap::assign_materials(m, materials.mat_opt);
  }

  NDArray<double, 2> qext;
  if (source.custom()) {
    qext.resize(
        {static_cast<std::size_t>(ne), static_cast<std::size_t>(ng)});
    for (int e = 0; e < ne; ++e) {
      const fem::Vec3 centroid = m.centroid(e);
      for (int g = 0; g < ng; ++g)
        qext(e, g) = strength_at(source, centroid, g);
    }
  } else {
    qext = snap::make_external_source(m, source.src_opt, ng);
  }

  return core::ProblemData(disc, std::move(table), std::move(material),
                           std::move(qext));
}

bool RunConfig::operator==(const RunConfig& o) const {
  return title == o.title && mode == o.mode && mesh == o.mesh &&
         angular == o.angular && materials == o.materials && xs == o.xs &&
         source == o.source && boundary == o.boundary &&
         iteration == o.iteration && decomposition == o.decomposition &&
         execution == o.execution && time == o.time && output == o.output;
}

// --- deck binding ---------------------------------------------------------

namespace {

using snap::DeckEntry;
using snap::DeckFile;
using snap::DeckSection;

[[noreturn]] void fail_at(const DeckFile& deck, const DeckEntry& entry,
                          const std::string& message) {
  throw InvalidInput(deck.at(entry.line, entry.column) + message);
}

/// Re-prefix from_string / range errors with the entry's location.
template <typename F>
auto located(const DeckFile& deck, const DeckEntry& entry, F&& f) {
  try {
    return f();
  } catch (const InvalidInput& err) {
    throw InvalidInput(deck.at(entry.line, entry.column) + err.what());
  }
}

/// Binds one DeckFile onto a RunConfig: section dispatch, per-key typed
/// parses, duplicate-scalar-key and unknown-section/key rejection, all
/// reported with the offending line (and column for values).
class Binder {
 public:
  explicit Binder(const DeckFile& deck) : deck_(deck) {}

  RunConfig bind() {
    for (const DeckSection& section : deck_.sections) {
      if (section.name == "run") bind_section(section, &Binder::run_key);
      else if (section.name == "mesh")
        bind_section(section, &Binder::mesh_key);
      else if (section.name == "angular")
        bind_section(section, &Binder::angular_key);
      else if (section.name == "materials")
        bind_section(section, &Binder::materials_key);
      else if (section.name == "xs")
        bind_section(section, &Binder::xs_key);
      else if (section.name == "source")
        bind_section(section, &Binder::source_key);
      else if (section.name == "boundary")
        bind_section(section, &Binder::boundary_key);
      else if (section.name == "iteration")
        bind_section(section, &Binder::iteration_key);
      else if (section.name == "decomposition")
        bind_section(section, &Binder::decomposition_key);
      else if (section.name == "execution")
        bind_section(section, &Binder::execution_key);
      else if (section.name == "time")
        bind_section(section, &Binder::time_key);
      else if (section.name == "output")
        bind_section(section, &Binder::output_key);
      else
        throw InvalidInput(
            deck_.at(section.line) + "unknown section [" + section.name +
            "] (known: run, mesh, angular, materials, xs, source, boundary, "
            "iteration, decomposition, execution, time, output)");
    }
    // Without the key, keff converges its power iteration (the inner
    // policy of xs::KeffSolver); every other mode keeps the paper's
    // fixed-work timing setup.
    if (!seen_.contains("iteration.fixed_iterations"))
      config_.iteration.fixed_iterations = config_.mode != RunMode::Keff;
    if (config_.xs.active()) resolve_library();
    try {
      config_.validate();
    } catch (const InvalidInput& err) {
      throw InvalidInput(deck_.source + ": " + err.what());
    }
    return config_;
  }

 private:
  const DeckFile& deck_;
  RunConfig config_;
  std::map<std::string, int> seen_;  // "section.key" -> first line
  const DeckEntry* ng_entry_ = nullptr;       // materials ng, if the deck set it
  const DeckEntry* xs_file_entry_ = nullptr;  // [xs] file entry

  /// Resolve the [xs] library path against the deck's directory, load it,
  /// and reconcile its group count with the deck: an explicit `ng` that
  /// disagrees is rejected at its own line; an absent one adopts the
  /// library's. Runs before validate() so shape errors carry the deck
  /// location rather than the generic `source:` prefix.
  void resolve_library() {
    std::string path = config_.xs.file;
    if (path.front() != '/') {
      const auto slash = deck_.source.rfind('/');
      if (slash != std::string::npos)
        path = deck_.source.substr(0, slash + 1) + path;
    }
    config_.xs.file = path;  // echoed by write_deck, so round-trip holds
    libxs::Library lib;
    try {
      lib = libxs::read_library_file(path);
    } catch (const InvalidInput& err) {
      // Parser errors already carry their own "path:line:col:" location;
      // anything else (unreadable file) points at the `file =` entry.
      const std::string what = err.what();
      if (what.rfind(path + ":", 0) == 0) throw;
      UNSNAP_ASSERT(xs_file_entry_ != nullptr);
      fail_at(deck_, *xs_file_entry_, what);
    }
    if (ng_entry_ == nullptr) {
      config_.materials.num_groups = lib.ng;
    } else if (config_.materials.num_groups != lib.ng) {
      fail_at(deck_, *ng_entry_,
              "ng = " + std::to_string(config_.materials.num_groups) +
                  " disagrees with the [xs] library '" + path +
                  "', which carries " + std::to_string(lib.ng) + " groups");
    }
  }

  using KeyHandler = bool (Binder::*)(const DeckEntry&);

  void bind_section(const DeckSection& section, KeyHandler handler) {
    for (const DeckEntry& entry : section.entries) {
      // Region lists repeat by design; every other key is scalar.
      if (entry.key != "region") {
        const std::string id = section.name + "." + entry.key;
        const auto [it, inserted] = seen_.emplace(id, entry.line);
        if (!inserted)
          throw InvalidInput(deck_.at(entry.line) + "duplicate key '" +
                             entry.key + "' in [" + section.name +
                             "] (first at line " +
                             std::to_string(it->second) + ")");
      }
      if (!(this->*handler)(entry))
        throw InvalidInput(deck_.at(entry.line) + "unknown key '" +
                           entry.key + "' in [" + section.name + "]");
    }
  }

  [[nodiscard]] int get_int(const DeckEntry& e) {
    return snap::entry_int(deck_, e);
  }
  [[nodiscard]] double get_double(const DeckEntry& e) {
    return snap::entry_double(deck_, e);
  }
  [[nodiscard]] bool get_bool(const DeckEntry& e) {
    return snap::entry_bool(deck_, e);
  }

  [[nodiscard]] Box parse_box(const DeckEntry& e,
                              const std::vector<double>& v,
                              std::size_t offset) {
    UNSNAP_ASSERT(v.size() >= offset + 6);
    Box box;
    for (std::size_t axis = 0; axis < 3; ++axis) {
      box.lo[axis] = v[offset + 2 * axis];
      box.hi[axis] = v[offset + 2 * axis + 1];
      if (!(box.lo[axis] < box.hi[axis]))
        fail_at(deck_, e, "region box bounds must satisfy lo < hi per axis");
    }
    return box;
  }

  bool run_key(const DeckEntry& e) {
    if (e.key == "title") config_.title = e.value;
    else if (e.key == "mode")
      config_.mode =
          located(deck_, e, [&] { return run_mode_from_string(e.value); });
    else return false;
    return true;
  }

  bool mesh_key(const DeckEntry& e) {
    MeshSpec& m = config_.mesh;
    if (e.key == "dims") {
      const auto v = snap::entry_doubles(deck_, e);
      if (v.size() != 3) fail_at(deck_, e, "dims needs three integers");
      for (int i = 0; i < 3; ++i) {
        m.dims[static_cast<std::size_t>(i)] =
            static_cast<int>(v[static_cast<std::size_t>(i)]);
        if (m.dims[static_cast<std::size_t>(i)] !=
            v[static_cast<std::size_t>(i)])
          fail_at(deck_, e, "dims needs three integers");
      }
    } else if (e.key == "extent") {
      const auto v = snap::entry_doubles(deck_, e);
      if (v.size() != 3) fail_at(deck_, e, "extent needs three numbers");
      for (std::size_t i = 0; i < 3; ++i) m.extent[i] = v[i];
    } else if (e.key == "twist") m.twist = get_double(e);
    else if (e.key == "shuffle_seed")
      m.shuffle_seed = static_cast<std::uint64_t>(snap::entry_long(deck_, e));
    else if (e.key == "order") m.order = get_int(e);
    else if (e.key == "validate") m.validate = get_bool(e);
    else if (e.key == "cycles")
      m.cycle_strategy = located(
          deck_, e, [&] { return sweep::cycle_strategy_from_string(e.value); });
    else return false;
    return true;
  }

  bool angular_key(const DeckEntry& e) {
    AngularSpec& a = config_.angular;
    if (e.key == "nang") a.nang = get_int(e);
    else if (e.key == "quadrature")
      a.quadrature = located(
          deck_, e, [&] { return angular::quadrature_from_string(e.value); });
    else if (e.key == "nmom") a.nmom = get_int(e);
    else return false;
    return true;
  }

  bool materials_key(const DeckEntry& e) {
    MaterialModel& m = config_.materials;
    if (e.key == "ng") {
      m.num_groups = get_int(e);
      ng_entry_ = &e;
    } else if (e.key == "material") {
      std::istringstream names(e.value);
      std::string name;
      while (names >> name) m.material_names.push_back(name);
      if (m.material_names.empty())
        fail_at(deck_, e, "material needs at least one library material name");
    } else if (e.key == "mat_opt") m.mat_opt = get_int(e);
    else if (e.key == "scattering_ratio") m.scattering_ratio = get_double(e);
    else if (e.key == "sigt") m.sigt = snap::entry_doubles(deck_, e);
    else if (e.key == "scattering")
      m.scattering = snap::entry_doubles(deck_, e);
    else if (e.key == "default_material") m.default_material = get_int(e);
    else if (e.key == "region") {
      const auto v = snap::entry_doubles(deck_, e);
      if (v.size() != 7)
        fail_at(deck_, e,
                "material region needs 7 values: <material> "
                "<x0> <x1> <y0> <y1> <z0> <z1>");
      MaterialRegion r;
      r.material = static_cast<int>(v[0]);
      if (r.material != v[0])
        fail_at(deck_, e, "region material id must be an integer");
      r.box = parse_box(e, v, 1);
      m.regions.push_back(r);
    } else return false;
    return true;
  }

  bool xs_key(const DeckEntry& e) {
    XsSpec& x = config_.xs;
    if (e.key == "file") {
      x.file = e.value;
      xs_file_entry_ = &e;
    } else if (e.key == "groupsets") x.groupsets = e.value;
    else if (e.key == "k_tol") x.k_tol = get_double(e);
    else if (e.key == "fission_tol") x.fission_tol = get_double(e);
    else if (e.key == "max_outers") x.max_outers = get_int(e);
    else if (e.key == "extrapolate") x.extrapolate = get_bool(e);
    else return false;
    return true;
  }

  bool source_key(const DeckEntry& e) {
    SourceModel& s = config_.source;
    if (e.key == "src_opt") s.src_opt = get_int(e);
    else if (e.key == "region") {
      const auto v = snap::entry_doubles(deck_, e);
      if (v.size() != 7 && v.size() != 8)
        fail_at(deck_, e,
                "source region needs 7 or 8 values: <strength> "
                "<x0> <x1> <y0> <y1> <z0> <z1> [group]");
      SourceRegion r;
      r.strength = v[0];
      r.box = parse_box(e, v, 1);
      if (v.size() == 8) {
        r.group = static_cast<int>(v[7]);
        if (r.group != v[7])
          fail_at(deck_, e, "source region group must be an integer");
      }
      s.regions.push_back(r);
    } else return false;
    return true;
  }

  bool boundary_key(const DeckEntry& e) {
    const auto bc = [&] {
      return located(deck_, e, [&] { return bc_from_string(e.value); });
    };
    if (e.key == "all") {
      config_.boundary.sides.fill(bc());
      return true;
    }
    // One of the six side names; anything else is unknown.
    try {
      const int side = side_from_string(e.key);
      config_.boundary.sides[static_cast<std::size_t>(side)] = bc();
      return true;
    } catch (const InvalidInput&) {
      return false;
    }
  }

  bool iteration_key(const DeckEntry& e) {
    IterationSpec& it = config_.iteration;
    if (e.key == "epsi") it.epsi = get_double(e);
    else if (e.key == "iitm") it.iitm = get_int(e);
    else if (e.key == "oitm") it.oitm = get_int(e);
    else if (e.key == "fixed_iterations") it.fixed_iterations = get_bool(e);
    else if (e.key == "scheme")
      it.scheme = located(deck_, e, [&] {
        return snap::iteration_scheme_from_string(e.value);
      });
    else if (e.key == "gmres_restart") it.gmres_restart = get_int(e);
    else if (e.key == "gmres_max_iters") it.gmres_max_iters = get_int(e);
    else return false;
    return true;
  }

  bool decomposition_key(const DeckEntry& e) {
    DecompositionSpec& d = config_.decomposition;
    if (e.key == "px") d.px = get_int(e);
    else if (e.key == "py") d.py = get_int(e);
    else if (e.key == "pz") d.pz = get_int(e);
    else if (e.key == "exchange")
      d.exchange = located(
          deck_, e, [&] { return snap::sweep_exchange_from_string(e.value); });
    else return false;
    return true;
  }

  bool execution_key(const DeckEntry& e) {
    ExecutionSpec& x = config_.execution;
    if (e.key == "layout")
      x.layout =
          located(deck_, e, [&] { return snap::layout_from_string(e.value); });
    else if (e.key == "scheme")
      x.scheme =
          located(deck_, e, [&] { return snap::scheme_from_string(e.value); });
    else if (e.key == "solver")
      x.solver =
          located(deck_, e, [&] { return linalg::solver_from_string(e.value); });
    else if (e.key == "threads") x.num_threads = get_int(e);
    else if (e.key == "preassembly")
      x.preassembly = located(
          deck_, e, [&] { return snap::preassembly_from_string(e.value); });
    else if (e.key == "time_solve") x.time_solve = get_bool(e);
    else return false;
    return true;
  }

  bool time_key(const DeckEntry& e) {
    TimeSpec& t = config_.time;
    if (e.key == "dt") t.dt = get_double(e);
    else if (e.key == "steps") t.steps = get_int(e);
    else if (e.key == "initial") t.initial = get_double(e);
    else if (e.key == "zero_source") t.zero_source = get_bool(e);
    else return false;
    return true;
  }

  bool output_key(const DeckEntry& e) {
    OutputSpec& o = config_.output;
    if (e.key == "report") o.report = get_bool(e);
    else if (e.key == "verbose") o.verbose = get_bool(e);
    else if (e.key == "json") o.json_path = e.value;
    else return false;
    return true;
  }
};

}  // namespace

RunConfig read_deck(std::istream& in, const std::string& source) {
  return Binder(snap::read_deck(in, source)).bind();
}

RunConfig read_deck_text(const std::string& text, const std::string& source) {
  return Binder(snap::read_deck_text(text, source)).bind();
}

RunConfig read_deck_file(const std::string& path) {
  return Binder(snap::read_deck_file(path)).bind();
}

namespace {

/// The deck format cannot express every string: comments start at
/// '#'/'!', values are single-line and end-trimmed. Reject (rather than
/// silently mangle) free-form values the reader could not round-trip.
void require_deck_encodable(const std::string& key,
                            const std::string& value) {
  for (const char c : value)
    require(c != '#' && c != '!' && c != '\n' && c != '\r',
            "write_deck: " + key +
                " contains a character the deck format cannot represent "
                "('#', '!' or a line break)");
  require(value.empty() || (!std::isspace(static_cast<unsigned char>(
                                value.front())) &&
                            !std::isspace(static_cast<unsigned char>(
                                value.back()))),
          "write_deck: " + key +
              " has leading/trailing whitespace, which deck values drop");
}

}  // namespace

std::string write_deck(const RunConfig& config) {
  require_deck_encodable("title", config.title);
  require_deck_encodable("output json path", config.output.json_path);
  snap::DeckWriter w;
  w.comment("UnSNAP run deck (see docs/DECKS.md for the format)");

  w.section("run");
  if (!config.title.empty()) w.entry("title", config.title);
  w.entry("mode", to_string(config.mode));

  const MeshSpec& m = config.mesh;
  w.section("mesh");
  w.entry("dims", std::vector<double>{static_cast<double>(m.dims[0]),
                                      static_cast<double>(m.dims[1]),
                                      static_cast<double>(m.dims[2])});
  w.entry("extent",
          std::vector<double>{m.extent[0], m.extent[1], m.extent[2]});
  w.entry("twist", m.twist);
  w.entry("shuffle_seed", static_cast<long long>(m.shuffle_seed));
  w.entry("order", m.order);
  w.entry("validate", m.validate);
  w.entry("cycles", sweep::to_string(m.cycle_strategy));

  const AngularSpec& a = config.angular;
  w.section("angular");
  w.entry("nang", a.nang);
  w.entry("quadrature", angular::to_string(a.quadrature));
  w.entry("nmom", a.nmom);

  const MaterialModel& mat = config.materials;
  const auto write_regions = [&w](const std::vector<MaterialRegion>& regions) {
    for (const MaterialRegion& r : regions)
      w.entry("region",
              std::to_string(r.material) + " " +
                  snap::deck_double(r.box.lo[0]) + " " +
                  snap::deck_double(r.box.hi[0]) + " " +
                  snap::deck_double(r.box.lo[1]) + " " +
                  snap::deck_double(r.box.hi[1]) + " " +
                  snap::deck_double(r.box.lo[2]) + " " +
                  snap::deck_double(r.box.hi[2]));
  };
  w.section("materials");
  w.entry("ng", mat.num_groups);
  if (mat.custom()) {
    // The generated-route knobs still round-trip when a deck set both.
    if (mat.mat_opt != MaterialModel{}.mat_opt)
      w.entry("mat_opt", mat.mat_opt);
    if (mat.scattering_ratio != MaterialModel{}.scattering_ratio)
      w.entry("scattering_ratio", mat.scattering_ratio);
    w.entry("sigt", mat.sigt);
    w.entry("scattering", mat.scattering);
    w.entry("default_material", mat.default_material);
    write_regions(mat.regions);
  } else if (config.xs.active()) {
    if (mat.mat_opt != MaterialModel{}.mat_opt)
      w.entry("mat_opt", mat.mat_opt);
    if (mat.scattering_ratio != MaterialModel{}.scattering_ratio)
      w.entry("scattering_ratio", mat.scattering_ratio);
    if (!mat.material_names.empty()) {
      std::string names;
      for (const std::string& name : mat.material_names) {
        require_deck_encodable("material name", name);
        require(!name.empty() &&
                    name.find_first_of(" \t") == std::string::npos,
                "write_deck: material names must be non-empty and free of "
                "whitespace");
        if (!names.empty()) names += ' ';
        names += name;
      }
      w.entry("material", names);
    }
    w.entry("default_material", mat.default_material);
    write_regions(mat.regions);
  } else {
    w.entry("mat_opt", mat.mat_opt);
    w.entry("scattering_ratio", mat.scattering_ratio);
  }

  if (!(config.xs == XsSpec{})) {
    const XsSpec& lib = config.xs;
    w.section("xs");
    if (!lib.file.empty()) {
      require_deck_encodable("xs file", lib.file);
      w.entry("file", lib.file);
    }
    if (!lib.groupsets.empty()) {
      require_deck_encodable("xs groupsets", lib.groupsets);
      w.entry("groupsets", lib.groupsets);
    }
    w.entry("k_tol", lib.k_tol);
    w.entry("fission_tol", lib.fission_tol);
    w.entry("max_outers", lib.max_outers);
    w.entry("extrapolate", lib.extrapolate);
  }

  const SourceModel& src = config.source;
  w.section("source");
  if (!src.custom()) {
    w.entry("src_opt", src.src_opt);
  } else {
    if (src.src_opt != SourceModel{}.src_opt)
      w.entry("src_opt", src.src_opt);
    for (const SourceRegion& r : src.regions) {
      std::string line = snap::deck_double(r.strength) + " " +
                         snap::deck_double(r.box.lo[0]) + " " +
                         snap::deck_double(r.box.hi[0]) + " " +
                         snap::deck_double(r.box.lo[1]) + " " +
                         snap::deck_double(r.box.hi[1]) + " " +
                         snap::deck_double(r.box.lo[2]) + " " +
                         snap::deck_double(r.box.hi[2]);
      if (r.group >= 0) line += " " + std::to_string(r.group);
      w.entry("region", line);
    }
  }

  w.section("boundary");
  bool uniform = true;
  for (const auto bc : config.boundary.sides)
    uniform = uniform && bc == config.boundary.sides[0];
  if (uniform) {
    w.entry("all", to_string(config.boundary.sides[0]));
  } else {
    for (int side = 0; side < 6; ++side)
      w.entry(side_to_string(side),
              to_string(config.boundary.sides[static_cast<std::size_t>(side)]));
  }

  const IterationSpec& it = config.iteration;
  w.section("iteration");
  w.entry("epsi", it.epsi);
  w.entry("iitm", it.iitm);
  w.entry("oitm", it.oitm);
  w.entry("fixed_iterations", it.fixed_iterations);
  w.entry("scheme", snap::to_string(it.scheme));
  w.entry("gmres_restart", it.gmres_restart);
  w.entry("gmres_max_iters", it.gmres_max_iters);

  const DecompositionSpec& d = config.decomposition;
  w.section("decomposition");
  w.entry("px", d.px);
  w.entry("py", d.py);
  w.entry("pz", d.pz);
  w.entry("exchange", snap::to_string(d.exchange));

  const ExecutionSpec& x = config.execution;
  w.section("execution");
  w.entry("layout", snap::to_string(x.layout));
  w.entry("scheme", snap::to_string(x.scheme));
  w.entry("solver", linalg::to_string(x.solver));
  w.entry("threads", x.num_threads);
  w.entry("preassembly", snap::to_string(x.preassembly));
  w.entry("time_solve", x.time_solve);

  if (config.mode == RunMode::Time || !(config.time == TimeSpec{})) {
    const TimeSpec& t = config.time;
    w.section("time");
    w.entry("dt", t.dt);
    w.entry("steps", t.steps);
    w.entry("initial", t.initial);
    w.entry("zero_source", t.zero_source);
  }

  const OutputSpec& o = config.output;
  w.section("output");
  w.entry("report", o.report);
  w.entry("verbose", o.verbose);
  if (!o.json_path.empty()) w.entry("json", o.json_path);

  return w.str();
}

}  // namespace unsnap::api

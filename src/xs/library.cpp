#include "xs/library.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "snap/deck.hpp"
#include "util/assert.hpp"

namespace unsnap::xs {

double Material::scattering_total(int g) const {
  if (!sigs_total.empty()) return sigs_total[static_cast<std::size_t>(g)];
  if (sigs.size() == 0) return 0.0;
  double sum = 0.0;
  const int ng = static_cast<int>(sigs.extent(1));
  for (int gt = 0; gt < ng; ++gt) sum += sigs(0, g, gt);
  return sum;
}

namespace {

bool same_array(const NDArray<double, 3>& a, const NDArray<double, 3>& b) {
  for (int d = 0; d < 3; ++d)
    if (a.extent(d) != b.extent(d)) return false;
  const double* pa = a.data();
  const double* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (pa[i] != pb[i]) return false;
  return true;
}

}  // namespace

bool Material::operator==(const Material& o) const {
  return name == o.name && sigt == o.sigt && sigs_total == o.sigs_total &&
         nu_sigf == o.nu_sigf && chi == o.chi && same_array(sigs, o.sigs);
}

bool Library::operator==(const Library& o) const {
  return ng == o.ng && nmom == o.nmom && velocity == o.velocity &&
         materials == o.materials;
}

int Library::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < materials.size(); ++i)
    if (materials[i].name == name) return static_cast<int>(i);
  return -1;
}

bool Library::has_fission() const {
  return std::any_of(materials.begin(), materials.end(),
                     [](const Material& m) { return m.fissile(); });
}

bool Library::pure_downscatter() const {
  for (const Material& m : materials) {
    if (m.sigs.size() == 0) continue;
    for (int l = 0; l < static_cast<int>(m.sigs.extent(0)); ++l)
      for (int gf = 0; gf < ng; ++gf)
        for (int gt = 0; gt < gf; ++gt)
          if (m.sigs(l, gf, gt) != 0.0) return false;
  }
  return true;
}

void Library::validate() const {
  require(ng >= 1, "xs library: ng must be positive");
  require(nmom >= 1 && nmom <= 6, "xs library: nmom must be in 1..6");
  const auto gc = static_cast<std::size_t>(ng);
  require(velocity.empty() || velocity.size() == gc,
          "xs library: velocities need one value per group");
  for (double v : velocity)
    require(v > 0.0, "xs library: group velocities must be positive");
  require(!materials.empty(), "xs library: no materials");
  for (const Material& m : materials) {
    const std::string where = "xs library: material '" + m.name + "': ";
    require(!m.name.empty(), "xs library: material with empty name");
    require(m.sigt.size() == gc, where + "sigt needs one value per group");
    for (double v : m.sigt) require(v > 0.0, where + "sigt must be positive");
    require(m.sigs_total.empty() || m.sigs_total.size() == gc,
            where + "sigs needs one value per group");
    require(m.nu_sigf.empty() == m.chi.empty(),
            where + "nu_sigf and chi must come together");
    if (m.fissile()) {
      require(m.nu_sigf.size() == gc && m.chi.size() == gc,
              where + "fission data needs one value per group");
      double sum = 0.0;
      for (double v : m.chi) {
        require(v >= 0.0, where + "chi must be non-negative");
        sum += v;
      }
      require(std::abs(sum - 1.0) <= 1e-12, where + "chi must sum to 1");
      for (double v : m.nu_sigf)
        require(v >= 0.0, where + "nu_sigf must be non-negative");
    }
    require(m.sigs.size() == 0 ||
                (m.sigs.extent(0) == static_cast<std::size_t>(nmom) &&
                 m.sigs.extent(1) == gc && m.sigs.extent(2) == gc),
            where + "scatter matrix must be nmom x ng x ng");
    if (m.sigs.size() != 0)
      for (int gf = 0; gf < ng; ++gf)
        for (int gt = 0; gt < ng; ++gt)
          require(m.sigs(0, gf, gt) >= 0.0,
                  where + "l = 0 scatter entries must be non-negative");
    for (int g = 0; g < ng; ++g) {
      const double s = m.scattering_total(g);
      require(s <= m.sigt[static_cast<std::size_t>(g)] * (1.0 + 1e-12),
              where + "group " + std::to_string(g) +
                  " scattering exceeds the total cross section");
    }
  }
}

// --- parsing ---------------------------------------------------------------

namespace {

struct Token {
  std::string text;
  int line = 0;
  int column = 0;
};

[[noreturn]] void fail(const std::string& source, int line, int column,
                       const std::string& message) {
  throw InvalidInput(source + ":" + std::to_string(line) + ":" +
                     std::to_string(column) + ": " + message);
}

[[noreturn]] void fail(const std::string& source, const Token& t,
                       const std::string& message) {
  fail(source, t.line, t.column, message);
}

// One non-blank line of the library file after comment stripping.
struct Line {
  std::vector<Token> tokens;
};

std::vector<Line> tokenize(const std::string& text) {
  std::vector<Line> lines;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? text.size() : eol;
    ++line_no;
    Line line;
    for (std::size_t i = pos; i < end;) {
      const char c = text[i];
      if (c == '#' || c == '!') break;
      if (c == ' ' || c == '\t' || c == '\r') {
        ++i;
        continue;
      }
      const std::size_t start = i;
      while (i < end && text[i] != ' ' && text[i] != '\t' &&
             text[i] != '\r' && text[i] != '#' && text[i] != '!')
        ++i;
      line.tokens.push_back({text.substr(start, i - start), line_no,
                             static_cast<int>(start - pos) + 1});
    }
    if (!line.tokens.empty()) lines.push_back(std::move(line));
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return lines;
}

double parse_double(const std::string& source, const Token& t) {
  const char* begin = t.text.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0')
    fail(source, t, "expected a number, got '" + t.text + "'");
  // strtod reads inf and nan, which every range check below would let
  // through (nan compares false) and the sweep would only meet as a pivot.
  if (!std::isfinite(v))
    fail(source, t, "expected a finite number, got '" + t.text + "'");
  return v;
}

int parse_int(const std::string& source, const Token& t) {
  const char* begin = t.text.c_str();
  char* end = nullptr;
  const long v = std::strtol(begin, &end, 10);
  if (end == begin || *end != '\0')
    fail(source, t, "expected an integer, got '" + t.text + "'");
  return static_cast<int>(v);
}

// Parse the ng values following a per-group vector keyword.
std::vector<double> group_values(const std::string& source, const Line& line,
                                 int ng) {
  const Token& kw = line.tokens[0];
  const int got = static_cast<int>(line.tokens.size()) - 1;
  if (got != ng)
    fail(source, kw,
         "'" + kw.text + "' needs " + std::to_string(ng) + " values (got " +
             std::to_string(got) + ")");
  std::vector<double> values(static_cast<std::size_t>(ng));
  for (int g = 0; g < ng; ++g)
    values[static_cast<std::size_t>(g)] =
        parse_double(source, line.tokens[static_cast<std::size_t>(g) + 1]);
  return values;
}

}  // namespace

Library read_library_text(const std::string& text, const std::string& source) {
  Library lib;
  lib.ng = 0;
  const std::vector<Line> lines = tokenize(text);

  bool in_material = false;
  bool moments_set = false;
  Material current;
  Token material_token;  // the `material` keyword of the open material
  Token chi_token;
  std::vector<char> scatter_seen;

  auto require_groups = [&](const Token& kw) {
    if (lib.ng == 0)
      fail(source, kw, "'" + kw.text + "' before the groups declaration");
  };

  for (const Line& line : lines) {
    const Token& kw = line.tokens[0];
    if (!in_material) {
      if (kw.text == "groups") {
        if (lib.ng != 0) fail(source, kw, "duplicate groups declaration");
        if (line.tokens.size() != 2)
          fail(source, kw, "'groups' needs one value");
        const int ng = parse_int(source, line.tokens[1]);
        if (ng < 1) fail(source, line.tokens[1], "groups must be positive");
        lib.ng = ng;
      } else if (kw.text == "moments") {
        if (moments_set) fail(source, kw, "duplicate moments declaration");
        if (!lib.materials.empty())
          fail(source, kw, "moments must precede the first material");
        if (line.tokens.size() != 2)
          fail(source, kw, "'moments' needs one value");
        const int nmom = parse_int(source, line.tokens[1]);
        if (nmom < 1 || nmom > 6)
          fail(source, line.tokens[1], "moments must be in 1..6");
        lib.nmom = nmom;
        moments_set = true;
      } else if (kw.text == "velocities") {
        require_groups(kw);
        if (!lib.velocity.empty())
          fail(source, kw, "duplicate velocities declaration");
        lib.velocity = group_values(source, line, lib.ng);
        for (std::size_t g = 0; g < lib.velocity.size(); ++g)
          if (lib.velocity[g] <= 0.0)
            fail(source, line.tokens[g + 1],
                 "group velocities must be positive");
      } else if (kw.text == "material") {
        require_groups(kw);
        if (line.tokens.size() != 2)
          fail(source, kw, "'material' needs a name");
        const std::string& name = line.tokens[1].text;
        if (lib.index_of(name) >= 0)
          fail(source, line.tokens[1], "duplicate material '" + name + "'");
        current = Material{};
        current.name = name;
        current.sigs.resize({static_cast<std::size_t>(lib.nmom),
                             static_cast<std::size_t>(lib.ng),
                             static_cast<std::size_t>(lib.ng)},
                            0.0);
        scatter_seen.assign(
            static_cast<std::size_t>(lib.nmom * lib.ng * lib.ng), 0);
        material_token = kw;
        chi_token = Token{};
        in_material = true;
      } else if (kw.text == "end") {
        fail(source, kw, "'end' without an open material");
      } else {
        fail(source, kw, "unknown keyword '" + kw.text + "'");
      }
      continue;
    }

    // Inside a material block.
    const std::string where = "material '" + current.name + "': ";
    if (kw.text == "sigt") {
      if (!current.sigt.empty()) fail(source, kw, where + "duplicate sigt");
      current.sigt = group_values(source, line, lib.ng);
      for (std::size_t g = 0; g < current.sigt.size(); ++g)
        if (current.sigt[g] <= 0.0)
          fail(source, line.tokens[g + 1], where + "sigt must be positive");
    } else if (kw.text == "sigs") {
      if (!current.sigs_total.empty())
        fail(source, kw, where + "duplicate sigs");
      current.sigs_total = group_values(source, line, lib.ng);
      for (std::size_t g = 0; g < current.sigs_total.size(); ++g)
        if (current.sigs_total[g] < 0.0)
          fail(source, line.tokens[g + 1],
               where + "sigs must be non-negative");
    } else if (kw.text == "nu_sigf") {
      if (!current.nu_sigf.empty())
        fail(source, kw, where + "duplicate nu_sigf");
      current.nu_sigf = group_values(source, line, lib.ng);
      for (std::size_t g = 0; g < current.nu_sigf.size(); ++g)
        if (current.nu_sigf[g] < 0.0)
          fail(source, line.tokens[g + 1],
               where + "nu_sigf must be non-negative");
    } else if (kw.text == "chi") {
      if (!current.chi.empty()) fail(source, kw, where + "duplicate chi");
      current.chi = group_values(source, line, lib.ng);
      for (std::size_t g = 0; g < current.chi.size(); ++g)
        if (current.chi[g] < 0.0)
          fail(source, line.tokens[g + 1],
               where + "chi must be non-negative");
      chi_token = kw;
    } else if (kw.text == "scatter") {
      if (line.tokens.size() != 5)
        fail(source, kw,
             where + "'scatter' needs <l> <g_from> <g_to> <value>");
      const int l = parse_int(source, line.tokens[1]);
      if (l < 0 || l >= lib.nmom)
        fail(source, line.tokens[1],
             where + "scatter order " + std::to_string(l) +
                 " out of range 0.." + std::to_string(lib.nmom - 1));
      const int gf = parse_int(source, line.tokens[2]);
      const int gt = parse_int(source, line.tokens[3]);
      for (int gi = 0; gi < 2; ++gi) {
        const int g = gi == 0 ? gf : gt;
        if (g < 0 || g >= lib.ng)
          fail(source, line.tokens[static_cast<std::size_t>(gi) + 2],
               where + "group " + std::to_string(g) + " out of range 0.." +
                   std::to_string(lib.ng - 1));
      }
      const double value = parse_double(source, line.tokens[4]);
      if (l == 0 && value < 0.0)
        fail(source, line.tokens[4],
             where + "l = 0 scatter entries must be non-negative");
      const std::size_t slot =
          static_cast<std::size_t>((l * lib.ng + gf) * lib.ng + gt);
      if (scatter_seen[slot])
        fail(source, kw,
             where + "duplicate scatter entry (" + std::to_string(l) + ", " +
                 std::to_string(gf) + ", " + std::to_string(gt) + ")");
      scatter_seen[slot] = 1;
      current.sigs(l, gf, gt) = value;
    } else if (kw.text == "end") {
      if (current.sigt.empty())
        fail(source, kw, where + "missing sigt");
      if (current.nu_sigf.empty() != current.chi.empty())
        fail(source, kw,
             where + (current.chi.empty() ? "nu_sigf without chi"
                                          : "chi without nu_sigf"));
      if (current.fissile()) {
        double sum = 0.0;
        for (double v : current.chi) sum += v;
        if (std::abs(sum - 1.0) > 1e-12)
          fail(source, chi_token,
               where + "chi must sum to 1 (got " + snap::deck_double(sum) +
                   ")");
      }
      for (int g = 0; g < lib.ng; ++g) {
        const double s = current.scattering_total(g);
        if (s > current.sigt[static_cast<std::size_t>(g)] * (1.0 + 1e-12))
          fail(source, kw,
               where + "group " + std::to_string(g) +
                   " scattering exceeds the total cross section");
      }
      lib.materials.push_back(std::move(current));
      in_material = false;
    } else {
      fail(source, kw, where + "unknown keyword '" + kw.text + "'");
    }
  }

  if (in_material)
    fail(source, material_token,
         "material '" + current.name + "' is not closed (missing end)");
  if (lib.ng == 0)
    throw InvalidInput(source + ": missing 'groups' declaration");
  if (lib.materials.empty())
    throw InvalidInput(source + ": library has no materials");
  return lib;
}

Library read_library_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(),
          "cannot open cross-section library '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return read_library_text(text.str(), path);
}

std::string write_library(const Library& lib) {
  std::ostringstream out;
  out << "# UnSNAP multigroup cross-section library\n";
  out << "groups " << lib.ng << "\n";
  if (lib.nmom != 1) out << "moments " << lib.nmom << "\n";
  if (!lib.velocity.empty()) {
    out << "velocities";
    for (double v : lib.velocity) out << " " << snap::deck_double(v);
    out << "\n";
  }
  for (const Material& m : lib.materials) {
    out << "material " << m.name << "\n";
    auto vec = [&](const char* key, const std::vector<double>& values) {
      if (values.empty()) return;
      out << "  " << key;
      for (double v : values) out << " " << snap::deck_double(v);
      out << "\n";
    };
    vec("sigt", m.sigt);
    vec("sigs", m.sigs_total);
    vec("nu_sigf", m.nu_sigf);
    vec("chi", m.chi);
    if (m.sigs.size() != 0)
      for (int l = 0; l < static_cast<int>(m.sigs.extent(0)); ++l)
        for (int gf = 0; gf < lib.ng; ++gf)
          for (int gt = 0; gt < lib.ng; ++gt)
            if (m.sigs(l, gf, gt) != 0.0)
              out << "  scatter " << l << " " << gf << " " << gt << " "
                  << snap::deck_double(m.sigs(l, gf, gt)) << "\n";
    out << "end\n";
  }
  return out.str();
}

// --- lowering --------------------------------------------------------------

snap::CrossSections Library::cross_sections(
    const std::vector<std::string>& names, int nmom_out) const {
  std::vector<int> pick;
  if (names.empty()) {
    for (std::size_t i = 0; i < materials.size(); ++i)
      pick.push_back(static_cast<int>(i));
  } else {
    for (const std::string& name : names) {
      const int idx = index_of(name);
      require(idx >= 0,
              "cross sections: unknown material '" + name + "' in library");
      pick.push_back(idx);
    }
  }
  const int nm_out = nmom_out == 0 ? nmom : nmom_out;
  require(nm_out >= 1 && nm_out <= nmom,
          "cross sections: requested " + std::to_string(nm_out) +
              " scattering orders but the library carries " +
              std::to_string(nmom));

  snap::CrossSections out;
  out.num_materials = static_cast<int>(pick.size());
  out.ng = ng;
  out.nmom = nm_out;
  const auto nm = static_cast<std::size_t>(out.num_materials);
  const auto gc = static_cast<std::size_t>(ng);
  out.sigt.resize({nm, gc});
  out.sigs.resize({nm, gc});
  out.siga.resize({nm, gc});
  out.slgg.resize({nm, gc, gc}, 0.0);
  if (nm_out > 1)
    out.slgg_hi.resize({nm, static_cast<std::size_t>(nm_out - 1), gc, gc},
                       0.0);
  const bool any_fissile = std::any_of(
      pick.begin(), pick.end(),
      [&](int idx) { return materials[static_cast<std::size_t>(idx)].fissile(); });
  if (any_fissile) {
    out.nu_sigf.resize({nm, gc}, 0.0);
    out.chi.resize({nm, gc}, 0.0);
  }

  for (std::size_t mi = 0; mi < pick.size(); ++mi) {
    const Material& m = materials[static_cast<std::size_t>(pick[mi])];
    const int mo = static_cast<int>(mi);
    for (int g = 0; g < ng; ++g) {
      out.sigt(mo, g) = m.sigt[static_cast<std::size_t>(g)];
      out.sigs(mo, g) = m.scattering_total(g);
      out.siga(mo, g) = out.sigt(mo, g) - out.sigs(mo, g);
    }
    if (m.sigs.size() != 0) {
      for (int gf = 0; gf < ng; ++gf)
        for (int gt = 0; gt < ng; ++gt)
          out.slgg(mo, gf, gt) = m.sigs(0, gf, gt);
      for (int l = 1; l < nm_out; ++l)
        for (int gf = 0; gf < ng; ++gf)
          for (int gt = 0; gt < ng; ++gt)
            out.slgg_hi(mo, l - 1, gf, gt) = m.sigs(l, gf, gt);
    }
    if (m.fissile()) {
      for (int g = 0; g < ng; ++g) {
        out.nu_sigf(mo, g) = m.nu_sigf[static_cast<std::size_t>(g)];
        out.chi(mo, g) = m.chi[static_cast<std::size_t>(g)];
      }
    }
  }
  return out;
}

Library Library::synthetic(int ng, double scattering_ratio, int nmom) {
  require(ng >= 1, "cross sections: ng must be positive");
  require(scattering_ratio >= 0.0 && scattering_ratio < 1.0,
          "cross sections: scattering ratio must be in [0, 1)");
  require(nmom >= 1 && nmom <= 6, "cross sections: nmom must be in 1..6");
  Library lib;
  lib.ng = ng;
  lib.nmom = nmom;
  const auto gc = static_cast<std::size_t>(ng);

  // SNAP-style generated group speeds, fastest group first (matches
  // core::TimeDependentSolver::snap_velocities).
  lib.velocity.resize(gc);
  for (int g = 0; g < ng; ++g)
    lib.velocity[static_cast<std::size_t>(g)] = 1.0 / (1.0 + 0.5 * g);

  // Material base data in the SNAP style: material 0 has sigt 1.0 with the
  // requested scattering ratio; material 1 is denser and slightly more
  // scattering (SNAP: sigt 2.0, c 0.6 when material 0 has c 0.5).
  const double base_sigt[2] = {1.0, 2.0};
  const double ratio[2] = {scattering_ratio,
                           std::min(0.95, scattering_ratio + 0.1)};

  for (int m = 0; m < 2; ++m) {
    Material mat;
    mat.name = m == 0 ? "snap0" : "snap1";
    mat.sigt.resize(gc);
    mat.sigs_total.resize(gc);
    mat.sigs.resize({static_cast<std::size_t>(nmom), gc, gc}, 0.0);
    for (int g = 0; g < ng; ++g) {
      // SNAP increments the totals by 0.01 per group.
      mat.sigt[static_cast<std::size_t>(g)] = base_sigt[m] + 0.01 * g;
      mat.sigs_total[static_cast<std::size_t>(g)] =
          ratio[m] * mat.sigt[static_cast<std::size_t>(g)];
    }

    // Transfer profile per source group: 70% in-group, 20% downscatter
    // spread geometrically over lower-energy groups (higher index), 10%
    // upscatter to the next higher-energy group. Edge groups fold the
    // missing components back in-group so rows always sum to sigs.
    for (int g = 0; g < ng; ++g) {
      double w_in = 0.7, w_down = 0.2, w_up = 0.1;
      if (g == 0) {
        w_in += w_up;
        w_up = 0.0;
      }
      if (g == ng - 1) {
        w_in += w_down;
        w_down = 0.0;
      }
      const double total = mat.sigs_total[static_cast<std::size_t>(g)];
      mat.sigs(0, g, g) += w_in * total;
      if (w_up > 0.0) mat.sigs(0, g, g - 1) += w_up * total;
      if (w_down > 0.0) {
        // Geometric decay with ratio 1/2 over groups g+1..ng-1, normalised.
        double norm = 0.0;
        for (int gp = g + 1; gp < ng; ++gp)
          norm += std::pow(0.5, gp - g);
        for (int gp = g + 1; gp < ng; ++gp)
          mat.sigs(0, g, gp) += w_down * total * std::pow(0.5, gp - g) / norm;
      }
    }

    // Higher Legendre orders decay geometrically (mildly forward peaked).
    for (int l = 1; l < nmom; ++l)
      for (int g = 0; g < ng; ++g)
        for (int gp = 0; gp < ng; ++gp)
          mat.sigs(l, g, gp) = std::pow(0.4, l) * mat.sigs(0, g, gp);

    lib.materials.push_back(std::move(mat));
  }
  return lib;
}

// --- groupsets -------------------------------------------------------------

std::vector<GroupRange> parse_groupsets(const std::string& spec, int ng) {
  std::vector<GroupRange> sets;
  std::vector<std::string> parts;
  std::string token;
  for (char c : spec) {
    if (c == ',') {
      parts.push_back(token);
      token.clear();
    } else if (c != ' ' && c != '\t') {
      token += c;
    }
  }
  parts.push_back(token);
  for (const std::string& part : parts) {
    require(!part.empty(), "groupsets: empty range in '" + spec + "'");
    int lo = 0, hi = 0;
    const std::size_t colon = part.find(':');
    auto to_int = [&](const std::string& s) {
      const char* begin = s.c_str();
      char* end = nullptr;
      const long v = std::strtol(begin, &end, 10);
      require(end != begin && *end == '\0' && !s.empty(),
              "groupsets: bad range '" + part + "'");
      return static_cast<int>(v);
    };
    if (colon == std::string::npos) {
      lo = hi = to_int(part);
    } else {
      lo = to_int(part.substr(0, colon));
      hi = to_int(part.substr(colon + 1));
    }
    require(lo <= hi, "groupsets: bad range '" + part + "' (lo > hi)");
    require(lo >= 0 && hi < ng,
            "groupsets: range '" + part + "' outside groups 0.." +
                std::to_string(ng - 1));
    sets.push_back({lo, hi});
  }
  require(sets.front().lo == 0, "groupsets: ranges must start at group 0");
  for (std::size_t i = 1; i < sets.size(); ++i)
    require(sets[i].lo == sets[i - 1].hi + 1,
            "groupsets: ranges must tile the groups contiguously (gap or "
            "overlap at group " +
                std::to_string(sets[i].lo) + ")");
  require(sets.back().hi == ng - 1,
          "groupsets: ranges must end at group " + std::to_string(ng - 1));
  return sets;
}

std::string format_groupsets(const std::vector<GroupRange>& sets) {
  std::string out;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(sets[i].lo);
    if (sets[i].hi != sets[i].lo) out += ":" + std::to_string(sets[i].hi);
  }
  return out;
}

std::vector<GroupRange> default_groupsets(const snap::CrossSections& xs) {
  const int ng = xs.ng;
  // boundary_ok[g]: no material scatters (any order) from a group above g
  // back to a group at or below g, so a groupset may end at g.
  std::vector<char> boundary_ok(static_cast<std::size_t>(ng), 1);
  for (int g = 0; g < ng - 1; ++g) {
    bool ok = true;
    for (int m = 0; ok && m < xs.num_materials; ++m)
      for (int gf = g + 1; ok && gf < ng; ++gf)
        for (int gt = 0; ok && gt <= g; ++gt) {
          if (xs.slgg(m, gf, gt) != 0.0) ok = false;
          for (int l = 1; ok && l < xs.nmom; ++l)
            if (xs.slgg_hi(m, l - 1, gf, gt) != 0.0) ok = false;
        }
    boundary_ok[static_cast<std::size_t>(g)] = ok ? 1 : 0;
  }
  std::vector<GroupRange> sets;
  int lo = 0;
  for (int g = 0; g < ng; ++g) {
    if (g == ng - 1 || boundary_ok[static_cast<std::size_t>(g)]) {
      sets.push_back({lo, g});
      lo = g + 1;
    }
  }
  return sets;
}

}  // namespace unsnap::xs

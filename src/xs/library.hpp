#pragma once

#include <string>
#include <vector>

#include "util/ndarray.hpp"

namespace unsnap::xs {

/// Multigroup cross-section library: a MATXS-lite plain-text format and
/// its in-memory model, the one cross-section type the solver reads
/// (core::ProblemData::xs). One library carries the group structure (ng,
/// scattering orders, optional group speeds) and a set of named materials
/// with per-group totals, full group-to-group scattering matrices up to
/// order nmom-1, and optional fission data (nu_sigf / chi). The deck's
/// `[xs] file = ...` section loads one of these; SNAP's synthetic group
/// structure is generated as an instance of the same model (synthetic()),
/// and the deck's sigt lists build one too, so every route lowers to a
/// library whose material i is deck material id i.
///
/// File format (line-oriented, `#`/`!` comments, whitespace-separated
/// tokens; every error is reported as `file:line:column: message`):
///
///   # UnSNAP multigroup cross-section library
///   groups 2                    # mandatory, before any material
///   moments 1                   # optional scattering orders (default 1)
///   velocities 2.2e3 4.4e2      # optional group speeds (mode = time)
///   material fuel
///     sigt 0.60 1.20            # per-group totals (mandatory)
///     sigs 0.40 0.30            # optional total scattering override
///                               # (default: l = 0 row sums)
///     nu_sigf 0.30 0.90         # fission production (with chi only)
///     chi 1 0                   # fission spectrum, must sum to 1
///     scatter 0 0 0 0.35        # scatter <l> <g_from> <g_to> <value>
///     scatter 0 0 1 0.05
///     scatter 0 1 1 0.30
///   end
///
/// Unlisted scatter entries are zero; entries above l = 0 may be negative
/// (anisotropy corrections), the l = 0 matrix may not.
struct Material {
  std::string name;
  std::vector<double> sigt;        // [g] total
  /// Total scattering per group; empty means the l = 0 row sums of
  /// `sigs`. Carried separately so a library lowered from generated data
  /// (whose sigs was defined as c * sigt, not as a sum) round-trips
  /// bit-exactly.
  std::vector<double> sigs_total;
  std::vector<double> nu_sigf;     // [g]; empty = non-fissile
  std::vector<double> chi;         // [g]; empty = non-fissile
  NDArray<double, 3> sigs;         // [l][g_from][g_to], l = 0..nmom-1

  [[nodiscard]] bool fissile() const { return !nu_sigf.empty(); }
  /// Effective total scattering of group g (override or l = 0 row sum).
  [[nodiscard]] double scattering_total(int g) const;

  [[nodiscard]] bool operator==(const Material& o) const;
};

struct Library {
  int ng = 0;
  int nmom = 1;
  std::vector<double> velocity;    // [g] group speeds; empty = none
  std::vector<Material> materials;

  /// Index of the named material, -1 when absent.
  [[nodiscard]] int index_of(const std::string& name) const;
  [[nodiscard]] bool has_fission() const;

  /// Shape/positivity checks for programmatically built libraries (the
  /// parser enforces the same rules with file:line:column locations).
  void validate() const;

  /// The library the solver reads: `names` selects and orders the
  /// materials (empty = all, library order) and `nmom_out` orders are
  /// kept (0 = all of nmom; must not exceed it — the [xs] deck route
  /// passes [angular] nmom). Every selected material carries a
  /// nmom_out x ng x ng `sigs`, zeros where the library listed no scatter
  /// entries; fission data and group speeds pass through.
  [[nodiscard]] Library select(const std::vector<std::string>& names = {},
                               int nmom_out = 0) const;

  /// Groups lo..hi as a library of hi - lo + 1 groups, for a groupset
  /// solve: the in-block transfers, the groups' totals and their *global*
  /// total scattering (so absorption stays physical), no fission data and
  /// no group speeds.
  [[nodiscard]] Library slice(int lo, int hi) const;

  /// SNAP's artificial two-material group structure as a library — the
  /// single source of the generated data, group speeds included.
  [[nodiscard]] static Library synthetic(int ng, double scattering_ratio,
                                         int nmom = 1);

  [[nodiscard]] bool operator==(const Library& o) const;
};

/// Parse library text. Throws InvalidInput with a `source:line:column:`
/// prefix on every lexical and semantic error.
[[nodiscard]] Library read_library_text(const std::string& text,
                                        const std::string& source = "<xs>");
/// Reads from the filesystem; throws InvalidInput ("cannot open ...")
/// if unreadable.
[[nodiscard]] Library read_library_file(const std::string& path);

/// Serialise in the text format above. Doubles print via %.17g, so
/// read_library_text(write_library(lib)) == lib exactly.
[[nodiscard]] std::string write_library(const Library& lib);

// --- groupsets -------------------------------------------------------------

/// One contiguous, inclusive block of energy groups solved together by
/// the k-eigenvalue driver's block Gauss-Seidel outer.
struct GroupRange {
  int lo = 0;
  int hi = 0;
  [[nodiscard]] int size() const { return hi - lo + 1; }
  [[nodiscard]] bool operator==(const GroupRange&) const = default;
};

/// Parse a deck groupset spec "a:b,c:d,..." (a single group may be
/// spelled "a"). The ranges must tile 0..ng-1 contiguously in ascending
/// order. Throws InvalidInput on malformed specs.
[[nodiscard]] std::vector<GroupRange> parse_groupsets(const std::string& spec,
                                                      int ng);

/// The maximal downscatter-ordered partition of 0..ng-1: a boundary is
/// placed after group g wherever no material scatters (at any order) from
/// a group above g back to a group at or below g, so solving the blocks
/// low-to-high needs no lagged upscatter. Pure-downscatter libraries
/// split into one groupset per group; fully-coupled (upscattering) data
/// collapses to a single fused block.
[[nodiscard]] std::vector<GroupRange> default_groupsets(const Library& xs);

}  // namespace unsnap::xs

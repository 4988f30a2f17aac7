#include "decks.hpp"

#include <stdexcept>

#include "common.hpp"

namespace perfbench {

namespace {

/// Replace every "@KEY@" in `text` by `value`.
std::string fill(std::string text, const std::string& key,
                 const std::string& value) {
  const std::string tag = "@" + key + "@";
  for (std::size_t at = text.find(tag); at != std::string::npos;
       at = text.find(tag, at + value.size()))
    text.replace(at, tag.size(), value);
  return text;
}

/// A mesh shuffle seed drawn from the workload seed (never 0, which would
/// keep the structured numbering).
unsigned long long shuffle_for(unsigned long long seed,
                               const std::string& workload) {
  return 1 + mix_seed(seed, workload) % 1000000;
}

// sweep_inverse: a homogeneous order-1 brick, 8 angles per octant, 4 groups,
// c = 0.5, fixed-iteration SI over the stored explicit inverse. 12^3 keeps
// the stored operator at 216 MiB -- still ~100x the 2 MiB per-core L2, so
// the kernel streams it from memory -- while letting a run hold several
// solves within its time.
constexpr const char* kSweepInverse = R"([run]
title = perfbench sweep_inverse
mode = solve

[mesh]
dims = 12 12 12
twist = 0.001
shuffle_seed = @SHUFFLE@

[angular]
nang = 8

[materials]
ng = 4
mat_opt = 0
scattering_ratio = 0.5

[source]
src_opt = 0

[iteration]
@ITERATION@

[execution]
threads = @THREADS@
preassembly = explicit-inverse
)";

// diffusive_gmres: decks/diffusive.inp as shipped at the seed commit, with
// the shuffle seed drawn from the workload seed and one thread.
constexpr const char* kDiffusive = R"([run]
title = diffusive shield (c = 0.99), gmres inners
mode = solve

[mesh]
dims = 6 6 18
extent = 1 1 3
twist = 0.001
shuffle_seed = @SHUFFLE@

[angular]
nang = 4
quadrature = product

[materials]
ng = 2
sigt = 0.1 5 20
scattering = 0.5 0.99 0.99
default_material = 0
region = 1 -inf inf -inf inf -inf 1
region = 2 -inf inf -inf inf -inf 1.8

[source]
region = 1 -inf inf -inf inf -inf 1

[iteration]
@ITERATION@

[execution]
threads = @THREADS@
)";

// keff_criticality: decks/criticality.inp as shipped at the seed commit
// (its library copied beside the generated deck), one thread.
constexpr const char* kCriticality = R"([run]
title = criticality: two-group fuel assembly eigenvalue
mode = keff

[mesh]
dims = 6 6 6
extent = 4 4 4
order = 1
shuffle_seed = @SHUFFLE@

[angular]
nang = 2
quadrature = snap

[materials]
ng = 2
material = fuel water
default_material = 1
region = 0 0.5 3.5 0.5 3.5 0.5 3.5

[xs]
file = criticality.xs
k_tol = 1e-7
fission_tol = 1e-6
max_outers = @MAX_OUTERS@

[boundary]
all = vacuum

[iteration]
@ITERATION@

[execution]
threads = @THREADS@
)";

// pipelined_2x2: decks/domain_decomposition.inp as shipped at the seed
// commit (2x2 KBA ranks, pipelined exchange, one serial thread per rank).
// Not a workload of its own: its wall time mostly measures how fast the
// host wakes blocked rank threads, so it is solved once in sweep_inverse's
// traced run for the comm layer's metrics.
constexpr const char* kDomainDecomposition = R"([run]
title = 2x2 KBA ranks, pipelined exchange
mode = solve

[mesh]
dims = 10 10 10
twist = 0.001
shuffle_seed = @SHUFFLE@

[angular]
nang = 4

[materials]
ng = 2
mat_opt = 1
scattering_ratio = 0.6

[source]
src_opt = 1

[iteration]
@ITERATION@

[decomposition]
px = 2
py = 2
exchange = pipelined

[execution]
scheme = serial
threads = @THREADS@
)";

// Serve families: the deck families of bench/bench_serve.cpp, whose
// recorded replay (BENCH_serve.json) is the repository's serve traffic --
// cubes of 4..6 elements a side, 2..3 angles per octant, one group, every
// fourth family an MMS run -- with 12 fixed sweeps instead of 2 and one
// thread, so a job is a tens-of-ms solve and every job does the same sweeps.
constexpr const char* kServeTemplate = R"([run]
title = perfbench serve family @FAMILY@
mode = @MODE@

[mesh]
dims = @SIDE@ @SIDE@ @SIDE@
shuffle_seed = @SHUFFLE@

[angular]
nang = @NANG@

[materials]
ng = 1

[iteration]
iitm = 6
oitm = 2
fixed_iterations = true

[execution]
threads = 1
)";

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sweep_inverse", "diffusive_gmres", "keff_criticality", "serve_mixed"};
  return names;
}

bool is_solve_workload(const std::string& workload) {
  return workload == "sweep_inverse" || workload == "diffusive_gmres" ||
         workload == "keff_criticality";
}

Deck solve_deck(const std::string& workload, unsigned long long seed,
                Variant variant) {
  Deck deck;
  deck.source = "perfbench/decks/" + workload + ".inp";
  std::string iteration;
  int threads = 1;
  const bool probe = variant == Variant::Probe;
  if (workload == "sweep_inverse") {
    deck.text = kSweepInverse;
    threads = variant == Variant::OneThread ? 1 : 2;
    iteration = probe ? "iitm = 1\noitm = 1\nfixed_iterations = true"
                      : "iitm = 5\noitm = 2\nfixed_iterations = true";
  } else if (workload == "diffusive_gmres") {
    deck.text = kDiffusive;
    if (variant == Variant::SiInners)
      iteration =
          "iitm = 10\noitm = 1\nfixed_iterations = true\n"
          "scheme = source-iteration";
    else if (probe)
      iteration =
          "iitm = 1\noitm = 1\nfixed_iterations = true\nscheme = gmres\n"
          "gmres_restart = 20\ngmres_max_iters = 1";
    else
      iteration =
          "epsi = 1e-6\niitm = 600\noitm = 5\nfixed_iterations = false\n"
          "scheme = gmres\ngmres_restart = 20\ngmres_max_iters = 100";
  } else if (workload == "keff_criticality") {
    deck.text = fill(kCriticality, "MAX_OUTERS", probe ? "1" : "100");
    iteration = probe ? "epsi = 1e-6\niitm = 1\noitm = 1"
                      : "epsi = 1e-6\niitm = 20\noitm = 3";
  } else if (workload == "pipelined_2x2") {
    deck.text = kDomainDecomposition;
    iteration = probe ? "iitm = 1\noitm = 1\nfixed_iterations = true"
                      : "epsi = 1e-7\niitm = 500\noitm = 10\n"
                        "fixed_iterations = false";
  } else {
    throw std::invalid_argument("not a solve workload: '" + workload + "'");
  }
  deck.text = fill(deck.text, "ITERATION", iteration);
  deck.text = fill(deck.text, "SHUFFLE",
                   std::to_string(shuffle_for(seed, workload)));
  deck.text = fill(deck.text, "THREADS", std::to_string(threads));
  return deck;
}

Deck serve_deck(int family, unsigned long long shuffle_seed) {
  if (family < 0 || family >= kServeFamilies)
    throw std::invalid_argument("no serve family " + std::to_string(family));
  Deck deck;
  deck.source = "perfbench/decks/serve_family" + std::to_string(family) +
                ".inp";
  std::string text = kServeTemplate;
  text = fill(text, "FAMILY", std::to_string(family));
  text = fill(text, "MODE", family % 4 == 3 ? "mms" : "solve");
  text = fill(text, "SIDE", std::to_string(4 + family % 3));
  text = fill(text, "SHUFFLE", std::to_string(shuffle_seed));
  text = fill(text, "NANG", std::to_string(2 + family % 2));
  deck.text = std::move(text);
  return deck;
}

}  // namespace perfbench

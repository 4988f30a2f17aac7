#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// One generated deck: its text and the name it is parsed under (which
/// anchors a relative [xs] library path). Everything else the benchmark
/// needs about a deck -- mesh, angles, groups, threads, iteration scheme --
/// it reads back through api::read_deck_text, so the text is the only
/// source.
struct Deck {
  std::string text;
  std::string source;
};

/// Which iteration controls a generated solve deck carries.
enum class Variant {
  Full,     // the workload's solve
  Probe,    // same set-up, iteration caps of one: times set-up alone
  OneThread,  // sweep_inverse at 1 thread (core.thread_eff)
  SiInners,   // diffusive_gmres with fixed SI inners (core.sweep_s there)
};

/// The solve decks by name: the three solve workloads plus pipelined_2x2
/// (the comm layer's deck); throws std::invalid_argument on another name.
[[nodiscard]] Deck solve_deck(const std::string& workload,
                              unsigned long long seed,
                              Variant variant = Variant::Full);
[[nodiscard]] bool is_solve_workload(const std::string& workload);

/// Serve job decks: `family` in [0, kServeFamilies) picks the shape,
/// `shuffle_seed` makes it a distinct deck (a distinct cache key).
inline constexpr int kServeFamilies = 6;
[[nodiscard]] Deck serve_deck(int family, unsigned long long shuffle_seed);

/// Every workload the benchmark knows, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench

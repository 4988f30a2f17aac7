#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "api/run_config.hpp"
#include "core/discretization.hpp"

namespace unsnap::core {
class PreassembledOperator;
}

namespace unsnap::serve {

/// Canonical deck text for cache keying: the config rewritten through
/// api::write_deck (which fixes section order, key order, spacing and
/// drops comments) with the presentation-only fields — [run] title and
/// the whole [output] section — cleared. Two decks that differ only in
/// comments, whitespace, key order, title or output routing normalise to
/// the same text and therefore share one cache entry.
[[nodiscard]] std::string normalized_deck(const api::RunConfig& config);

/// FNV-1a 64-bit over the normalized deck text.
[[nodiscard]] std::uint64_t deck_digest(const api::RunConfig& config);
[[nodiscard]] std::uint64_t fnv1a64(const std::string& text);
/// 16-hex-digit rendering used in protocol messages and logs.
[[nodiscard]] std::string digest_hex(std::uint64_t digest);

/// The immutable, shareable setup product of one normalized deck: the
/// discretisation (mesh, element integrals, quadrature and the full
/// sweep-schedule set) plus, when the deck asked for `[execution]
/// preassembly`, the pre-assembled per-(angle, element, group) operators —
/// by far the most expensive part of setup on preassembled decks.
struct Lowering {
  std::shared_ptr<const core::Discretization> disc;
  /// Null when the deck ran with preassembly = none (or never solved).
  std::shared_ptr<const core::PreassembledOperator> pre;
};

/// Thread-safe LRU cache of lowered problems keyed by deck digest.
/// Repeated submissions of the same problem family skip meshing, schedule
/// construction and (for preassembled decks) the whole inversion
/// pass; the solve itself still runs, so a cache hit changes setup time
/// only, never results (the golden contract: hit and miss produce
/// bitwise-identical flux digests).
///
/// The digest only routes to an entry; each entry also stores the full
/// normalized deck text, compared on every lookup. A 64-bit FNV-1a
/// collision (accidental, or crafted by a hostile local client) therefore
/// degrades to a cache miss instead of silently reusing the wrong
/// problem's lowering.
class LoweringCache {
 public:
  /// `capacity` entries; least-recently-used beyond that are evicted.
  explicit LoweringCache(std::size_t capacity = 64);

  struct Stats {
    long hits = 0;
    long misses = 0;
    long evictions = 0;
    std::size_t entries = 0;
  };

  /// nullopt on miss (counted); a hit refreshes LRU recency. An entry
  /// under `digest` whose stored deck text differs from `key` is a miss
  /// (digest collision), never a hit.
  [[nodiscard]] std::optional<Lowering> lookup(std::uint64_t digest,
                                               const std::string& key);

  /// Insert (or refresh) the lowering for a digest + normalized deck. A
  /// colliding entry (same digest, different deck) is replaced — counted
  /// as an eviction.
  void insert(std::uint64_t digest, const std::string& key,
              Lowering lowering);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::uint64_t digest;
    std::string key;  // normalized deck text, verified on lookup
    Lowering lowering;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace unsnap::serve

#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

void Outcome::note_samples(const std::string& label,
                           const std::vector<double>& values, double scale) {
  std::string line = label + ":";
  char value[32];
  for (const double v : values) {
    std::snprintf(value, sizeof(value), " %.4g", v * scale);
    line += value;
  }
  note(line);
}

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned long long mix_seed(unsigned long long seed, const std::string& label,
                            unsigned long long index) {
  // FNV-1a over the label, then SplitMix64 finalisation of the combination.
  unsigned long long h = 1469598103934665603ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  unsigned long long z = seed * 0x9e3779b97f4a7c15ULL ^ h ^
                         (index + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench

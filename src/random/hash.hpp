// Counter-based (splittable) hashing — the source of all randomness used by
// the parallel algorithms.
//
// A counter-based generator makes random draws a pure function of
// (seed, index), which is what guarantees the paper's determinism property:
// the random ordering pi, and therefore the lexicographically-first MIS/MM,
// depends only on the seed — never on thread count or scheduling.
#pragma once

#include <cstdint>

namespace pargreedy {

/// Finalizer from SplitMix64 (Steele et al.): a high-quality 64-bit mixer.
/// Bijective on uint64_t, so distinct inputs give distinct outputs.
constexpr uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of a (seed, index) pair; the workhorse for per-element randomness.
constexpr uint64_t hash64(uint64_t seed, uint64_t i) {
  return mix64(mix64(seed) ^ mix64(i + 0x9e3779b97f4a7c15ULL));
}

/// Uniform draw from [0, bound) via Lemire's multiply-shift reduction.
/// Slightly biased for bounds that do not divide 2^64; negligible for the
/// bounds used here (graph sizes << 2^64).
constexpr uint64_t hash_range(uint64_t seed, uint64_t i, uint64_t bound) {
  const uint64_t h = hash64(seed, i);
  // Multiply-high of h and bound.
  const __uint128_t wide = static_cast<__uint128_t>(h) * bound;
  return static_cast<uint64_t>(wide >> 64);
}

/// Uniform double in [0, 1).
constexpr double hash_unit(uint64_t seed, uint64_t i) {
  return static_cast<double>(hash64(seed, i) >> 11) * 0x1.0p-53;
}

/// Stateless splittable RNG view: a seed plus helpers, convenient to pass
/// into generators and algorithms.
class HashRng {
 public:
  explicit HashRng(uint64_t seed) : seed_(seed) {}

  /// Derives an independent child stream (for nested structures).
  [[nodiscard]] HashRng child(uint64_t stream) const {
    return HashRng(hash64(seed_, stream));
  }

  [[nodiscard]] uint64_t bits(uint64_t i) const { return hash64(seed_, i); }
  [[nodiscard]] uint64_t range(uint64_t i, uint64_t bound) const {
    return hash_range(seed_, i, bound);
  }
  [[nodiscard]] double unit(uint64_t i) const { return hash_unit(seed_, i); }
  [[nodiscard]] uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
};

}  // namespace pargreedy

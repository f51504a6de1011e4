// Deterministic random number generation for reproducible experiments.
//
// All stochastic components in lumos (workload synthesis, ML initialisation,
// row subsampling) draw from `Rng`, a thin wrapper around
// xoshiro256** seeded via splitmix64. A given seed therefore reproduces a
// whole experiment bit-for-bit across runs and platforms, which is the
// property the paper's simulation methodology depends on.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace lumos::util {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 — fast, high-quality, 256-bit state PRNG.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

  /// Next 64 random bits.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box–Muller (cached pair).
  double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Log-normal: exp(N(mu, sigma)); parameters are of the underlying normal.
  double lognormal(double mu, double sigma) noexcept;
  /// Exponential with the given rate (mean = 1/rate).
  double exponential(double rate) noexcept;
  /// Pareto (type I) with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha) noexcept;
  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) noexcept;
  /// Samples an index according to `weights` (unnormalised, non-negative).
  std::size_t categorical(std::span<const double> weights) noexcept;

  /// Splits off an independent child generator (for per-thread streams).
  Rng split() noexcept;

  /// Complete generator state, exposed so stateful consumers (the
  /// quantile-sketch compaction coin, checkpointed streams) can snapshot
  /// and restore a generator bit-for-bit mid-stream. `words` is never
  /// all-zero for a generator produced by the seeding constructor.
  struct State {
    std::array<std::uint64_t, 4> words{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  [[nodiscard]] State state() const noexcept {
    return State{state_, cached_normal_, has_cached_normal_};
  }
  /// Restores a previously captured state; the restored generator
  /// produces exactly the sequence the captured one would have.
  void set_state(const State& s) noexcept {
    state_ = s.words;
    cached_normal_ = s.cached_normal;
    has_cached_normal_ = s.has_cached_normal;
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_index(i)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Precomputed alias table for repeated sampling from one fixed discrete
/// distribution in O(1) per draw (Walker's alias method).
class AliasTable {
 public:
  AliasTable() = default;
  /// Builds the table from unnormalised non-negative weights (at least one
  /// weight must be positive).
  explicit AliasTable(std::span<const double> weights);

  /// Number of categories.
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }
  [[nodiscard]] bool empty() const noexcept { return prob_.empty(); }

  /// Draws a category index.
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace lumos::util

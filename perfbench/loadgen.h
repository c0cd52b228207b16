#ifndef GEMREC_PERFBENCH_LOADGEN_H_
#define GEMREC_PERFBENCH_LOADGEN_H_

// Samplers and the deterministic request stream of the benchmark's
// load generator. Everything draws from common/rng (xoshiro256**), so
// one seed reproduces the stream byte-for-byte on every host.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ebsn/types.h"
#include "serving/query_backend.h"

namespace gemrec::perfbench {

/// Inter-arrival gaps of a Poisson process: exponential with mean
/// 1/rate, drawn by inversion from one Rng.
class PoissonArrivals {
 public:
  /// `rate` in events per second, > 0.
  PoissonArrivals(double rate, uint64_t seed);
  double NextGapSeconds();

 private:
  Rng rng_;
  double rate_;
};

/// Zipf popularity over ranks [0, n): P(k) proportional to
/// 1 / (k + 1)^s. s = 0 is uniform. Sampled by inversion over the
/// exact cumulative table, so observed frequencies follow Pmf exactly
/// in expectation.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double s);
  uint32_t Sample(Rng* rng) const;
  double Pmf(uint32_t k) const;
  uint32_t size() const { return static_cast<uint32_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k); back() == 1
};

/// The query kinds a stream mixes; group queries come in both
/// aggregations.
enum class RequestKind : uint8_t {
  kPartner = 0,
  kGroupSum = 1,
  kGroupMin = 2,
  kReciprocal = 3,
};
inline constexpr size_t kNumRequestKinds = 4;
const char* RequestKindName(RequestKind kind);

/// Categorical choice over RequestKind with fixed weights.
class KindMix {
 public:
  /// Weights are nonnegative and not all zero; they are normalised.
  explicit KindMix(const std::array<double, kNumRequestKinds>& weights);
  RequestKind Sample(Rng* rng) const;
  double Share(RequestKind kind) const {
    return share_[static_cast<size_t>(kind)];
  }

 private:
  std::array<double, kNumRequestKinds> share_{};
  std::array<double, kNumRequestKinds> cdf_{};
};

/// Members of a group query (drawn flat, distinct, never the user).
inline constexpr uint32_t kGroupSize = 3;

struct StreamOptions {
  uint32_t num_users = 0;
  /// Popularity exponent of the querying user; 0 = flat.
  double zipf_s = 0.0;
  std::array<double, kNumRequestKinds> mix = {1.0, 0.0, 0.0, 0.0};
  uint32_t top_n = 10;
  /// Draws of the stream (kinds, users, group members).
  uint64_t seed = 1;
  /// Which users are popular: the rank-to-user permutation. A property
  /// of the population, so streams with different `seed`s but one
  /// `popularity_seed` share their hot set (and a warmed cache).
  uint64_t popularity_seed = 1;
};

/// Deterministic query stream: the i-th Next() of two streams built
/// from equal options is the same request. Popular ranks map to users
/// through a permutation seeded by `popularity_seed`, so popularity is
/// not tied to user id.
class RequestStream {
 public:
  explicit RequestStream(const StreamOptions& options);
  serving::QueryRequest Next(RequestKind* kind = nullptr);

 private:
  StreamOptions options_;
  Rng rng_;
  ZipfSampler popularity_;
  KindMix mix_;
  std::vector<ebsn::UserId> rank_to_user_;
};

}  // namespace gemrec::perfbench

#endif  // GEMREC_PERFBENCH_LOADGEN_H_

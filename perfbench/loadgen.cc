#include "loadgen.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace gemrec::perfbench {

PoissonArrivals::PoissonArrivals(double rate, uint64_t seed)
    : rng_(seed), rate_(rate) {
  GEMREC_CHECK(rate > 0.0) << "arrival rate must be positive";
}

double PoissonArrivals::NextGapSeconds() {
  // 1 - U lies in (0, 1], so the log is finite.
  return -std::log(1.0 - rng_.UniformDouble()) / rate_;
}

ZipfSampler::ZipfSampler(uint32_t n, double s) : cdf_(n) {
  GEMREC_CHECK(n > 0) << "zipf over an empty range";
  double total = 0.0;
  for (uint32_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k) + 1.0, -s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

uint32_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->UniformDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
}

double ZipfSampler::Pmf(uint32_t k) const {
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPartner: return "partner";
    case RequestKind::kGroupSum: return "group_sum";
    case RequestKind::kGroupMin: return "group_min";
    case RequestKind::kReciprocal: return "reciprocal";
  }
  return "unknown";
}

KindMix::KindMix(const std::array<double, kNumRequestKinds>& weights) {
  double total = 0.0;
  for (double w : weights) {
    GEMREC_CHECK(w >= 0.0) << "negative kind weight";
    total += w;
  }
  GEMREC_CHECK(total > 0.0) << "kind mix has no weight";
  double running = 0.0;
  for (size_t i = 0; i < kNumRequestKinds; ++i) {
    share_[i] = weights[i] / total;
    running += share_[i];
    cdf_[i] = running;
  }
  cdf_.back() = 1.0;
}

RequestKind KindMix::Sample(Rng* rng) const {
  const double u = rng->UniformDouble();
  size_t i = 0;
  while (i + 1 < kNumRequestKinds && u >= cdf_[i]) ++i;
  // Skip trailing zero-weight kinds that the final clamp could land on.
  while (share_[i] == 0.0 && i > 0) --i;
  return static_cast<RequestKind>(i);
}

RequestStream::RequestStream(const StreamOptions& options)
    : options_(options),
      rng_(options.seed),
      popularity_(options.num_users, options.zipf_s),
      mix_(options.mix),
      rank_to_user_(options.num_users) {
  GEMREC_CHECK(options.num_users > kGroupSize)
      << "too few users for the group size";
  for (uint32_t u = 0; u < options.num_users; ++u) rank_to_user_[u] = u;
  Rng permutation(options.popularity_seed);
  permutation.Shuffle(&rank_to_user_);
}

serving::QueryRequest RequestStream::Next(RequestKind* kind_out) {
  const RequestKind kind = mix_.Sample(&rng_);
  if (kind_out != nullptr) *kind_out = kind;
  serving::QueryRequest request;
  request.user = rank_to_user_[popularity_.Sample(&rng_)];
  request.n = options_.top_n;
  switch (kind) {
    case RequestKind::kPartner:
      request.kind = recommend::QueryKind::kPartner;
      break;
    case RequestKind::kReciprocal:
      request.kind = recommend::QueryKind::kReciprocal;
      break;
    case RequestKind::kGroupSum:
    case RequestKind::kGroupMin:
      request.kind = recommend::QueryKind::kGroup;
      request.aggregator = kind == RequestKind::kGroupSum
                               ? recommend::GroupAggregator::kSum
                               : recommend::GroupAggregator::kMin;
      while (request.group.size() < kGroupSize) {
        const auto member = static_cast<ebsn::UserId>(
            rng_.UniformInt(options_.num_users));
        if (member == request.user ||
            std::find(request.group.begin(), request.group.end(),
                      member) != request.group.end()) {
          continue;
        }
        request.group.push_back(member);
      }
      break;
  }
  return request;
}

}  // namespace gemrec::perfbench

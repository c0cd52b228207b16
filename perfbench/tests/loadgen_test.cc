// Statistical and reproducibility checks of the benchmark's samplers.
// Every seed is fixed, so each test is deterministic; the tolerances
// are several standard errors wide at the sample sizes used.

#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"

namespace gemrec::perfbench {
namespace {

TEST(PoissonArrivalsTest, GapsHaveMeanOneOverRateAndUnitCv) {
  constexpr double kRate = 2500.0;
  constexpr int kDraws = 200000;
  PoissonArrivals arrivals(kRate, 17);
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double gap = arrivals.NextGapSeconds();
    ASSERT_GT(gap, 0.0);
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / kDraws;
  const double stddev = std::sqrt(sum_sq / kDraws - mean * mean);
  // Standard error of the mean is mean / sqrt(n) ~ 0.22%.
  EXPECT_NEAR(mean * kRate, 1.0, 0.01);
  EXPECT_NEAR(stddev / mean, 1.0, 0.02);
}

TEST(PoissonArrivalsTest, DrawsByInversionFromCommonRng) {
  PoissonArrivals arrivals(40.0, 99);
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(arrivals.NextGapSeconds(),
              -std::log(1.0 - rng.UniformDouble()) / 40.0);
  }
}

double ChiSquare(const ZipfSampler& zipf, const std::vector<int>& counts,
                 int draws) {
  double chi2 = 0.0;
  for (uint32_t k = 0; k < zipf.size(); ++k) {
    const double expected = zipf.Pmf(k) * draws;
    chi2 += (counts[k] - expected) * (counts[k] - expected) / expected;
  }
  return chi2;
}

TEST(ZipfSamplerTest, RankFrequenciesPassChiSquareAgainstExactPmf) {
  // 50 ranks = 49 degrees of freedom; the 0.1% critical value is 85.35.
  constexpr double kCritical = 85.35;
  constexpr int kDraws = 300000;
  for (const double s : {0.0, 0.8, 1.1}) {
    ZipfSampler zipf(50, s);
    double total = 0.0;
    for (uint32_t k = 0; k < zipf.size(); ++k) total += zipf.Pmf(k);
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_NEAR(zipf.Pmf(0) / zipf.Pmf(9), std::pow(10.0, s), 1e-9);
    Rng rng(1234);
    std::vector<int> counts(zipf.size(), 0);
    for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(&rng)];
    EXPECT_LT(ChiSquare(zipf, counts, kDraws), kCritical) << "s=" << s;
  }
}

TEST(ZipfSamplerTest, ChiSquareRejectsTheWrongExponent) {
  // The test has power: draws from s = 1.0 fail against s = 0.9.
  constexpr int kDraws = 300000;
  ZipfSampler truth(50, 1.0);
  ZipfSampler wrong(50, 0.9);
  Rng rng(1234);
  std::vector<int> counts(truth.size(), 0);
  for (int i = 0; i < kDraws; ++i) ++counts[truth.Sample(&rng)];
  EXPECT_GT(ChiSquare(wrong, counts, kDraws), 85.35);
}

TEST(KindMixTest, ProportionsHold) {
  const std::array<double, kNumRequestKinds> weights = {5.0, 2.0, 2.0, 1.0};
  KindMix mix(weights);
  constexpr int kDraws = 200000;
  std::array<int, kNumRequestKinds> counts{};
  Rng rng(5);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<size_t>(mix.Sample(&rng))];
  }
  for (size_t i = 0; i < kNumRequestKinds; ++i) {
    const double p = weights[i] / 10.0;
    EXPECT_DOUBLE_EQ(mix.Share(static_cast<RequestKind>(i)), p);
    const double sigma = std::sqrt(p * (1 - p) / kDraws);
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, p, 4 * sigma)
        << RequestKindName(static_cast<RequestKind>(i));
  }
}

TEST(KindMixTest, ZeroWeightKindsNeverAppear) {
  KindMix mix({0.0, 1.0, 0.0, 0.0});
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(mix.Sample(&rng), RequestKind::kGroupSum);
  }
}

std::vector<uint8_t> StreamBytes(const StreamOptions& options, int count) {
  RequestStream stream(options);
  std::vector<uint8_t> bytes;
  for (int i = 0; i < count; ++i) {
    net::AppendQueryRequestFrame(stream.Next(),
                                 net::FrameTag{true, static_cast<uint64_t>(i)},
                                 &bytes);
  }
  return bytes;
}

TEST(RequestStreamTest, OneSeedReproducesTheStreamByteForByte) {
  StreamOptions options;
  options.num_users = 5000;
  options.zipf_s = 1.0;
  options.mix = {0.5, 0.15, 0.15, 0.2};
  options.seed = 77;
  const auto first = StreamBytes(options, 2000);
  EXPECT_EQ(first, StreamBytes(options, 2000));
  options.seed = 78;
  EXPECT_NE(first, StreamBytes(options, 2000));
}

TEST(RequestStreamTest, PopularitySeedFixesTheHotSetAcrossStreamSeeds) {
  // Streams with different draw seeds but one popularity seed agree on
  // who the most popular user is.
  const auto top_user = [](uint64_t seed, uint64_t popularity_seed) {
    StreamOptions options;
    options.num_users = 1000;
    options.zipf_s = 1.2;
    options.seed = seed;
    options.popularity_seed = popularity_seed;
    RequestStream stream(options);
    std::vector<int> counts(options.num_users, 0);
    for (int i = 0; i < 20000; ++i) ++counts[stream.Next().user];
    return std::max_element(counts.begin(), counts.end()) - counts.begin();
  };
  EXPECT_EQ(top_user(1, 9), top_user(2, 9));
  EXPECT_NE(top_user(1, 9), top_user(1, 10));
}

TEST(RequestStreamTest, RequestsAreWellFormed) {
  StreamOptions options;
  options.num_users = 100;
  options.mix = {1.0, 1.0, 1.0, 1.0};
  options.seed = 3;
  RequestStream stream(options);
  std::array<int, kNumRequestKinds> seen{};
  for (int i = 0; i < 4000; ++i) {
    RequestKind kind;
    const serving::QueryRequest request = stream.Next(&kind);
    ++seen[static_cast<size_t>(kind)];
    ASSERT_LT(request.user, options.num_users);
    EXPECT_EQ(request.n, options.top_n);
    const bool group = kind == RequestKind::kGroupSum ||
                       kind == RequestKind::kGroupMin;
    EXPECT_EQ(request.kind == recommend::QueryKind::kGroup, group);
    if (!group) {
      EXPECT_TRUE(request.group.empty());
      continue;
    }
    EXPECT_EQ(request.aggregator, kind == RequestKind::kGroupSum
                                      ? recommend::GroupAggregator::kSum
                                      : recommend::GroupAggregator::kMin);
    ASSERT_EQ(request.group.size(), kGroupSize);
    auto members = request.group;
    std::sort(members.begin(), members.end());
    EXPECT_EQ(std::adjacent_find(members.begin(), members.end()),
              members.end());
    for (ebsn::UserId m : members) {
      EXPECT_NE(m, request.user);
      EXPECT_LT(m, options.num_users);
    }
  }
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(RequestStreamTest, PopularityFollowsZipfThroughThePermutation) {
  // The most popular user gets P(rank 0) of the partner traffic, but
  // it is not user 0: ranks map through a seeded permutation.
  StreamOptions options;
  options.num_users = 1000;
  options.zipf_s = 1.0;
  options.seed = 11;
  RequestStream stream(options);
  std::vector<int> counts(options.num_users, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[stream.Next().user];
  const auto top = std::max_element(counts.begin(), counts.end());
  const double p0 = ZipfSampler(options.num_users, 1.0).Pmf(0);
  EXPECT_NEAR(static_cast<double>(*top) / kDraws, p0,
              4 * std::sqrt(p0 * (1 - p0) / kDraws));
  EXPECT_NE(top - counts.begin(), 0);
}

}  // namespace
}  // namespace gemrec::perfbench

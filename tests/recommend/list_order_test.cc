// ListOrder (the streaming top-kPrefix list order behind the serve-path
// TA walks) against a full sort, and differential suites that drive
// BatchTaSearch and ReciprocalSearch past the prefix into the heap
// fallback: spaces with at least 4 * kPrefix partner groups, and either
// an n that needs more than kPrefix partner groups or near-tied partner
// components that keep the threshold from firing early. Every query
// asserts through SearchStats::ta_depth that its walk really read past
// the prefix.

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "recommend/batch_ta_search.h"
#include "recommend/brute_force.h"
#include "recommend/candidate_index.h"
#include "recommend/list_order.h"
#include "recommend/query_kinds.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {
namespace {

constexpr size_t kPrefix = ListOrder::kPrefix;

TEST(ListOrderTest, MatchesFullSortAtEveryPosition) {
  SplitMix64 mix(0x11570de7);
  for (size_t size : {size_t{1}, kPrefix - 1, kPrefix, kPrefix + 1,
                      size_t{300}, size_t{5000}}) {
    SCOPED_TRACE(::testing::Message() << "size=" << size);
    std::vector<uint64_t> words(size);
    for (size_t i = 0; i < size; ++i) {
      // Few distinct keys: ties between groups are the common case.
      words[i] = ((mix.Next() % 97) << 32) | i;
    }
    std::vector<uint64_t> sorted = words;
    std::sort(sorted.begin(), sorted.end(), std::greater<uint64_t>());

    ListOrder order;
    order.Reset(words.data(), words.size());
    for (size_t i = 0; i < size; ++i) {
      ASSERT_EQ(order.Group(i), static_cast<uint32_t>(sorted[i]))
          << "position " << i;
      // A walk re-reads its current head; positions already produced
      // must stay stable.
      ASSERT_EQ(order.Group(i / 2), static_cast<uint32_t>(sorted[i / 2]));
    }
  }
}

TEST(ListOrderTest, ResetStartsAFreshOrder) {
  std::vector<uint64_t> first(200), second(200);
  for (size_t i = 0; i < 200; ++i) {
    first[i] = (uint64_t{static_cast<uint32_t>(i)} << 32) | i;
    second[i] = (uint64_t{static_cast<uint32_t>(199 - i)} << 32) | i;
  }
  ListOrder order;
  order.Reset(first.data(), first.size());
  EXPECT_EQ(order.Group(150), 49u);  // past the prefix: heapified
  order.Reset(second.data(), second.size());
  EXPECT_EQ(order.Group(0), 0u);
  EXPECT_EQ(order.Group(150), 150u);
}

TEST(ListOrderTest, FloatOrderKeyIsMonotone) {
  const std::vector<float> ascending = {
      -std::numeric_limits<float>::infinity(), -1e30f, -2.5f, -1e-30f,
      0.0f, 1e-38f, 1e-30f, 0.5f, 1.0f, 3.25f, 1e30f,
      std::numeric_limits<float>::infinity()};
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(FloatOrderKey(ascending[i - 1]), FloatOrderKey(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
  }
}

struct FallbackTrial {
  uint64_t seed = 0;
  uint32_t num_users = 0;
  uint32_t num_events = 0;
  uint32_t dim = 0;
  /// Partner rows share one base vector plus tiny noise, so the B list
  /// is near-tied and its head barely falls as the walk descends.
  bool tied = false;
  /// Partner-query n. Needs more than kPrefix partner groups' worth of
  /// pairs, except in tied trials, whose B list keeps a short answer
  /// from certifying early.
  size_t n = 0;
  /// Reciprocal-query n, always past the prefix: the reciprocal
  /// threshold also falls with C, which near-tied users make near-tied
  /// to A, so a tied B list alone does not hold the walk back.
  size_t deep_n = 0;
};

FallbackTrial MakeFallbackTrial(uint64_t index) {
  SplitMix64 mix(0xfa11bac4 + index);
  FallbackTrial trial;
  trial.seed = mix.Next();
  trial.num_users = 4 * kPrefix + mix.Next() % kPrefix;
  trial.num_events = 3 + mix.Next() % 3;
  trial.dim = (mix.Next() % 2 == 0) ? 4 : 8;
  trial.tied = index % 2 == 1;
  trial.deep_n = kPrefix * trial.num_events + 1 + mix.Next() % 100;
  trial.n = trial.tied ? 1 + mix.Next() % 20 : trial.deep_n;
  return trial;
}

/// User rows an order of magnitude above event rows: B = u·u' heads
/// every list, so the walks descend the partner list.
std::unique_ptr<embedding::EmbeddingStore> FallbackStore(
    const FallbackTrial& trial) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      trial.dim, std::array<uint32_t, 5>{trial.num_users, trial.num_events,
                                         1, 1, 1});
  Rng rng(trial.seed);
  Matrix& users = store->MatrixOf(graph::NodeType::kUser);
  users.FillAbsGaussian(&rng, 1.0, 0.3);
  store->MatrixOf(graph::NodeType::kEvent).FillAbsGaussian(&rng, 0.05, 0.03);
  if (trial.tied) {
    for (size_t r = 1; r < users.rows(); ++r) {
      for (size_t c = 0; c < users.cols(); ++c) {
        users.At(r, c) = users.At(0, c) + 1e-4f * rng.UniformFloat();
      }
    }
  }
  return store;
}

std::vector<ebsn::EventId> AllEvents(uint32_t n) {
  std::vector<ebsn::EventId> events(n);
  for (uint32_t x = 0; x < n; ++x) events[x] = x;
  return events;
}

class PrefixFallbackTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefixFallbackTest, BatchTaSearchMatchesBruteForcePastPrefix) {
  const FallbackTrial trial = MakeFallbackTrial(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "seed=" << trial.seed << " |U|=" << trial.num_users
               << " |X|=" << trial.num_events << " K=" << trial.dim
               << " tied=" << trial.tied << " n=" << trial.n);
  auto store = FallbackStore(trial);
  GemModel model(store.get(), "GEM");
  TransformedSpace space(
      model, BuildCandidatePairs(model, AllEvents(trial.num_events),
                                 trial.num_users, /*top_k=*/0));
  SpaceIndex index(&space);
  ASSERT_GE(index.num_partners(), 4 * kPrefix);
  BruteForceSearch bf(&space);

  constexpr uint32_t kQueries = 6;
  std::vector<std::vector<float>> queries(kQueries);
  std::vector<BatchQuery> batch(kQueries);
  for (uint32_t u = 0; u < kQueries; ++u) {
    space.QueryVector(model, u, &queries[u]);
    batch[u] = BatchQuery{queries[u].data(), trial.n, u};
  }
  for (auto force : {QuantizedSpace::Options::Force::kInt8,
                     QuantizedSpace::Options::Force::kInt16}) {
    SCOPED_TRACE(::testing::Message()
                 << "force=" << static_cast<int>(force));
    QuantizedSpace quant(&index, {force});
    BatchTaSearch searcher(&quant);
    BatchTaSearch::Workspace ws;
    std::vector<std::vector<SearchHit>> results(kQueries);
    std::vector<SearchStats> stats(kQueries);
    searcher.SearchBatch(batch.data(), kQueries, results.data(), nullptr,
                         &ws, stats.data());
    for (uint32_t u = 0; u < kQueries; ++u) {
      SCOPED_TRACE(::testing::Message() << "u=" << u);
      // A list depth is at most |X|, so the rest is partner groups.
      EXPECT_GT(stats[u].ta_depth, kPrefix + trial.num_events)
          << "the walk never left the prefix";
      const auto oracle = bf.Search(queries[u], trial.n, u);
      ASSERT_EQ(results[u].size(), oracle.size());
      for (size_t r = 0; r < oracle.size(); ++r) {
        ASSERT_EQ(results[u][r].score, oracle[r].score) << "rank " << r;
        // Within a tied block, or at a full cut that may tie with the
        // first unreturned pair, either searcher may keep either pair.
        const float s = oracle[r].score;
        const bool tied = (r > 0 && oracle[r - 1].score == s) ||
                          (r + 1 < oracle.size() && oracle[r + 1].score == s) ||
                          r + 1 == trial.n;
        if (!tied) {
          EXPECT_EQ(results[u][r].point_index, oracle[r].point_index)
              << "rank " << r;
        }
      }
    }
  }
}

TEST_P(PrefixFallbackTest, ReciprocalSearchMatchesOraclePastPrefix) {
  const FallbackTrial trial = MakeFallbackTrial(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "seed=" << trial.seed << " |U|=" << trial.num_users
               << " |X|=" << trial.num_events << " K=" << trial.dim
               << " tied=" << trial.tied << " n=" << trial.deep_n);
  auto store = FallbackStore(trial);
  GemModel model(store.get(), "GEM");
  TransformedSpace space(
      model, BuildCandidatePairs(model, AllEvents(trial.num_events),
                                 trial.num_users, /*top_k=*/0));
  TaSearch ta(&space);
  ASSERT_GE(ta.index().num_partners(), 4 * kPrefix);
  ReciprocalScratch scratch;

  for (ebsn::UserId u = 0; u < 4; ++u) {
    SCOPED_TRACE(::testing::Message() << "u=" << u);
    float oracle_bound = 0.0f;
    const auto oracle =
        ReciprocalTopPairs(model, space, u, trial.deep_n, &oracle_bound);
    float bound = 0.0f;
    SearchStats stats;
    const auto served =
        ReciprocalSearch(model, ta, space, u, trial.deep_n, &scratch, &bound,
                         &stats);
    EXPECT_GT(stats.ta_depth, kPrefix + trial.num_events)
        << "the walk never left the prefix";
    ASSERT_EQ(served.size(), oracle.size());
    for (size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].event, oracle[i].event) << "rank " << i;
      EXPECT_EQ(served[i].partner, oracle[i].partner) << "rank " << i;
      EXPECT_EQ(served[i].score, oracle[i].score) << "rank " << i;
    }
    // Sound and never above the n-th returned score; at least the
    // oracle's best dropped score.
    if (!served.empty()) {
      EXPECT_LE(bound, served.back().score);
    }
    EXPECT_GE(bound, oracle_bound);
  }
}

INSTANTIATE_TEST_SUITE_P(TwelveSeeds, PrefixFallbackTest,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace gemrec::recommend

// Query-kind layer unit + differential tests: name/parse round-trips,
// the bitwise-equality contracts between the model-level score
// functions and the TA engine's score assembly, the exhaustive group /
// reciprocal oracles' ordering and bound semantics, and the single-pass
// ReciprocalSearch against its brute-force oracle over many seeded
// spaces.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec_math.h"
#include "recommend/candidate_index.h"
#include "recommend/query_kinds.h"
#include "recommend/space_transform.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

std::unique_ptr<embedding::EmbeddingStore> RandomStore(uint32_t num_users,
                                                       uint32_t num_events,
                                                       uint32_t dim,
                                                       uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      dim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent).FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

std::vector<ebsn::EventId> AllEvents(uint32_t n) {
  std::vector<ebsn::EventId> events(n);
  for (uint32_t x = 0; x < n; ++x) events[x] = x;
  return events;
}

TEST(QueryKindNamesTest, NameParseRoundTrip) {
  for (QueryKind kind : {QueryKind::kPartner, QueryKind::kGroup,
                         QueryKind::kReciprocal}) {
    QueryKind parsed;
    ASSERT_TRUE(ParseQueryKind(QueryKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  for (GroupAggregator agg : {GroupAggregator::kSum, GroupAggregator::kMin}) {
    GroupAggregator parsed;
    ASSERT_TRUE(ParseGroupAggregator(GroupAggregatorName(agg), &parsed));
    EXPECT_EQ(parsed, agg);
  }
}

TEST(QueryKindNamesTest, ParseRejectsUnknownSpellings) {
  QueryKind kind;
  EXPECT_FALSE(ParseQueryKind("", &kind));
  EXPECT_FALSE(ParseQueryKind("Partner", &kind));
  EXPECT_FALSE(ParseQueryKind("groups", &kind));
  EXPECT_FALSE(ParseQueryKind("pair", &kind));
  GroupAggregator agg;
  EXPECT_FALSE(ParseGroupAggregator("", &agg));
  EXPECT_FALSE(ParseGroupAggregator("max", &agg));
  EXPECT_FALSE(ParseGroupAggregator("Sum", &agg));
}

// PairwiseScore must reproduce the TA engine's score assembly bitwise:
// serve-path answers for kPartner come out of TaSearch, and the group
// score is a fold of PairwiseScore, so any rounding divergence between
// the two would break the cross-kind differential suites.
TEST(PairwiseScoreTest, BitwiseEqualToTaAssembly) {
  auto store = RandomStore(12, 10, 8, 77);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(10), 12, /*top_k=*/0);
  TransformedSpace space(model, std::move(pairs));
  TaSearch ta(&space);

  std::vector<float> q;
  for (ebsn::UserId u = 0; u < 4; ++u) {
    space.QueryVector(model, u, &q);
    const auto hits = ta.Search(q, space.num_points(), u);
    ASSERT_FALSE(hits.empty());
    for (const SearchHit& hit : hits) {
      const float direct =
          PairwiseScore(model, u, hit.pair.partner, hit.pair.event);
      EXPECT_EQ(direct, hit.score)
          << "u=" << u << " event=" << hit.pair.event
          << " partner=" << hit.pair.partner;
    }
  }
}

// ReciprocalSearch scores a pair as min(A + B, C + B) from the
// model's rows (A = u·x, B = u·u') and the space's stored C = u'·x.
// That must equal ReciprocalScore bitwise, or the served answers would
// drift from the oracle at ties.
TEST(ReciprocalScoreTest, MinOfComponentSumsIsBitwiseReciprocalScore) {
  auto store = RandomStore(10, 9, 8, 31);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(9), 10, /*top_k=*/0);
  TransformedSpace space(model, std::move(pairs));
  const uint32_t k = model.dim();

  for (ebsn::UserId u = 0; u < 10; ++u) {
    for (size_t i = 0; i < space.num_points(); ++i) {
      const CandidatePair& pair = space.pair(i);
      const float a = Dot(model.UserVec(u), model.EventVec(pair.event), k);
      const float b =
          Dot(model.UserVec(u), model.UserVec(pair.partner), k);
      const float c = space.Point(i)[2 * k];
      const float r = std::min(a + b, c + b);
      const float oracle =
          ReciprocalScore(model, u, pair.partner, pair.event);
      EXPECT_EQ(std::bit_cast<uint32_t>(r), std::bit_cast<uint32_t>(oracle))
          << "u=" << u << " event=" << pair.event
          << " partner=" << pair.partner;
    }
  }
}

TEST(ReciprocalScoreTest, SymmetricAndNeverAboveEitherDirection) {
  auto store = RandomStore(14, 11, 16, 5);
  GemModel model(store.get(), "GEM");
  for (ebsn::UserId u = 0; u < 6; ++u) {
    for (ebsn::UserId v = u + 1; v < 10; ++v) {
      for (ebsn::EventId x = 0; x < 11; ++x) {
        const float r = ReciprocalScore(model, u, v, x);
        EXPECT_EQ(r, ReciprocalScore(model, v, u, x));
        EXPECT_LE(r, DirectedScore(model, u, v, x));
        EXPECT_LE(r, DirectedScore(model, v, u, x));
      }
    }
  }
}

TEST(GroupEventScoreTest, SumAndMinMatchManualFold) {
  auto store = RandomStore(10, 8, 8, 99);
  GemModel model(store.get(), "GEM");
  const std::vector<ebsn::UserId> members = {3, 1, 7};
  for (ebsn::EventId x = 0; x < 8; ++x) {
    float sum = 0.0f;
    float worst = std::numeric_limits<float>::infinity();
    for (const ebsn::UserId m : members) {
      const float f = PairwiseScore(model, 0, m, x);
      sum += f;
      worst = std::min(worst, f);
    }
    EXPECT_EQ(sum,
              GroupEventScore(model, 0, members, x, GroupAggregator::kSum));
    EXPECT_EQ(worst,
              GroupEventScore(model, 0, members, x, GroupAggregator::kMin));
  }
}

// kSum accumulates in member order; any permutation must still agree
// mathematically, and the documented contract is the *given* order, so
// the same order always yields identical floats.
TEST(GroupEventScoreTest, SameMemberOrderYieldsIdenticalFloats) {
  auto store = RandomStore(20, 6, 12, 123);
  GemModel model(store.get(), "GEM");
  const std::vector<ebsn::UserId> members = {9, 2, 14, 5};
  for (ebsn::EventId x = 0; x < 6; ++x) {
    EXPECT_EQ(GroupEventScore(model, 1, members, x, GroupAggregator::kSum),
              GroupEventScore(model, 1, members, x, GroupAggregator::kSum));
  }
}

TEST(RecommendationOrderTest, ScoreDescThenEventThenPartner) {
  const Recommendation a{2, 5, 1.0f};
  const Recommendation b{1, 9, 0.5f};
  EXPECT_TRUE(RecommendationOrder(a, b));
  EXPECT_FALSE(RecommendationOrder(b, a));
  // Tied score: lower event wins.
  const Recommendation c{1, 9, 1.0f};
  EXPECT_TRUE(RecommendationOrder(c, a));
  // Tied score and event: lower partner wins.
  const Recommendation d{2, 3, 1.0f};
  EXPECT_TRUE(RecommendationOrder(d, a));
  // Irreflexive.
  EXPECT_FALSE(RecommendationOrder(a, a));
}

TEST(GroupTopEventsTest, RanksByAggregateAndReportsBound) {
  auto store = RandomStore(12, 20, 8, 2024);
  GemModel model(store.get(), "GEM");
  const std::vector<ebsn::UserId> members = {2, 4};
  const auto events = AllEvents(20);

  for (GroupAggregator agg : {GroupAggregator::kSum, GroupAggregator::kMin}) {
    float bound = 0.0f;
    const auto top = GroupTopEvents(model, events, 0, members, agg, 5, &bound);
    ASSERT_EQ(top.size(), 5u);
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].partner, ebsn::kInvalidId);
      EXPECT_EQ(top[i].score,
                GroupEventScore(model, 0, members, top[i].event, agg));
      if (i > 0) {
        EXPECT_TRUE(!RecommendationOrder(top[i], top[i - 1]));
      }
    }
    // The bound is the best dropped score: no unreturned event may beat
    // it, and it never exceeds the n-th returned score.
    EXPECT_LE(bound, top.back().score);
    std::vector<bool> returned(20, false);
    for (const auto& r : top) returned[r.event] = true;
    for (ebsn::EventId x = 0; x < 20; ++x) {
      if (returned[x]) continue;
      EXPECT_LE(GroupEventScore(model, 0, members, x, agg), bound);
    }
  }
}

TEST(GroupTopEventsTest, NothingDroppedYieldsNegInfBound) {
  auto store = RandomStore(6, 4, 8, 7);
  GemModel model(store.get(), "GEM");
  float bound = 123.0f;
  const auto top = GroupTopEvents(model, AllEvents(4), 0, {1},
                                  GroupAggregator::kSum, 10, &bound);
  EXPECT_EQ(top.size(), 4u);
  EXPECT_EQ(bound, kNegInf);
}

TEST(ReciprocalTopPairsTest, ExcludesSelfAndRanksByMin) {
  auto store = RandomStore(10, 8, 8, 41);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(8), 10, /*top_k=*/0);
  TransformedSpace space(model, std::move(pairs));

  float bound = 0.0f;
  const ebsn::UserId u = 3;
  const auto top = ReciprocalTopPairs(model, space, u, 6, &bound);
  ASSERT_EQ(top.size(), 6u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_NE(top[i].partner, u);
    EXPECT_EQ(top[i].score,
              ReciprocalScore(model, u, top[i].partner, top[i].event));
    if (i > 0) {
      EXPECT_FALSE(RecommendationOrder(top[i], top[i - 1]));
    }
  }
  EXPECT_LE(bound, top.back().score);
}

struct RecipTrial {
  uint64_t seed = 0;
  uint32_t num_users = 0;
  uint32_t num_events = 0;
  uint32_t dim = 0;
  uint32_t top_k = 0;
  size_t n = 0;
};

// Single-pass reciprocal TA vs. the exhaustive oracle over many seeded
// spaces, including n larger than the space and spaces small enough
// that the walk runs to exhaustion.
class ReciprocalDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReciprocalDifferentialTest, MatchesBruteForceOracle) {
  SplitMix64 mix(0xacebeef + GetParam());
  RecipTrial trial;
  trial.seed = mix.Next();
  trial.num_users = 3 + mix.Next() % 40;
  trial.num_events = 2 + mix.Next() % 30;
  const uint32_t dims[] = {4, 8, 16};
  trial.dim = dims[mix.Next() % 3];
  trial.top_k = (mix.Next() % 2 == 0) ? 0 : 1 + mix.Next() % trial.num_events;
  trial.n = 1 + mix.Next() % 24;
  SCOPED_TRACE(::testing::Message()
               << "seed=" << trial.seed << " |U|=" << trial.num_users
               << " |X|=" << trial.num_events << " K=" << trial.dim
               << " top_k=" << trial.top_k << " n=" << trial.n);

  auto store =
      RandomStore(trial.num_users, trial.num_events, trial.dim, trial.seed);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(trial.num_events),
                                   trial.num_users, trial.top_k);
  TransformedSpace space(model, std::move(pairs));
  TaSearch ta(&space);
  ReciprocalScratch scratch;

  for (ebsn::UserId u = 0; u < std::min(3u, trial.num_users); ++u) {
    float oracle_bound = 0.0f;
    const auto oracle =
        ReciprocalTopPairs(model, space, u, trial.n, &oracle_bound);
    float search_bound = 0.0f;
    SearchStats stats;
    const auto served = ReciprocalSearch(model, ta, space, u, trial.n,
                                         &scratch, &search_bound, &stats);
    ASSERT_EQ(served.size(), oracle.size()) << "u=" << u;
    for (size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].event, oracle[i].event) << "rank " << i;
      EXPECT_EQ(served[i].partner, oracle[i].partner) << "rank " << i;
      EXPECT_EQ(served[i].score, oracle[i].score) << "rank " << i;
    }
    // Bound soundness: every unreturned pair scores <= the reported
    // bound, and the bound never exceeds the n-th returned score (the
    // shard merger's completeness certificate needs both).
    if (!served.empty()) {
      EXPECT_LE(search_bound, served.back().score);
    }
    std::vector<bool> kept(space.num_points(), false);
    for (size_t i = 0; i < space.num_points(); ++i) {
      const CandidatePair& pair = space.pair(i);
      if (pair.partner == u) continue;
      bool in_result = false;
      for (const auto& r : served) {
        if (r.event == pair.event && r.partner == pair.partner) {
          in_result = true;
          break;
        }
      }
      if (in_result) continue;
      EXPECT_LE(ReciprocalScore(model, u, pair.partner, pair.event),
                search_bound)
          << "unreturned pair (" << pair.event << ", " << pair.partner
          << ") beats the certified bound";
    }
    EXPECT_EQ(stats.unreturned_bound, search_bound);
  }
}

INSTANTIATE_TEST_SUITE_P(ThirtySeeds, ReciprocalDifferentialTest,
                         ::testing::Range<uint64_t>(0, 30));

TEST(ReciprocalSearchTest, EmptySpaceAndZeroNAreDefined) {
  auto store = RandomStore(4, 3, 8, 1);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(3), 4, /*top_k=*/0);
  TransformedSpace space(model, std::move(pairs));
  TaSearch ta(&space);
  ReciprocalScratch scratch;

  float bound = 0.0f;
  const auto none =
      ReciprocalSearch(model, ta, space, 0, 0, &scratch, &bound);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(bound, kNegInf);

  TransformedSpace empty(model, std::vector<CandidatePair>{});
  TaSearch empty_ta(&empty);
  const auto from_empty =
      ReciprocalSearch(model, empty_ta, empty, 0, 5, &scratch, &bound);
  EXPECT_TRUE(from_empty.empty());
  EXPECT_EQ(bound, kNegInf);
}

}  // namespace
}  // namespace gemrec::recommend

#include "recommend/query_kinds.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/vec_math.h"

namespace gemrec::recommend {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Sorts the first min(n + 1, size) entries and derives the
/// unreturned-bound + truncation shared by both exhaustive oracles:
/// one slot past the cut is enough to know the best dropped score.
std::vector<Recommendation> FinishExhaustive(
    std::vector<Recommendation> all, size_t n, float* bound_out) {
  const size_t sorted = std::min(all.size(), n + 1);
  std::partial_sort(all.begin(), all.begin() + sorted, all.end(),
                    RecommendationOrder);
  float bound = kNegInf;
  if (all.size() > n) bound = all[n].score;
  all.resize(std::min(all.size(), n));
  if (bound_out != nullptr) *bound_out = bound;
  return all;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPartner: return "partner";
    case QueryKind::kGroup: return "group";
    case QueryKind::kReciprocal: return "reciprocal";
  }
  return "unknown";
}

const char* GroupAggregatorName(GroupAggregator agg) {
  switch (agg) {
    case GroupAggregator::kSum: return "sum";
    case GroupAggregator::kMin: return "min";
  }
  return "unknown";
}

bool ParseQueryKind(const std::string& text, QueryKind* out) {
  if (text == "partner") {
    *out = QueryKind::kPartner;
  } else if (text == "group") {
    *out = QueryKind::kGroup;
  } else if (text == "reciprocal") {
    *out = QueryKind::kReciprocal;
  } else {
    return false;
  }
  return true;
}

bool ParseGroupAggregator(const std::string& text, GroupAggregator* out) {
  if (text == "sum") {
    *out = GroupAggregator::kSum;
  } else if (text == "min") {
    *out = GroupAggregator::kMin;
  } else {
    return false;
  }
  return true;
}

float PairwiseScore(const GemModel& model, ebsn::UserId user,
                    ebsn::UserId partner, ebsn::EventId event) {
  // Associates as (A + B) + C, the exact order TaSearch::pair_score
  // assembles the same three partial sums in.
  return model.ScoreUserEvent(user, event) +
         model.ScoreUserUser(user, partner) +
         model.ScoreUserEvent(partner, event);
}

float DirectedScore(const GemModel& model, ebsn::UserId viewer,
                    ebsn::UserId peer, ebsn::EventId event) {
  return model.ScoreUserEvent(viewer, event) +
         model.ScoreUserUser(viewer, peer);
}

float ReciprocalScore(const GemModel& model, ebsn::UserId user,
                      ebsn::UserId partner, ebsn::EventId event) {
  return std::min(DirectedScore(model, user, partner, event),
                  DirectedScore(model, partner, user, event));
}

float GroupEventScore(const GemModel& model, ebsn::UserId user,
                      const std::vector<ebsn::UserId>& members,
                      ebsn::EventId event, GroupAggregator agg) {
  GEMREC_CHECK(!members.empty()) << "group query with no members";
  if (agg == GroupAggregator::kSum) {
    float acc = 0.0f;
    for (const ebsn::UserId m : members) {
      acc += PairwiseScore(model, user, m, event);
    }
    return acc;
  }
  float worst = PairwiseScore(model, user, members[0], event);
  for (size_t i = 1; i < members.size(); ++i) {
    worst = std::min(worst, PairwiseScore(model, user, members[i], event));
  }
  return worst;
}

bool RecommendationOrder(const Recommendation& a, const Recommendation& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.event != b.event) return a.event < b.event;
  return a.partner < b.partner;
}

std::vector<Recommendation> GroupTopEvents(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    ebsn::UserId user, const std::vector<ebsn::UserId>& members,
    GroupAggregator agg, size_t n, float* bound_out) {
  std::vector<Recommendation> all;
  all.reserve(events.size());
  for (const ebsn::EventId x : events) {
    all.push_back(Recommendation{
        x, ebsn::kInvalidId, GroupEventScore(model, user, members, x, agg)});
  }
  return FinishExhaustive(std::move(all), n, bound_out);
}

std::vector<Recommendation> ReciprocalTopPairs(
    const GemModel& model, const TransformedSpace& space, ebsn::UserId user,
    size_t n, float* bound_out) {
  std::vector<Recommendation> all;
  all.reserve(space.num_points());
  for (size_t i = 0; i < space.num_points(); ++i) {
    const CandidatePair& pair = space.pair(i);
    if (pair.partner == user) continue;
    all.push_back(Recommendation{
        pair.event, pair.partner,
        ReciprocalScore(model, user, pair.partner, pair.event)});
  }
  return FinishExhaustive(std::move(all), n, bound_out);
}

std::vector<Recommendation> ReciprocalSearch(
    const GemModel& model, const TaSearch& searcher,
    const TransformedSpace& space, ebsn::UserId user, size_t n,
    ReciprocalScratch* scratch, float* bound_out, SearchStats* stats_out) {
  GEMREC_CHECK(scratch != nullptr);
  const SpaceIndex& index = searcher.index();
  GEMREC_CHECK(&index.space() == &space)
      << "searcher indexes a different space";
  SearchStats stats;
  const size_t num_points = space.num_points();
  const size_t want =
      num_points == 0 ? 0 : std::min(n, index.ResultsPossible(user));
  if (want == 0) {
    if (bound_out != nullptr) *bound_out = kNegInf;
    if (stats_out != nullptr) *stats_out = stats;
    return {};
  }

  // A and B per group, read from the model's contiguous rows. The
  // packed words order each list for ListOrder.
  const uint32_t k = model.dim();
  const float* uv = model.UserVec(user);
  const size_t num_events = index.num_events();
  const size_t num_partners = index.num_partners();
  scratch->event_comp.resize(num_events);
  scratch->event_keys.resize(num_events);
  scratch->partner_comp.resize(num_partners);
  scratch->partner_keys.resize(num_partners);
  float* event_comp = scratch->event_comp.data();
  float* partner_comp = scratch->partner_comp.data();
  for (size_t e = 0; e < num_events; ++e) {
    event_comp[e] = Dot(uv, model.EventVec(index.events()[e]), k);
    scratch->event_keys[e] =
        (uint64_t{FloatOrderKey(event_comp[e])} << 32) | e;
  }
  for (size_t p = 0; p < num_partners; ++p) {
    partner_comp[p] = Dot(uv, model.UserVec(index.partners()[p]), k);
    scratch->partner_keys[p] =
        (uint64_t{FloatOrderKey(partner_comp[p])} << 32) | p;
  }
  ListOrder& event_order = scratch->event_order;
  ListOrder& partner_order = scratch->partner_order;
  event_order.Reset(scratch->event_keys.data(), num_events);
  partner_order.Reset(scratch->partner_keys.data(), num_partners);

  if (scratch->seen_gen.size() < num_points) {
    scratch->seen_gen.assign(num_points, 0);
    scratch->generation = 0;
  }
  if (++scratch->generation == 0) {  // wrapped: hard reset
    std::fill(scratch->seen_gen.begin(), scratch->seen_gen.end(), 0u);
    scratch->generation = 1;
  }
  const uint32_t generation = scratch->generation;
  uint32_t* seen = scratch->seen_gen.data();

  const auto& event_pairs = index.event_pairs();
  const auto& partner_pairs = index.partner_pairs();
  const uint32_t* pair_event_idx = index.pair_event_idx().data();
  const uint32_t* pair_partner_idx = index.pair_partner_idx().data();
  const uint32_t* c_sorted = index.c_sorted().data();
  const uint32_t c_dim = 2 * k;
  const auto c_of = [&](uint32_t id) { return space.Point(id)[c_dim]; };

  std::vector<Recommendation>& top = scratch->top;
  top.clear();
  float dropped = kNegInf;  // best examined score left out of `top`
  const auto examine = [&](uint32_t id) {
    if (seen[id] == generation) return;
    seen[id] = generation;
    ++stats.points_examined;
    const CandidatePair& pair = space.pair(id);
    if (pair.partner == user) return;
    const float b = partner_comp[pair_partner_idx[id]];
    // min(d(u -> u'), d(u' -> u)) in ReciprocalScore's operand order.
    const Recommendation cand{
        pair.event, pair.partner,
        std::min(event_comp[pair_event_idx[id]] + b, c_of(id) + b)};
    if (top.size() < n) {
      top.push_back(cand);
      std::push_heap(top.begin(), top.end(), RecommendationOrder);
    } else if (RecommendationOrder(cand, top.front())) {
      dropped = std::max(dropped, top.front().score);
      std::pop_heap(top.begin(), top.end(), RecommendationOrder);
      top.back() = cand;
      std::push_heap(top.begin(), top.end(), RecommendationOrder);
    } else {
      dropped = std::max(dropped, cand.score);
    }
  };

  size_t a_group = 0, a_offset = 0;  // position in event_order
  size_t b_group = 0, b_offset = 0;  // position in partner_order
  size_t c_cursor = 0;               // position in c_sorted
  float stop_bound = kNegInf;
  // Every list enumerates every pair, so once any list runs out the
  // whole space has been examined.
  while (a_group < num_events && b_group < num_partners &&
         c_cursor < num_points) {
    const uint32_t a_idx = event_order.Group(a_group);
    const uint32_t b_idx = partner_order.Group(b_group);
    const float ha = event_comp[a_idx];
    const float hb = partner_comp[b_idx];
    const float hc = c_of(c_sorted[c_cursor]);
    const float threshold = std::min(ha + hb, hc + hb);
    if (top.size() >= n && top.front().score > threshold) {
      stop_bound = threshold;
      break;
    }
    ++stats.sorted_accesses;
    // Best-first among the lists that can lower the threshold: B, and
    // whichever of A and C the min currently binds on.
    if (hb >= std::min(ha, hc)) {
      const auto& pairs = partner_pairs[b_idx];
      examine(pairs[b_offset]);
      if (++b_offset >= pairs.size()) {
        b_offset = 0;
        ++b_group;
      }
    } else if (ha <= hc) {
      const auto& pairs = event_pairs[a_idx];
      examine(pairs[a_offset]);
      if (++a_offset >= pairs.size()) {
        a_offset = 0;
        ++a_group;
      }
    } else {
      examine(c_sorted[c_cursor]);
      ++c_cursor;
    }
  }

  const float bound = std::max(dropped, stop_bound);
  std::sort(top.begin(), top.end(), RecommendationOrder);
  stats.unreturned_bound = bound;
  stats.ta_depth = std::min(a_group + 1, num_events) +
                   std::min(b_group + 1, num_partners);
  stats.examined_fraction = static_cast<double>(stats.points_examined) /
                            static_cast<double>(num_points);
  if (bound_out != nullptr) *bound_out = bound;
  if (stats_out != nullptr) *stats_out = stats;
  return std::vector<Recommendation>(top.begin(), top.end());
}

}  // namespace gemrec::recommend

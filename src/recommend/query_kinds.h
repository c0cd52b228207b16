#ifndef GEMREC_RECOMMEND_QUERY_KINDS_H_
#define GEMREC_RECOMMEND_QUERY_KINDS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ebsn/types.h"
#include "recommend/gem_model.h"
#include "recommend/list_order.h"
#include "recommend/recommender.h"
#include "recommend/space_transform.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {

/// The workload a query asks for. Wire values are frozen (they travel
/// in v2 request frames); add new kinds at the end only.
enum class QueryKind : uint8_t {
  /// The paper's joint event-partner ranking: top-n (event, partner)
  /// pairs under f(u, u', x) = u·x + u'·x + u·u' (Eqn 8).
  kPartner = 0,
  /// Group-event ranking: given u and a fixed partner set G, top-n
  /// events under S(x) = agg_{u' in G} f(u, u', x). Results carry
  /// partner = kInvalidId (the partners are the request's group).
  kGroup = 1,
  /// Reciprocal partner ranking: top-n (event, partner) pairs under
  /// r(u, u', x) = min(d(u -> u', x), d(u' -> u, x)) where the
  /// directed score d(a -> b, x) = a·x + a·b keeps only the terms the
  /// viewer a cares about — both sides must want the match.
  kReciprocal = 2,
};

/// How a group query folds its per-member pairwise terms.
enum class GroupAggregator : uint8_t {
  kSum = 0,  // social welfare: the group's total utility
  kMin = 1,  // least-misery: the unhappiest member decides
};

const char* QueryKindName(QueryKind kind);
const char* GroupAggregatorName(GroupAggregator agg);
/// Parses the CLI spellings ("partner", "group", "reciprocal" /
/// "sum", "min"); returns false on anything else.
bool ParseQueryKind(const std::string& text, QueryKind* out);
bool ParseGroupAggregator(const std::string& text, GroupAggregator* out);

/// Eqn 8 pairwise score, assembled exactly the way the TA engine
/// assembles it over the transformed space (A + B + C as three partial
/// sums) so offline oracles and served answers agree bitwise.
float PairwiseScore(const GemModel& model, ebsn::UserId user,
                    ebsn::UserId partner, ebsn::EventId event);

/// Directed score d(viewer -> peer, event) = viewer·event +
/// viewer·peer: the two Eqn 8 terms that involve the viewer.
float DirectedScore(const GemModel& model, ebsn::UserId viewer,
                    ebsn::UserId peer, ebsn::EventId event);

/// min of the two directed scores; symmetric in (user, partner).
float ReciprocalScore(const GemModel& model, ebsn::UserId user,
                      ebsn::UserId partner, ebsn::EventId event);

/// Aggregated group score S(x) = agg_{m in members} f(user, m, x).
/// Member order is part of the contract: kSum accumulates in the given
/// order, so every replica (and the oracle) produces identical floats.
/// `members` must be non-empty.
float GroupEventScore(const GemModel& model, ebsn::UserId user,
                      const std::vector<ebsn::UserId>& members,
                      ebsn::EventId event, GroupAggregator agg);

/// Canonical result order shared by the oracles, the serve paths and
/// the shard merger: score descending, ties by (event, partner)
/// ascending — N-shard merges reproduce it bit-for-bit.
bool RecommendationOrder(const Recommendation& a, const Recommendation& b);

/// Exhaustive group-event ranking over `events` (the oracle, and the
/// serve-path scan — group scoring has no sorted-list structure to
/// prune with, so serving runs this same code over its event slice).
/// `bound_out`, when non-null, receives a sound upper bound on the
/// score of every event NOT returned: the best dropped score, or -inf
/// when nothing was dropped (SearchStats::unreturned_bound
/// convention).
std::vector<Recommendation> GroupTopEvents(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    ebsn::UserId user, const std::vector<ebsn::UserId>& members,
    GroupAggregator agg, size_t n, float* bound_out = nullptr);

/// Exhaustive reciprocal ranking over a transformed space (the
/// oracle). Pairs with partner == user are excluded, mirroring the
/// partner serve path. Bound semantics as in GroupTopEvents.
std::vector<Recommendation> ReciprocalTopPairs(
    const GemModel& model, const TransformedSpace& space, ebsn::UserId user,
    size_t n, float* bound_out = nullptr);

/// Reusable buffers for ReciprocalSearch. A default-constructed scratch
/// grows to the space on its first query and keeps its storage, so a
/// warm call allocates only the vector it returns.
struct ReciprocalScratch {
  /// Per-group components A = u·x (events) and B = u·u' (partners),
  /// their packed (FloatOrderKey << 32 | group) words, and the
  /// streaming list orders over those words.
  std::vector<float> event_comp, partner_comp;
  std::vector<uint64_t> event_keys, partner_keys;
  ListOrder event_order, partner_order;
  /// seen_gen[i] == generation marks pair i as examined this query.
  std::vector<uint32_t> seen_gen;
  uint32_t generation = 0;
  /// The n best examined pairs, a heap whose front is the worst under
  /// RecommendationOrder.
  std::vector<Recommendation> top;
};

/// Exact reciprocal top-n in one TA pass. Over the transformed space,
///
///   r(u, u', x) = B + min(A, C),  A = u·x, B = u·u', C = u'·x,
///
/// which is monotone in each component, so Fagin's TA is exact for it.
/// The walk reads three descending lists: event groups by A and
/// partner groups by B (components from the model's contiguous rows,
/// ordered through ListOrder), and pairs by the stored C coordinate
/// (the index's c_sorted order). Every examined pair scores
/// min(A + B, C + B), bitwise ReciprocalScore: Dot is symmetric, so
/// C + B is the reverse directed score. No unexamined pair can beat
/// the threshold min(ha + hb, hc + hb) over the list heads (float
/// rounding is monotone), and the walk stops once the n-th best score
/// is strictly above it, so ties at the cut resolve exactly as the
/// oracle resolves them.
///
/// Only `searcher`'s SpaceIndex is used; it must index `space`.
///
/// `bound_out` receives max(best dropped score, threshold at the stop),
/// or the best dropped score when the walk examined every pair: a
/// sound upper bound on every unreturned pair's reciprocal score, never
/// above the n-th returned score (so the shard merger's completeness
/// certificate kth >= max shard bound holds). -inf when nothing was
/// left out.
///
/// `stats_out`, when non-null, receives the walk's counters, depth and
/// that same bound.
std::vector<Recommendation> ReciprocalSearch(
    const GemModel& model, const TaSearch& searcher,
    const TransformedSpace& space, ebsn::UserId user, size_t n,
    ReciprocalScratch* scratch, float* bound_out = nullptr,
    SearchStats* stats_out = nullptr);

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_QUERY_KINDS_H_

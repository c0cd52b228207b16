#ifndef GEMREC_RECOMMEND_BATCH_TA_SEARCH_H_
#define GEMREC_RECOMMEND_BATCH_TA_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/top_k.h"
#include "ebsn/types.h"
#include "recommend/list_order.h"
#include "recommend/quantized_space.h"
#include "recommend/space_index.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {

/// One query of a batch.
struct BatchQuery {
  /// (2K+1)-dim nonnegative fp32 query, TransformedSpace layout.
  const float* query = nullptr;
  size_t n = 0;
  ebsn::UserId exclude_partner = 0;
};

/// Aggregate instrumentation of one SearchBatch call.
struct BatchSearchStats {
  /// Distinct (query, pair) examinations across the batch.
  size_t points_examined = 0;
  /// Total sorted-list positions consumed across the batch.
  size_t sorted_accesses = 0;
  /// Pairs re-scored in exact fp32 across the batch.
  size_t reranked = 0;
  /// points_examined / (num_points * batch size).
  double examined_fraction = 0.0;
  /// Time in the quantized stage: query quantization, batched
  /// component dot products, per-query prefix selection, and the TA
  /// walk.
  uint64_t quantize_scan_us = 0;
  /// Time re-scoring survivors in exact fp32.
  uint64_t rerank_us = 0;
};

/// Multi-query TA over the quantized space, with an exact fp32 re-rank.
///
/// Given a batch of queries, this runs the same aggregate-list TA as
/// TaSearch but restructured around the batch:
///
///   1. Component stage: every query is quantized once, then the
///      compact code matrices are walked *once* — group rows outer,
///      queries inner — so each event/partner row is read from cache
///      for the whole batch instead of once per query. Components are
///      integer dot products (DotQ8/DotQ16, AVX2-dispatched) scaled
///      back to fp32.
///   2. Per-query streaming list orders: the A and B group lists are
///      NOT sorted. One pass over each query's packed
///      (integer-dot << 32 | group) keys keeps the best
///      ListOrder::kPrefix groups in a small min-heap and sorts them;
///      TA usually stops inside that prefix. Only a walk that reads
///      past it max-heapifies the whole key array and pops on demand.
///      Keys are unique, so the walk sees the same order either way.
///   3. Round-robin TA walk: each live query advances its best list a
///      fixed quantum, then yields; queries retire as they stop. The
///      visited set is one generation-stamped uint64 bitmask shared by
///      the whole chunk (bit q = "query q examined this pair"), so
///      batch-64 costs the same memory as a single query.
///   4. Exact re-rank: every pair a query examined is re-scored with
///      the full-width fp32 Dot over the original point matrix, and the
///      top-n of those exact scores is returned.
///
/// Exactness: approximate scores are within epsilon of exact ones
/// (QuantizedSpace::QuantizedQuery), so a query only stops once its
/// n-th best approximate score clears the list-head bound by 2*epsilon
/// — at that point no unexamined pair can beat the true n-th best, and
/// the exact re-rank over the examined set returns precisely the
/// brute-force top-n (modulo ties). Batches of more than 64 queries are
/// processed in chunks of 64.
///
/// Steady-state SearchBatch calls through a warm Workspace perform no
/// heap allocation (pinned by tests/recommend/ta_alloc_test).
class BatchTaSearch {
 public:
  /// Reusable cross-batch workspace; grows on first use and keeps its
  /// storage. Not safe for concurrent use.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class BatchTaSearch;
    struct Cursor {
      size_t a_group, a_offset, b_group, b_offset, c_cursor;
      size_t want;
      size_t examined, sorted_accesses;  // this query's own counts
      float epsilon2;  // 2 * epsilon, the threshold widening
      float c_weight;
      /// True-score bound on unexamined pairs, captured when the
      /// widened threshold fires (-inf if the walk ran to exhaustion).
      float stop_bound;
      bool done;
    };
    std::vector<uint8_t> event_q8, partner_q8;     // query codes, int8 mode
    std::vector<int16_t> event_q16, partner_q16;   // query codes, int16 mode
    std::vector<QuantizedSpace::QuantizedQuery> qq;
    std::vector<float> event_comp, partner_comp;   // [query][group]
    /// Per-query (dot << 32 | group) keys and their list orders.
    std::vector<uint64_t> event_keys, partner_keys;
    std::vector<ListOrder> event_orders, partner_orders;
    std::vector<uint32_t> seen_gen;
    std::vector<uint64_t> seen_bits;
    uint32_t generation = 0;
    std::vector<Cursor> cursors;
    std::vector<std::vector<uint32_t>> examined;
    std::vector<TopK<uint32_t>> heaps;
  };

  /// `quant` (and the SpaceIndex it wraps) must outlive the searcher.
  explicit BatchTaSearch(const QuantizedSpace* quant);

  const SpaceIndex& index() const { return *index_; }

  /// Runs `count` queries; fills results[i] with queries[i]'s exact
  /// top-n (descending score). Result vectors are cleared, not shrunk,
  /// so warm callers stay allocation-free. `stats` may be null;
  /// `per_query_stats`, when non-null, must point at `count` entries
  /// and receives each query's own examine counts.
  void SearchBatch(const BatchQuery* queries, size_t count,
                   std::vector<SearchHit>* results,
                   BatchSearchStats* stats, Workspace* workspace,
                   SearchStats* per_query_stats = nullptr) const;

 private:
  void SearchChunk(const BatchQuery* queries, size_t count,
                   std::vector<SearchHit>* results,
                   BatchSearchStats* stats, Workspace* ws,
                   SearchStats* per_query_stats) const;

  const QuantizedSpace* quant_;
  const SpaceIndex* index_;
  const TransformedSpace* space_;
  uint32_t latent_dim_;
};

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_BATCH_TA_SEARCH_H_

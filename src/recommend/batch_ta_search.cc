#include "recommend/batch_ta_search.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/vec_math.h"

namespace gemrec::recommend {
namespace {

/// Chunk width: one bit per query in the shared visited mask.
constexpr size_t kMaxChunk = 64;
/// Sorted-list steps a live query takes before yielding to the next.
constexpr size_t kWalkQuantum = 64;

}  // namespace

BatchTaSearch::BatchTaSearch(const QuantizedSpace* quant)
    : quant_(quant),
      index_(&quant->index()),
      space_(&quant->index().space()),
      latent_dim_(quant->latent_dim()) {
  GEMREC_CHECK(quant != nullptr);
}

void BatchTaSearch::SearchBatch(const BatchQuery* queries, size_t count,
                                std::vector<SearchHit>* results,
                                BatchSearchStats* stats,
                                Workspace* workspace,
                                SearchStats* per_query_stats) const {
  GEMREC_CHECK(workspace != nullptr);
  BatchSearchStats local;
  for (size_t start = 0; start < count; start += kMaxChunk) {
    const size_t chunk = std::min(kMaxChunk, count - start);
    SearchChunk(queries + start, chunk, results + start, &local, workspace,
                per_query_stats ? per_query_stats + start : nullptr);
  }
  const size_t num_points = space_->num_points();
  local.examined_fraction =
      (num_points == 0 || count == 0)
          ? 0.0
          : static_cast<double>(local.points_examined) /
                (static_cast<double>(num_points) *
                 static_cast<double>(count));
  if (stats != nullptr) *stats = local;
}

void BatchTaSearch::SearchChunk(const BatchQuery* queries, size_t count,
                                std::vector<SearchHit>* results,
                                BatchSearchStats* stats, Workspace* ws,
                                SearchStats* per_query_stats) const {
  GEMREC_DCHECK(count <= kMaxChunk);
  Stopwatch total_timer;
  uint64_t rerank_us = 0;

  const size_t num_points = space_->num_points();
  const uint32_t k = latent_dim_;
  const size_t num_events = index_->num_events();
  const size_t num_partners = index_->num_partners();
  const auto& event_pairs = index_->event_pairs();
  const auto& partner_pairs = index_->partner_pairs();
  const uint32_t* pair_event_idx = index_->pair_event_idx().data();
  const uint32_t* pair_partner_idx = index_->pair_partner_idx().data();
  const uint32_t* c_sorted = index_->c_sorted().data();
  const float* c_values = quant_->c_values().data();
  const float* c_sorted_values = quant_->c_sorted_values().data();
  const bool int8_mode =
      quant_->precision() == QuantizedSpace::Precision::kInt8;

  for (size_t q = 0; q < count; ++q) results[q].clear();
  if (per_query_stats != nullptr) {
    for (size_t q = 0; q < count; ++q) per_query_stats[q] = SearchStats{};
  }
  if (num_points == 0 || count == 0) {
    stats->quantize_scan_us +=
        static_cast<uint64_t>(total_timer.ElapsedMicros());
    return;
  }

  // --- Stage 1: quantize queries, then batched components. ---
  ws->event_q8.resize(kMaxChunk * k);
  ws->partner_q8.resize(kMaxChunk * k);
  ws->event_q16.resize(kMaxChunk * k);
  ws->partner_q16.resize(kMaxChunk * k);
  ws->qq.resize(kMaxChunk);
  for (size_t q = 0; q < count; ++q) {
    ws->qq[q] = quant_->QuantizeQuery(
        queries[q].query, ws->event_q8.data() + q * k,
        ws->partner_q8.data() + q * k, ws->event_q16.data() + q * k,
        ws->partner_q16.data() + q * k);
  }

  // Group rows outer, queries inner: each compact code row is read once
  // per batch, and the chunk's query codes stay resident in L1. The
  // raw integer dot is kept alongside the fp32 component as a packed
  // (dot << 32 | group) ordering key: bias + scale * float(dot) with
  // scale >= 0 is monotone in the dot, so descending-key order IS
  // descending-component order, with no float comparator needed.
  ws->event_comp.resize(kMaxChunk * num_events);
  ws->partner_comp.resize(kMaxChunk * num_partners);
  ws->event_keys.resize(kMaxChunk * num_events);
  ws->partner_keys.resize(kMaxChunk * num_partners);
  float* event_comp = ws->event_comp.data();
  float* partner_comp = ws->partner_comp.data();
  uint64_t* event_keys = ws->event_keys.data();
  uint64_t* partner_keys = ws->partner_keys.data();
  if (int8_mode) {
    for (size_t e = 0; e < num_events; ++e) {
      const int8_t* row = quant_->EventCodes8(e);
      for (size_t q = 0; q < count; ++q) {
        const int32_t dot = DotQ8(ws->event_q8.data() + q * k, row, k);
        event_comp[q * num_events + e] =
            ws->qq[q].event_bias +
            ws->qq[q].event_scale * static_cast<float>(dot);
        event_keys[q * num_events + e] =
            (static_cast<uint64_t>(static_cast<uint32_t>(dot)) << 32) | e;
      }
    }
    for (size_t u = 0; u < num_partners; ++u) {
      const int8_t* row = quant_->PartnerCodes8(u);
      for (size_t q = 0; q < count; ++q) {
        const int32_t dot = DotQ8(ws->partner_q8.data() + q * k, row, k);
        partner_comp[q * num_partners + u] =
            ws->qq[q].partner_bias +
            ws->qq[q].partner_scale * static_cast<float>(dot);
        partner_keys[q * num_partners + u] =
            (static_cast<uint64_t>(static_cast<uint32_t>(dot)) << 32) | u;
      }
    }
  } else {
    for (size_t e = 0; e < num_events; ++e) {
      const int16_t* row = quant_->EventCodes16(e);
      for (size_t q = 0; q < count; ++q) {
        const int32_t dot = DotQ16(ws->event_q16.data() + q * k, row, k);
        event_comp[q * num_events + e] =
            ws->qq[q].event_bias +
            ws->qq[q].event_scale * static_cast<float>(dot);
        event_keys[q * num_events + e] =
            (static_cast<uint64_t>(static_cast<uint32_t>(dot)) << 32) | e;
      }
    }
    for (size_t u = 0; u < num_partners; ++u) {
      const int16_t* row = quant_->PartnerCodes16(u);
      for (size_t q = 0; q < count; ++q) {
        const int32_t dot = DotQ16(ws->partner_q16.data() + q * k, row, k);
        partner_comp[q * num_partners + u] =
            ws->qq[q].partner_bias +
            ws->qq[q].partner_scale * static_cast<float>(dot);
        partner_keys[q * num_partners + u] =
            (static_cast<uint64_t>(static_cast<uint32_t>(dot)) << 32) | u;
      }
    }
  }

  // --- Stage 2: per-query list orders. One pass per list selects the
  // best ListOrder::kPrefix groups; only a walk that reads past them
  // heapifies the whole list. Ordering every partner group would cost
  // far more than the few dozen positions the threshold needs.
  ws->event_orders.resize(kMaxChunk);
  ws->partner_orders.resize(kMaxChunk);
  for (size_t q = 0; q < count; ++q) {
    ws->event_orders[q].Reset(event_keys + q * num_events, num_events);
    ws->partner_orders[q].Reset(partner_keys + q * num_partners,
                                num_partners);
  }

  // --- Stage 3: round-robin widened-threshold TA walk. ---
  if (ws->seen_gen.size() < num_points) {
    ws->seen_gen.assign(num_points, 0);
    ws->seen_bits.assign(num_points, 0);
    ws->generation = 0;
  }
  if (++ws->generation == 0) {
    std::fill(ws->seen_gen.begin(), ws->seen_gen.end(), 0u);
    ws->generation = 1;
  }
  const uint32_t generation = ws->generation;
  uint32_t* seen_gen = ws->seen_gen.data();
  uint64_t* seen_bits = ws->seen_bits.data();

  ws->cursors.resize(kMaxChunk);
  if (ws->examined.size() < kMaxChunk) ws->examined.resize(kMaxChunk);
  if (ws->heaps.size() < kMaxChunk) {
    ws->heaps.resize(kMaxChunk, TopK<uint32_t>(1));
  }

  size_t active = 0;
  for (size_t q = 0; q < count; ++q) {
    Workspace::Cursor& cur = ws->cursors[q];
    cur = Workspace::Cursor{};
    cur.want = std::min(queries[q].n,
                        index_->ResultsPossible(queries[q].exclude_partner));
    cur.epsilon2 = 2.0f * ws->qq[q].epsilon;
    cur.c_weight = ws->qq[q].c_weight;
    cur.stop_bound = -std::numeric_limits<float>::infinity();
    cur.done = queries[q].n == 0 || cur.want == 0;
    ws->examined[q].clear();
    if (!cur.done) {
      ws->heaps[q].Reset(queries[q].n);
      ++active;
    }
  }

  size_t examined_total = 0;
  size_t sorted_accesses = 0;
  while (active > 0) {
    for (size_t q = 0; q < count; ++q) {
      Workspace::Cursor& cur = ws->cursors[q];
      if (cur.done) continue;
      const float* ec = event_comp + q * num_events;
      const float* pc = partner_comp + q * num_partners;
      ListOrder& event_order = ws->event_orders[q];
      ListOrder& partner_order = ws->partner_orders[q];
      TopK<uint32_t>& heap = ws->heaps[q];
      std::vector<uint32_t>& examined = ws->examined[q];
      const ebsn::UserId exclude = queries[q].exclude_partner;
      const uint64_t bit = 1ull << q;

      auto examine = [&](uint32_t id) {
        if (seen_gen[id] != generation) {
          seen_gen[id] = generation;
          seen_bits[id] = 0;
        }
        if (seen_bits[id] & bit) return;
        seen_bits[id] |= bit;
        ++examined_total;
        ++cur.examined;
        if (space_->pair(id).partner == exclude) return;
        examined.push_back(id);
        heap.Push(id, ec[pair_event_idx[id]] + pc[pair_partner_idx[id]] +
                          cur.c_weight * c_values[id]);
      };

      for (size_t step = 0; step < kWalkQuantum; ++step) {
        const bool a_live = cur.a_group < num_events;
        const bool b_live = cur.b_group < num_partners;
        const bool c_live = cur.c_cursor < num_points;
        const float ha =
            a_live ? ec[event_order.Group(cur.a_group)] : 0.0f;
        const float hb =
            b_live ? pc[partner_order.Group(cur.b_group)] : 0.0f;
        const float hc =
            c_live ? cur.c_weight * c_sorted_values[cur.c_cursor] : 0.0f;
        // Widened stop: only when the n-th best *approximate* score
        // clears the bound by 2*epsilon is the true top-n guaranteed
        // to be inside the examined set (DESIGN.md section 13).
        if (heap.size() >= cur.want &&
            heap.Threshold() >= ha + hb + hc + cur.epsilon2) {
          // An unexamined pair's TRUE score is at most its approximate
          // score (<= ha+hb+hc, list monotonicity) plus one epsilon.
          cur.stop_bound = ha + hb + hc + 0.5f * cur.epsilon2;
          cur.done = true;
          break;
        }
        if (!a_live && !b_live && !c_live) {
          cur.done = true;
          break;
        }
        ++sorted_accesses;
        ++cur.sorted_accesses;
        if (a_live && ha >= hb && ha >= hc) {
          const auto& pairs = event_pairs[event_order.Group(cur.a_group)];
          examine(pairs[cur.a_offset]);
          if (++cur.a_offset >= pairs.size()) {
            cur.a_offset = 0;
            ++cur.a_group;
          }
        } else if (b_live && hb >= hc) {
          const auto& pairs =
              partner_pairs[partner_order.Group(cur.b_group)];
          examine(pairs[cur.b_offset]);
          if (++cur.b_offset >= pairs.size()) {
            cur.b_offset = 0;
            ++cur.b_group;
          }
        } else if (c_live) {
          examine(c_sorted[cur.c_cursor]);
          ++cur.c_cursor;
        } else if (a_live) {
          const auto& pairs = event_pairs[event_order.Group(cur.a_group)];
          examine(pairs[cur.a_offset]);
          if (++cur.a_offset >= pairs.size()) {
            cur.a_offset = 0;
            ++cur.a_group;
          }
        } else {
          const auto& pairs =
              partner_pairs[partner_order.Group(cur.b_group)];
          examine(pairs[cur.b_offset]);
          if (++cur.b_offset >= pairs.size()) {
            cur.b_offset = 0;
            ++cur.b_group;
          }
        }
      }

      if (cur.done) {
        --active;
        // --- Stage 4: exact fp32 re-rank of this query's survivors.
        // The approximate heap has served its purpose (the stopping
        // rule); reuse it for the exact scores.
        Stopwatch rr;
        heap.Reset(std::max<size_t>(queries[q].n, 1));
        const float* query = queries[q].query;
        const size_t point_dim = space_->point_dim();
        for (uint32_t id : examined) {
          heap.Push(id, Dot(query, space_->Point(id), point_dim));
        }
        const auto& entries = heap.SortDescendingInPlace();
        std::vector<SearchHit>& out = results[q];
        out.reserve(entries.size());
        for (const auto& e : entries) {
          out.push_back(SearchHit{e.score, e.id, space_->pair(e.id)});
        }
        stats->reranked += examined.size();
        rerank_us += static_cast<uint64_t>(rr.ElapsedMicros());
        if (per_query_stats != nullptr) {
          SearchStats& qs = per_query_stats[q];
          qs.points_examined = cur.examined;
          qs.sorted_accesses = cur.sorted_accesses;
          qs.ta_depth = std::min(cur.a_group + 1, num_events) +
                        std::min(cur.b_group + 1, num_partners);
          qs.examined_fraction =
              static_cast<double>(cur.examined) /
              static_cast<double>(num_points);
          // Unreturned-score bound over TRUE scores: the widened-stop
          // threshold covers unexamined pairs; when the exact re-rank
          // filled all n slots, its n-th score covers examined pairs
          // that were evicted.
          qs.unreturned_bound = cur.stop_bound;
          if (!entries.empty() && entries.size() >= queries[q].n) {
            qs.unreturned_bound =
                std::max(qs.unreturned_bound, entries.back().score);
          }
        }
      }
    }
  }

  stats->points_examined += examined_total;
  stats->sorted_accesses += sorted_accesses;
  stats->rerank_us += rerank_us;
  const uint64_t total_us =
      static_cast<uint64_t>(total_timer.ElapsedMicros());
  stats->quantize_scan_us += total_us > rerank_us ? total_us - rerank_us : 0;
}

}  // namespace gemrec::recommend

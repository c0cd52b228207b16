// Pins the TaSearch zero-allocation contract: once a Scratch and an
// output vector are warm, SearchInto must not touch the heap. The same
// holds for BatchTaSearch (inside and past its streaming list prefix),
// and a warm ReciprocalScratch allocates only the returned vector. Lives in
// its own test binary because it replaces the global allocator — the
// counter would otherwise pick up unrelated gtest bookkeeping from
// neighboring suites.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "recommend/batch_ta_search.h"
#include "recommend/gem_model.h"
#include "recommend/list_order.h"
#include "recommend/quantized_space.h"
#include "recommend/query_kinds.h"
#include "recommend/space_transform.h"
#include "recommend/ta_search.h"

namespace {

std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gemrec::recommend {
namespace {

TEST(TaAllocTest, SteadyStateSearchIntoAllocatesNothing) {
  constexpr uint32_t kUsers = 25;
  constexpr uint32_t kEvents = 20;
  constexpr uint32_t kDim = 8;

  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
  Rng rng(17);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < kEvents; ++x) {
    for (uint32_t u = 0; u < kUsers; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  TaSearch ta(&space);

  // Pre-build every query so the measured loop constructs none.
  std::vector<std::vector<float>> queries(kUsers);
  for (uint32_t u = 0; u < kUsers; ++u) {
    space.QueryVector(model, u, &queries[u]);
  }

  TaSearch::Scratch scratch;
  std::vector<SearchHit> hits;
  SearchStats stats;
  // Warm-up: grows the scratch buffers and the output capacity.
  for (uint32_t u = 0; u < kUsers; ++u) {
    ta.SearchInto(queries[u], 10, u, &hits, &stats, &scratch);
  }

  const size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 50; ++round) {
    for (uint32_t u = 0; u < kUsers; ++u) {
      ta.SearchInto(queries[u], 10, u, &hits, &stats, &scratch);
      ASSERT_FALSE(hits.empty());
    }
  }
  const size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state SearchInto performed " << (after - before)
      << " heap allocations over 1250 queries";
}

/// Same contract for the quantized batch path: once the Workspace and
/// the result vectors are warm, SearchBatch must not touch the heap —
/// across both precisions, since they use different scratch buffers.
TEST(TaAllocTest, SteadyStateSearchBatchAllocatesNothing) {
  constexpr uint32_t kUsers = 25;
  constexpr uint32_t kEvents = 20;
  constexpr uint32_t kDim = 8;
  constexpr size_t kBatch = 25;

  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
  Rng rng(18);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < kEvents; ++x) {
    for (uint32_t u = 0; u < kUsers; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  SpaceIndex index(&space);

  std::vector<std::vector<float>> queries(kUsers);
  std::vector<BatchQuery> batch_queries(kBatch);
  for (uint32_t u = 0; u < kUsers; ++u) {
    space.QueryVector(model, u, &queries[u]);
    batch_queries[u] = BatchQuery{queries[u].data(), 10, u};
  }

  for (auto force : {QuantizedSpace::Options::Force::kInt8,
                     QuantizedSpace::Options::Force::kInt16}) {
    QuantizedSpace quant(&index, {force});
    BatchTaSearch batch(&quant);
    BatchTaSearch::Workspace ws;
    std::vector<std::vector<SearchHit>> results(kBatch);
    BatchSearchStats stats;
    // Warm-up: grows workspace buffers and result capacities.
    batch.SearchBatch(batch_queries.data(), kBatch, results.data(),
                      &stats, &ws);

    const size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 50; ++round) {
      batch.SearchBatch(batch_queries.data(), kBatch, results.data(),
                        &stats, &ws);
      ASSERT_FALSE(results[0].empty());
    }
    const size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state SearchBatch performed " << (after - before)
        << " heap allocations over 50 batches of " << kBatch;
  }
}

/// A space whose walks must leave the ListOrder prefix: more than
/// kPrefix partner groups, user rows well above event rows (so B heads
/// every list and the walks descend the partner list), and an n that
/// needs more than kPrefix partner groups' pairs.
struct PastPrefixSpace {
  static constexpr uint32_t kUsers = 3 * ListOrder::kPrefix;
  static constexpr uint32_t kEvents = 4;
  static constexpr uint32_t kDim = 8;
  static constexpr size_t kDeepN = ListOrder::kPrefix * kEvents + 10;

  PastPrefixSpace()
      : store(std::make_unique<embedding::EmbeddingStore>(
            kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1})) {
    Rng rng(19);
    store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 1.0, 0.3);
    store->MatrixOf(graph::NodeType::kEvent)
        .FillAbsGaussian(&rng, 0.05, 0.03);
    model = std::make_unique<GemModel>(store.get(), "GEM");
    std::vector<CandidatePair> pairs;
    for (uint32_t x = 0; x < kEvents; ++x) {
      for (uint32_t u = 0; u < kUsers; ++u) pairs.push_back({x, u});
    }
    space = std::make_unique<TransformedSpace>(*model, pairs);
  }

  std::unique_ptr<embedding::EmbeddingStore> store;
  std::unique_ptr<GemModel> model;
  std::unique_ptr<TransformedSpace> space;
};

TEST(TaAllocTest, SteadyStateSearchBatchPastPrefixAllocatesNothing) {
  PastPrefixSpace s;
  SpaceIndex index(s.space.get());
  constexpr size_t kBatch = 8;
  std::vector<std::vector<float>> queries(kBatch);
  std::vector<BatchQuery> batch_queries(kBatch);
  for (uint32_t u = 0; u < kBatch; ++u) {
    s.space->QueryVector(*s.model, u, &queries[u]);
    batch_queries[u] = BatchQuery{queries[u].data(), s.kDeepN, u};
  }

  for (auto force : {QuantizedSpace::Options::Force::kInt8,
                     QuantizedSpace::Options::Force::kInt16}) {
    QuantizedSpace quant(&index, {force});
    BatchTaSearch batch(&quant);
    BatchTaSearch::Workspace ws;
    std::vector<std::vector<SearchHit>> results(kBatch);
    std::vector<SearchStats> stats(kBatch);
    batch.SearchBatch(batch_queries.data(), kBatch, results.data(), nullptr,
                      &ws, stats.data());
    for (const SearchStats& st : stats) {
      ASSERT_GT(st.ta_depth, ListOrder::kPrefix + s.kEvents);
    }

    const size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 20; ++round) {
      batch.SearchBatch(batch_queries.data(), kBatch, results.data(),
                        nullptr, &ws, stats.data());
      ASSERT_EQ(results[0].size(), s.kDeepN);
    }
    const size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "past-prefix SearchBatch performed " << (after - before)
        << " heap allocations over 20 batches of " << kBatch;
  }
}

/// A warm ReciprocalScratch makes at most one allocation per call: the
/// vector ReciprocalSearch returns. Covers walks inside and past the
/// prefix.
TEST(TaAllocTest, WarmReciprocalSearchAllocatesOnlyItsResult) {
  PastPrefixSpace s;
  TaSearch ta(s.space.get());
  ReciprocalScratch scratch;
  for (size_t n : {size_t{10}, s.kDeepN}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    SearchStats stats;
    for (uint32_t u = 0; u < 25; ++u) {  // warm-up
      ReciprocalSearch(*s.model, ta, *s.space, u, n, &scratch, nullptr,
                       &stats);
    }
    if (n == s.kDeepN) {
      ASSERT_GT(stats.ta_depth, ListOrder::kPrefix + s.kEvents);
    }

    constexpr size_t kCalls = 250;
    const size_t before = g_allocations.load(std::memory_order_relaxed);
    for (size_t call = 0; call < kCalls; ++call) {
      const auto result =
          ReciprocalSearch(*s.model, ta, *s.space, call % 25, n, &scratch);
      ASSERT_EQ(result.size(), n);
    }
    const size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_LE(after - before, kCalls)
        << "warm ReciprocalSearch performed " << (after - before)
        << " heap allocations over " << kCalls << " calls";
  }
}

}  // namespace
}  // namespace gemrec::recommend

#include "recommend/list_order.h"

#include <algorithm>
#include <functional>

namespace gemrec::recommend {

void ListOrder::Reset(uint64_t* words, size_t size) {
  words_ = words;
  size_ = size;
  popped_ = 0;
  prefix_len_ = std::min(size, kPrefix);
  uint64_t* heap = prefix_.data();
  uint64_t* heap_end = heap + prefix_len_;
  const std::greater<uint64_t> min_first;
  std::copy(words, words + prefix_len_, heap);
  std::make_heap(heap, heap_end, min_first);
  // Min-heap of the best words so far: after the first few hundred
  // entries a replacement is rare, so the pass is one compare per word.
  uint64_t floor = prefix_len_ > 0 ? heap[0] : 0;
  for (size_t i = prefix_len_; i < size; ++i) {
    if (words[i] <= floor) continue;
    std::pop_heap(heap, heap_end, min_first);
    heap_end[-1] = words[i];
    std::push_heap(heap, heap_end, min_first);
    floor = heap[0];
  }
  std::sort_heap(heap, heap_end, min_first);  // descending
}

uint32_t ListOrder::Deep(size_t i) {
  // pop_heap moves each successive max to the array's back, so the
  // descending sequence is read back-to-front. Its first kPrefix pops
  // repeat the prefix; re-popping them is cheaper than partitioning
  // them out.
  if (popped_ == 0) std::make_heap(words_, words_ + size_);
  while (popped_ <= i) {
    std::pop_heap(words_, words_ + size_ - popped_);
    ++popped_;
  }
  return static_cast<uint32_t>(words_[size_ - 1 - i]);
}

}  // namespace gemrec::recommend

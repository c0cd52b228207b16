#ifndef GEMREC_RECOMMEND_LIST_ORDER_H_
#define GEMREC_RECOMMEND_LIST_ORDER_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace gemrec::recommend {

/// Descending order of one query-time TA list (the A event groups or
/// the B partner groups), materialized only as deep as the walk reads.
///
/// Entries are packed (key << 32 | group) words whose key is monotone
/// in the group's component, so descending word order is descending
/// component order, and the group id in the low half makes every word
/// unique. Reset keeps the best kPrefix words in a small min-heap over
/// one pass of the list and sorts them: TA typically stops within a few
/// dozen positions, so that prefix is all most walks read. A walk that
/// reads past it max-heapifies the whole word array in place and pops
/// on demand. Words are unique, so both stages yield the same order and
/// a walk's examined set and stats do not depend on where the prefix
/// ends.
class ListOrder {
 public:
  /// Positions selected up front by Reset.
  static constexpr size_t kPrefix = 64;

  /// Starts a new order over words[0, size). The caller must keep the
  /// array alive and unmodified until the next Reset: a walk past the
  /// prefix reorders it in place.
  void Reset(uint64_t* words, size_t size);

  /// Group id at descending position i (i < size).
  uint32_t Group(size_t i) {
    // i < kPrefix is implied; spelled out so constant positions past
    // the array do not trip -Warray-bounds.
    if (i < prefix_len_ && i < kPrefix) {
      return static_cast<uint32_t>(prefix_[i]);
    }
    return Deep(i);
  }

 private:
  uint32_t Deep(size_t i);

  uint64_t* words_ = nullptr;
  size_t size_ = 0;
  size_t prefix_len_ = 0;
  /// Words popped off the full heap so far; 0 until a walk first reads
  /// past the prefix.
  size_t popped_ = 0;
  std::array<uint64_t, kPrefix> prefix_{};
};

/// Order-preserving map of a float onto uint32 (IEEE sign-magnitude to
/// unsigned): a < b implies FloatOrderKey(a) < FloatOrderKey(b).
inline uint32_t FloatOrderKey(float value) {
  const uint32_t bits = std::bit_cast<uint32_t>(value);
  return (bits & 0x80000000u) != 0 ? ~bits : (bits | 0x80000000u);
}

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_LIST_ORDER_H_

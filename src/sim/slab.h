// Generation-counted slab: run-scoped slots addressed by {index, gen} handles.
//
// The simulator's settle-once races (a response vs. its deadline, a periodic
// tick vs. its cancel, a continuation vs. the crash that freed its visit)
// all follow one rule: whoever settles frees the slot, and freeing bumps the
// slot's generation, so every other handle to it goes stale and get()
// returns nullptr for it. Slots live in one vector threaded by a LIFO free
// list, so once the slab has grown to the working set alloc/free never touch
// the heap, and a free followed by an alloc hands back the same slot under a
// new generation.
//
// free() leaves the value as it is (resetting a whole T on every free is a
// measurable cost on the request path): callers release what a slot owns (a
// request, a captured callable) before freeing it, and set every field they
// read after alloc(). Pointers from get() are invalidated by alloc() (vector
// growth): refetch after any call that can allocate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace dcm::sim {

template <typename T>
class Slab {
 public:
  /// 8-byte ticket to one slot. Stale once that slot is freed.
  struct Handle {
    uint32_t index = 0;
    uint32_t gen = 0;
  };

  /// Takes the most recently freed slot (or grows the slab). Its value is
  /// what the slot's previous occupant left, or a default T in a new slot.
  Handle alloc() {
    uint32_t index = free_head_;
    if (index != kNil) {
      free_head_ = slots_[index].next_free;
    } else {
      DCM_CHECK_MSG(slots_.size() < kNil, "slab exhausted");
      index = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.live = true;
    return {index, slot.gen};
  }

  /// Frees a live handle's slot: every outstanding handle to it goes stale.
  void free(Handle h) {
    Slot& slot = slots_[h.index];
    DCM_DCHECK(slot.live && slot.gen == h.gen);
    slot.live = false;
    ++slot.gen;
    slot.next_free = free_head_;
    free_head_ = h.index;
  }

  /// The slot's value, or nullptr if `h` is stale.
  T* get(Handle h) {
    DCM_DCHECK(h.index < slots_.size());  // handles come from this slab's alloc()
    Slot& slot = slots_[h.index];
    return (slot.live && slot.gen == h.gen) ? &slot.value : nullptr;
  }

  /// Calls fn(handle, value) for every live slot, in index order.
  template <typename Fn>
  void for_each_live(Fn&& fn) {
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].live) fn(Handle{i, slots_[i].gen}, slots_[i].value);
    }
  }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Slot {
    T value{};
    uint32_t gen = 0;
    uint32_t next_free = kNil;
    bool live = false;
  };

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;
};

}  // namespace dcm::sim

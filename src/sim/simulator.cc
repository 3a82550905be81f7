#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace nw::sim {

namespace {

// True if a sorts after b in (time, gen, seq, src) order.
template <typename Key>
bool Later(const Key& a, const Key& b) noexcept {
  if (a.time != b.time) return a.time > b.time;
  if (a.gen != b.gen) return a.gen > b.gen;
  if (a.seq != b.seq) return a.seq > b.seq;
  return a.src > b.src;
}

// The heap is 4-ary: half the depth of a binary heap, and a node's
// children share cache lines.
constexpr std::size_t kArity = 4;

// Moves `key` from position i towards the leaves to its place.
template <typename Key>
void SiftDown(std::vector<Key>& heap, std::size_t i, const Key& key) {
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (Later(heap[best], heap[c])) best = c;
    }
    if (!Later(key, heap[best])) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = key;
}

}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

EventId Simulator::Push(std::uint32_t owner, Time t, std::function<void()> fn,
                        std::uint32_t guard_node,
                        std::uint32_t guard_incarnation) {
  assert(t >= now_);
  Key key;
  key.time = t;
  if (exec_.active) {
    key.src = exec_.owner;
    key.gen = (t == now_) ? exec_.gen + 1 : 0;
  }
  if (key.src == kGlobalContext) {
    key.seq = global_seq_++;
  } else {
    assert(key.src < ctx_seq_.size());
    key.seq = ctx_seq_[key.src]++;
  }
  if (free_slots_.empty()) {
    key.slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    key.slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[key.slot];
  slot.fn = std::move(fn);
  slot.owner = owner;
  slot.guard_node = guard_node;
  slot.guard_incarnation = guard_incarnation;
  slot.cancelled = false;
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!Later(heap_[parent], key)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  ++live_;
  return {key.slot, slot.generation};
}

Simulator::Key Simulator::PopKey() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(heap_, 0, last);
  return top;
}

void Simulator::ReleaseSlot(std::uint32_t slot) {
  ++slots_[slot].generation;  // stale handles now miss
  free_slots_.push_back(slot);
}

bool Simulator::Cancel(EventId id) {
  if (id.slot >= slots_.size()) return false;
  Slot& slot = slots_[id.slot];
  if (slot.generation != id.generation || slot.cancelled) return false;
  slot.cancelled = true;
  slot.fn = nullptr;
  --live_;
  // Retire cancelled keys in bulk once they are half the heap: popping
  // them one by one costs a sift each, and they crowd the live keys.
  if (heap_.size() - live_ > live_) Compact();
  return true;
}

void Simulator::Compact() {
  std::erase_if(heap_, [this](const Key& key) {
    if (!slots_[key.slot].cancelled) return false;
    ReleaseSlot(key.slot);
    return true;
  });
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
    SiftDown(heap_, i, Key(heap_[i]));
  }
}

EventId Simulator::At(Time t, std::function<void()> fn) {
  return Push(exec_.owner, t, std::move(fn));
}

EventId Simulator::After(Time delay, std::function<void()> fn) {
  assert(delay >= 0);
  return At(now_ + delay, std::move(fn));
}

EventId Simulator::AtNode(std::uint32_t owner, Time t,
                          std::function<void()> fn) {
  assert(owner == kGlobalContext || owner < ctx_seq_.size());
  return Push(owner, t, std::move(fn));
}

EventId Simulator::AfterGuarded(Time delay, std::uint32_t node,
                                std::uint32_t incarnation,
                                std::function<void()> fn) {
  assert(delay >= 0);
  assert(guard_ != nullptr);
  return Push(exec_.owner, now_ + delay, std::move(fn), node, incarnation);
}

void Simulator::EnsureContexts(std::uint32_t count) {
  if (count > ctx_seq_.size()) ctx_seq_.resize(count, 0);
}

bool Simulator::RunKey(const Key& key) {
  Slot& slot = slots_[key.slot];
  if (slot.cancelled) {
    ReleaseSlot(key.slot);
    return false;
  }
  // Take the callback out first: it may schedule events, which can grow
  // the slab, and its slot is free for reuse while it runs.
  std::function<void()> fn;
  fn.swap(slot.fn);
  const std::uint32_t owner = slot.owner;
  const bool runs = slot.guard_node == kUnguarded ||
                    guard_->TimerLive(slot.guard_node, slot.guard_incarnation);
  ReleaseSlot(key.slot);
  --live_;

  assert(key.time >= now_);
  now_ = key.time;
  const ExecContext saved = exec_;
  exec_ = {true, owner, key.gen};
  if (runs) fn();
  exec_ = saved;
  return true;
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    if (RunKey(PopKey())) return true;
  }
  return false;
}

void Simulator::RunUntil(Time t) {
  while (!heap_.empty() && heap_.front().time <= t) RunKey(PopKey());
  if (now_ < t) now_ = t;
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
}

}  // namespace nw::sim

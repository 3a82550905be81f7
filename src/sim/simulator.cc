#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace nw::sim {

namespace {

// min-heap comparator: a sorts after b in (time, gen, seq, src) order.
constexpr auto kHeapLater = [](const auto& a, const auto& b) noexcept {
  if (a.time != b.time) return a.time > b.time;
  if (a.gen != b.gen) return a.gen > b.gen;
  if (a.seq != b.seq) return a.seq > b.seq;
  return a.src > b.src;
};

}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

void Simulator::Push(std::uint32_t owner, Time t, std::function<void()> fn) {
  assert(t >= now_);
  Event e;
  e.time = t;
  e.owner = owner;
  e.fn = std::move(fn);
  if (exec_.active) {
    e.src = exec_.owner;
    e.gen = (t == now_) ? exec_.gen + 1 : 0;
  }
  if (e.src == kGlobalContext) {
    e.seq = global_seq_++;
  } else {
    assert(e.src < ctx_seq_.size());
    e.seq = ctx_seq_[e.src]++;
  }
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), kHeapLater);
}

Simulator::Event Simulator::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), kHeapLater);
  Event e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

void Simulator::At(Time t, std::function<void()> fn) {
  Push(exec_.owner, t, std::move(fn));
}

void Simulator::After(Time delay, std::function<void()> fn) {
  assert(delay >= 0);
  At(now_ + delay, std::move(fn));
}

void Simulator::AtNode(std::uint32_t owner, Time t, std::function<void()> fn) {
  assert(owner == kGlobalContext || owner < ctx_seq_.size());
  Push(owner, t, std::move(fn));
}

void Simulator::EnsureContexts(std::uint32_t count) {
  if (count > ctx_seq_.size()) ctx_seq_.resize(count, 0);
}

void Simulator::Exec(Event e) {
  assert(e.time >= now_);
  now_ = e.time;
  const ExecContext saved = exec_;
  exec_ = {true, e.owner, e.gen};
  e.fn();
  exec_ = saved;
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  Exec(Pop());
  return true;
}

void Simulator::RunUntil(Time t) {
  while (!heap_.empty() && heap_.front().time <= t) Exec(Pop());
  if (now_ < t) now_ = t;
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
}

}  // namespace nw::sim

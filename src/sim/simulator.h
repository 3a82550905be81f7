// Deterministic discrete-event simulator core: a clock and one event heap
// (DESIGN.md §9).
//
// Every event carries an ordering key (time, gen, seq, src):
//   time  simulated seconds of the event
//   src   the execution context that *scheduled* it: the node whose event
//         was running at scheduling time, or kGlobalContext for harness /
//         fault-plan / setup code
//   seq   a per-src monotone counter, advanced only by that context's own
//         execution
//   gen   same-time generation: events scheduled at exactly the executing
//         event's time sort one generation later
//
// The heap pops in lexicographic key order. The committed golden trace and
// delivery digests encode that order, so it is part of the simulator's
// contract, not an implementation detail.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.h"

namespace nw::sim {

using Time = double;  // seconds of simulated time

// Execution-context id used for events scheduled outside any node's event
// (test harness, fault plans, workload generators, setup code).
inline constexpr std::uint32_t kGlobalContext = 0xffffffffu;

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time. Inside an event this is the event's time.
  Time Now() const noexcept { return now_; }

  // Schedules fn at absolute time t (>= Now()) in the scheduling context:
  // a node's timer stays with that node, harness code schedules global
  // events.
  void At(Time t, std::function<void()> fn);

  // Schedules fn after a relative delay (>= 0).
  void After(Time delay, std::function<void()> fn);

  // Schedules fn at absolute time t to execute in `owner`'s context. Used
  // by the network for deliveries addressed to `owner`.
  void AtNode(std::uint32_t owner, Time t, std::function<void()> fn);

  // Pre-sizes the per-context sequence counters; every node id used with
  // AtNode or as a scheduling context must be registered (Network::AddNode
  // does this). Setup-time only.
  void EnsureContexts(std::uint32_t count);

  // ---- run loop ----------------------------------------------------------
  // Runs events until the queue empties or the clock would pass `t`
  // (events at exactly t fire); afterwards Now() == t unless the queue
  // drained later than t.
  void RunUntil(Time t);

  // Runs until no events remain. Only safe when no recurring timers exist.
  void RunUntilIdle();

  // Executes the single earliest event. Returns false if none remain.
  bool Step();

  std::size_t PendingEvents() const noexcept { return heap_.size(); }

  util::DeterministicRng& Rng() noexcept { return rng_; }

 private:
  struct Event {
    Time time = 0;
    std::uint32_t gen = 0;
    std::uint64_t seq = 0;
    std::uint32_t src = kGlobalContext;
    std::uint32_t owner = kGlobalContext;
    std::function<void()> fn;
  };

  void Push(std::uint32_t owner, Time t, std::function<void()> fn);
  Event Pop();
  void Exec(Event e);

  Time now_ = 0;
  util::DeterministicRng rng_;
  std::uint64_t global_seq_ = 0;
  std::vector<std::uint64_t> ctx_seq_;  // per-node scheduling counters
  std::vector<Event> heap_;  // binary min-heap by (time, gen, seq, src)

  // The executing event's context and generation; outside any event the
  // context is global and `active` is false.
  struct ExecContext {
    bool active = false;
    std::uint32_t owner = kGlobalContext;
    std::uint32_t gen = 0;
  };
  ExecContext exec_;
};

}  // namespace nw::sim

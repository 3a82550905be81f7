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
//
// The heap holds plain keys; each key names a slot in a callback slab.
// Scheduling returns an EventId (slot + generation), and Cancel drops the
// callback at once. A cancelled event keeps the seq it took when it was
// scheduled, so the keys of every other event are unchanged, and it never
// runs: Step and RunUntil skip it and PendingEvents does not count it.
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

// Handle to a scheduled event. The slot's generation advances when the
// event runs or its cancellation is retired, so a handle outliving its
// event never reaches the slot's next occupant. Default: names nothing.
struct EventId {
  std::uint32_t slot = 0xffffffffu;
  std::uint32_t generation = 0;
};

// Decides whether a guarded node timer may still run: the node is alive
// and has not been killed or restarted since the timer was set. The
// network implements it from its liveness and incarnation tables.
class TimerGuard {
 public:
  virtual bool TimerLive(std::uint32_t node,
                         std::uint32_t incarnation) const = 0;

 protected:
  ~TimerGuard() = default;
};

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
  EventId At(Time t, std::function<void()> fn);

  // Schedules fn after a relative delay (>= 0).
  EventId After(Time delay, std::function<void()> fn);

  // Schedules fn at absolute time t to execute in `owner`'s context. Used
  // by the network for deliveries addressed to `owner`.
  EventId AtNode(std::uint32_t owner, Time t, std::function<void()> fn);

  // After(), but fn is skipped (the event still runs, doing nothing) unless
  // the timer guard reports `node` alive in `incarnation` at that time.
  EventId AfterGuarded(Time delay, std::uint32_t node,
                       std::uint32_t incarnation, std::function<void()> fn);
  // The guard consulted by AfterGuarded events; set once by the network.
  void SetTimerGuard(const TimerGuard* guard) noexcept { guard_ = guard; }

  // Drops a pending event's callback. Returns false (and does nothing) if
  // the event already ran, was already cancelled, or `id` names nothing.
  bool Cancel(EventId id);

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

  // Scheduled events that have neither run nor been cancelled.
  std::size_t PendingEvents() const noexcept { return live_; }

  util::DeterministicRng& Rng() noexcept { return rng_; }

 private:
  static constexpr std::uint32_t kUnguarded = 0xffffffffu;

  struct Key {
    Time time = 0;
    std::uint32_t gen = 0;
    std::uint32_t src = kGlobalContext;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Slot {
    std::function<void()> fn;  // empty once cancelled
    std::uint32_t generation = 0;
    std::uint32_t owner = kGlobalContext;
    std::uint32_t guard_node = kUnguarded;
    std::uint32_t guard_incarnation = 0;
    bool cancelled = false;
  };

  EventId Push(std::uint32_t owner, Time t, std::function<void()> fn,
               std::uint32_t guard_node = kUnguarded,
               std::uint32_t guard_incarnation = 0);
  Key PopKey();
  // Runs the popped key's event, or retires it if cancelled. Returns true
  // if an event ran.
  bool RunKey(const Key& key);
  void ReleaseSlot(std::uint32_t slot);
  // Drops every cancelled key from the heap at once. Keys are unique, so
  // the order of the rest is unchanged.
  void Compact();

  Time now_ = 0;
  util::DeterministicRng rng_;
  std::uint64_t global_seq_ = 0;
  std::vector<std::uint64_t> ctx_seq_;  // per-node scheduling counters
  std::vector<Key> heap_;  // binary min-heap by (time, gen, seq, src)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;  // heap keys whose event is not cancelled
  const TimerGuard* guard_ = nullptr;

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

// Reliable hop-by-hop forwarding primitives (paper §5, §9 robustness).
//
// The multicast relay is only as reliable as its weakest hop: a forward to
// a crashed or partitioned representative silently loses the item for that
// whole subtree until subscriber-level anti-entropy repairs it seconds
// later. This header holds the small, independently testable pieces of the
// reliable relay: the retransmission backoff schedule and the
// per-peer suspicion cache (a negative cache with TTL that steers new
// sends away from peers that recently timed out). The forwarding component
// itself (MulticastService) wires them into the mc.rfwd/mc.ack exchange —
// see PROTOCOLS.md "Reliable forwarding".
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "sim/message.h"
#include "util/rng.h"

namespace nw::multicast {

// Knobs of the reliable relay. Defaults are tuned for the
// simulated WAN (30 ms one-way latency): the first retransmission fires
// after ~8 RTTs, well clear of jitter, and the whole schedule caps far
// below the subscriber repair interval so hop-level recovery always beats
// the repair path.
struct ReliableConfig {
  double ack_timeout = 0.25;  // initial retransmission timeout (seconds)
  double backoff_cap = 2.0;   // ceiling on the (pre-jitter) delay
  double jitter_frac = 0.2;   // uniform jitter: delay * (1 ± jitter_frac)
  // Total time a hop keeps being retried (across failovers) before the
  // item is abandoned to the repair layer. Must exceed the longest
  // crash/partition window the deployment is expected to ride out.
  double give_up_after = 60.0;
  double suspicion_ttl = 10.0;     // negative-cache TTL for kDead (seconds)
  // Slow strikes before a peer escalates to kDead.
  int escalate_strikes = 3;
  // Bound on unacked hops per node. A relay sent while it is reached goes
  // out unacknowledged, so 0 = fire-and-forget: every relay is one plain
  // mc.fwd, its loss left to redundancy and the subscriber repair layer.
  std::size_t max_pending = 8192;
};

// The retransmission schedule: exponential backoff with a cap and
// symmetric uniform jitter. Pure apart from the injected rng, so tests can
// assert the schedule deterministically.
class BackoffPolicy {
 public:
  explicit BackoffPolicy(const ReliableConfig& config) : config_(config) {}

  // Pre-jitter delay before the `attempt`-th retransmission (attempt >= 1):
  // min(ack_timeout * 2^(attempt-1), cap).
  double BaseDelay(int attempt) const;

  // BaseDelay with jitter applied: uniform in [base*(1-j), base*(1+j)].
  double DelayFor(int attempt, util::DeterministicRng& rng) const;

 private:
  ReliableConfig config_;
};

// Two-level suspicion of a peer (DESIGN.md §10): a hop that fails over
// after repeated ack timeouts is evidence of *slowness*, not death — gray
// nodes answer eventually. kSlow quarantines briefly and re-admits with
// backoff (the quarantine doubles per strike); only accumulated strikes or
// a full give-up escalate to kDead, which quarantines for the long TTL.
enum class SuspicionLevel { kNone, kSlow, kDead };

// Negative cache of suspected peers. A peer enters when a forward to it
// times out repeatedly and leaves either when its quarantine expires (it
// is then retried; another failure re-enters it with a longer sentence)
// or when any message from it proves it alive. Representative choice
// consults the cache so fresh sends prefer unsuspected peers, then
// suspected-slow ones, and avoid suspected-dead ones entirely.
class SuspicionCache {
 public:
  // `slow_ttl` <= 0 defaults to ttl / 4.
  explicit SuspicionCache(double ttl, double slow_ttl = 0,
                          int escalate_strikes = 3);

  // Suspected-dead (legacy single-level entry point): quarantine for the
  // full TTL. Returns true if the peer was not under suspicion before.
  bool Suspect(sim::NodeId peer, double now);
  // Suspected-slow: short quarantine, doubling per strike up to the dead
  // TTL; `escalate_strikes` strikes escalate to kDead. Returns true if the
  // peer was not under suspicion before.
  bool SuspectSlow(sim::NodeId peer, double now);
  // Liveness proof (an ack or any inbound message): drop the suspicion
  // and reset the strike count.
  void Clear(sim::NodeId peer);
  SuspicionLevel LevelOf(sim::NodeId peer, double now) const;
  // Any active suspicion (kSlow or kDead).
  bool IsSuspected(sim::NodeId peer, double now) const {
    return LevelOf(peer, now) != SuspicionLevel::kNone;
  }
  // Live (unexpired) entries; also prunes expired ones (which forgets
  // their strikes — a peer that behaves through a full prune cycle has
  // earned its clean slate).
  std::size_t LiveCount(double now);
  // No entries at all, expired or not: nobody can be suspected.
  bool empty() const noexcept { return entries_.empty(); }
  double ttl() const noexcept { return ttl_; }
  double slow_ttl() const noexcept { return slow_ttl_; }
  int StrikesOf(sim::NodeId peer) const;

 private:
  struct Entry {
    SuspicionLevel level = SuspicionLevel::kNone;
    double until = 0;  // quarantine expiry time
    int strikes = 0;   // slow strikes accumulated (drives the backoff)
  };

  double ttl_;
  double slow_ttl_;
  int escalate_strikes_;
  std::map<sim::NodeId, Entry> entries_;
};

}  // namespace nw::multicast

// Tests for the reliable hop-by-hop forwarding layer: backoff schedule,
// suspicion cache, ack/retransmit behavior, representative failover, and
// recovery of pending hops across peer restarts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "astrolabe/deployment.h"
#include "multicast/multicast.h"
#include "multicast/reliable.h"
#include "util/rng.h"

namespace nw::multicast {
namespace {

using astrolabe::Deployment;
using astrolabe::DeploymentConfig;
using astrolabe::ZonePath;

// ---- BackoffPolicy -----------------------------------------------------

TEST(BackoffPolicy, BaseDelayDoublesUpToCap) {
  ReliableConfig cfg;
  cfg.ack_timeout = 0.25;
  cfg.backoff_cap = 2.0;
  BackoffPolicy policy(cfg);
  EXPECT_DOUBLE_EQ(policy.BaseDelay(1), 0.25);
  EXPECT_DOUBLE_EQ(policy.BaseDelay(2), 0.5);
  EXPECT_DOUBLE_EQ(policy.BaseDelay(3), 1.0);
  EXPECT_DOUBLE_EQ(policy.BaseDelay(4), 2.0);
  EXPECT_DOUBLE_EQ(policy.BaseDelay(5), 2.0);   // capped
  EXPECT_DOUBLE_EQ(policy.BaseDelay(50), 2.0);  // stays capped forever
}

TEST(BackoffPolicy, JitterStaysWithinConfiguredBand) {
  ReliableConfig cfg;
  cfg.ack_timeout = 0.25;
  cfg.jitter_frac = 0.2;
  BackoffPolicy policy(cfg);
  util::DeterministicRng rng(7);
  double lo = 1e9, hi = 0;
  for (int i = 0; i < 1000; ++i) {
    const double d = policy.DelayFor(1, rng);
    EXPECT_GE(d, 0.25 * 0.8 - 1e-12);
    EXPECT_LE(d, 0.25 * 1.2 + 1e-12);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  // The jitter actually spreads the delays rather than collapsing to one
  // value (retransmissions from many nodes must not synchronize).
  EXPECT_LT(lo, 0.25 * 0.85);
  EXPECT_GT(hi, 0.25 * 1.15);
}

TEST(BackoffPolicy, ZeroJitterIsDeterministic) {
  ReliableConfig cfg;
  cfg.ack_timeout = 0.5;
  cfg.jitter_frac = 0.0;
  BackoffPolicy policy(cfg);
  util::DeterministicRng rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(policy.DelayFor(1, rng), 0.5);
  }
}

// ---- SuspicionCache ----------------------------------------------------

TEST(SuspicionCache, SuspicionExpiresAfterTtl) {
  SuspicionCache cache(10.0);
  cache.Suspect(3, /*now=*/100.0);
  EXPECT_TRUE(cache.IsSuspected(3, 100.0));
  EXPECT_TRUE(cache.IsSuspected(3, 109.9));
  EXPECT_FALSE(cache.IsSuspected(3, 110.0));
  EXPECT_FALSE(cache.IsSuspected(4, 100.0));  // never suspected
}

TEST(SuspicionCache, ReSuspectExtendsButNeverShortens) {
  SuspicionCache cache(10.0);
  cache.Suspect(3, 100.0);  // until 110
  cache.Suspect(3, 105.0);  // until 115
  EXPECT_TRUE(cache.IsSuspected(3, 114.0));
  cache.Suspect(3, 90.0);  // stale evidence must not shorten the sentence
  EXPECT_TRUE(cache.IsSuspected(3, 114.0));
}

TEST(SuspicionCache, ClearOnLivenessProof) {
  SuspicionCache cache(10.0);
  cache.Suspect(3, 100.0);
  cache.Clear(3);
  EXPECT_FALSE(cache.IsSuspected(3, 100.0));
}

TEST(SuspicionCache, LiveCountPrunesExpiredEntries) {
  SuspicionCache cache(10.0);
  cache.Suspect(1, 100.0);
  cache.Suspect(2, 104.0);
  EXPECT_EQ(cache.LiveCount(105.0), 2u);
  EXPECT_EQ(cache.LiveCount(112.0), 1u);  // peer 1 expired and was pruned
  EXPECT_EQ(cache.LiveCount(120.0), 0u);
}

// ---- two-level suspicion (DESIGN.md §10) --------------------------------

TEST(SuspicionCache, LegacySuspectIsDeadLevel) {
  SuspicionCache cache(10.0);
  cache.Suspect(3, 100.0);
  EXPECT_EQ(cache.LevelOf(3, 100.0), SuspicionLevel::kDead);
  EXPECT_EQ(cache.LevelOf(3, 110.0), SuspicionLevel::kNone);
}

TEST(SuspicionCache, SlowSuspicionReadmitsAfterAShortQuarantine) {
  SuspicionCache cache(10.0);  // slow TTL defaults to ttl/4 = 2.5
  EXPECT_TRUE(cache.SuspectSlow(3, 100.0));
  EXPECT_EQ(cache.LevelOf(3, 100.0), SuspicionLevel::kSlow);
  EXPECT_TRUE(cache.IsSuspected(3, 102.4));
  // Re-admitted long before a dead suspicion would have expired: the gray
  // peer gets another chance instead of a 10 s sentence.
  EXPECT_FALSE(cache.IsSuspected(3, 102.5));
  EXPECT_EQ(cache.LevelOf(3, 102.5), SuspicionLevel::kNone);
}

TEST(SuspicionCache, RepeatSlowStrikesBackOffThenEscalateToDead) {
  SuspicionCache cache(10.0, /*slow_ttl=*/2.0, /*escalate_strikes=*/3);
  EXPECT_TRUE(cache.SuspectSlow(3, 100.0));   // strike 1: quarantine 2 s
  EXPECT_FALSE(cache.IsSuspected(3, 102.5));  // re-admitted
  EXPECT_TRUE(cache.SuspectSlow(3, 103.0));   // strike 2: quarantine 4 s
  EXPECT_EQ(cache.LevelOf(3, 103.0), SuspicionLevel::kSlow);
  EXPECT_TRUE(cache.IsSuspected(3, 106.9));
  EXPECT_FALSE(cache.IsSuspected(3, 107.0));
  EXPECT_EQ(cache.StrikesOf(3), 2);
  // Third strike: the peer has been retried and failed repeatedly — now
  // it is treated like a crashed one for the full TTL.
  EXPECT_TRUE(cache.SuspectSlow(3, 108.0));
  EXPECT_EQ(cache.LevelOf(3, 108.0), SuspicionLevel::kDead);
  EXPECT_TRUE(cache.IsSuspected(3, 117.9));
  EXPECT_FALSE(cache.IsSuspected(3, 118.0));
}

TEST(SuspicionCache, SlowQuarantineIsCappedAtTheDeadTtl) {
  SuspicionCache cache(10.0, /*slow_ttl=*/4.0, /*escalate_strikes=*/100);
  cache.SuspectSlow(3, 100.0);  // 4 s
  cache.SuspectSlow(3, 105.0);  // 8 s
  cache.SuspectSlow(3, 114.0);  // 16 s would exceed ttl: capped at 10 s
  EXPECT_EQ(cache.LevelOf(3, 114.0), SuspicionLevel::kSlow);
  EXPECT_TRUE(cache.IsSuspected(3, 123.9));
  EXPECT_FALSE(cache.IsSuspected(3, 124.0));
}

TEST(SuspicionCache, ClearResetsStrikesForAFreshStart) {
  SuspicionCache cache(10.0, /*slow_ttl=*/2.0, /*escalate_strikes=*/3);
  cache.SuspectSlow(3, 100.0);
  cache.SuspectSlow(3, 103.0);
  cache.Clear(3);  // liveness proof
  EXPECT_EQ(cache.StrikesOf(3), 0);
  // The next failure starts the ladder from the bottom again.
  EXPECT_TRUE(cache.SuspectSlow(3, 110.0));
  EXPECT_EQ(cache.LevelOf(3, 110.0), SuspicionLevel::kSlow);
  EXPECT_FALSE(cache.IsSuspected(3, 112.0));
}

TEST(SuspicionCache, SuspectSlowReturnsWhetherPeerWasNewlyQuarantined) {
  SuspicionCache cache(10.0, /*slow_ttl=*/2.0, /*escalate_strikes=*/10);
  EXPECT_TRUE(cache.SuspectSlow(3, 100.0));
  EXPECT_FALSE(cache.SuspectSlow(3, 101.0));  // already quarantined
  EXPECT_TRUE(cache.SuspectSlow(3, 110.0));   // re-entry after expiry
}

// ---- integration -------------------------------------------------------

class ReliableEnv {
 public:
  ReliableEnv(std::size_t n, std::size_t branching, MulticastConfig mc = {},
              sim::NetworkConfig net = {}, std::uint64_t seed = 1)
      : dep_(n, [&] {
          DeploymentConfig cfg;
          cfg.branching = branching;
          cfg.net = net;
          cfg.seed = seed;
          return cfg;
        }()) {
    for (std::size_t i = 0; i < dep_.size(); ++i) {
      services_.push_back(
          std::make_unique<MulticastService>(dep_.agent(i), mc));
      services_.back()->SetDeliveryCallback(
          [this, i](const Envelope& hop) {
            deliveries_[i].push_back(hop.item->id);
          });
      deliveries_.emplace_back();
    }
    deliveries_.resize(dep_.size());
    dep_.WarmStart();
  }

  Deployment& dep() { return dep_; }
  MulticastService& svc(std::size_t i) { return *services_[i]; }
  const std::vector<std::string>& delivered(std::size_t i) const {
    return deliveries_[i];
  }
  std::size_t TotalDeliveries() const {
    std::size_t n = 0;
    for (const auto& d : deliveries_) n += d.size();
    return n;
  }
  MulticastStats Totals() const {
    MulticastStats t;
    for (const auto& s : services_) {
      t.retransmits += s->stats().retransmits;
      t.failovers += s->stats().failovers;
      t.acks_received += s->stats().acks_received;
      t.abandoned += s->stats().abandoned;
      t.pending_overflow += s->stats().pending_overflow;
      t.duplicates += s->stats().duplicates;
    }
    return t;
  }
  std::size_t TotalPending() {
    std::size_t n = 0;
    for (const auto& s : services_) n += s->pending_hops();
    return n;
  }

  Item MakeItem(const std::string& id, std::size_t body = 256) {
    Item item;
    item.id = id;
    item.body_bytes = body;
    item.published_at = dep_.sim().Now();
    return item;
  }

 private:
  Deployment dep_;
  std::vector<std::unique_ptr<MulticastService>> services_;
  std::vector<std::vector<std::string>> deliveries_;
};

TEST(ReliableForwarding, FaultFreeRunAcksEverythingNoRetransmits) {
  ReliableEnv env(16, 4);
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(30);
  EXPECT_EQ(env.TotalDeliveries(), 16u);
  const MulticastStats t = env.Totals();
  EXPECT_GT(t.acks_received, 0u);
  EXPECT_EQ(t.retransmits, 0u);  // every ack arrived before its timer
  EXPECT_EQ(t.failovers, 0u);
  EXPECT_EQ(env.TotalPending(), 0u);  // all timers canceled by acks
}

TEST(ReliableForwarding, AcksCancelEveryRetransmitTimer) {
  ReliableEnv env(27, 3);  // three zone levels
  sim::Simulator& sim = env.dep().sim();
  const std::size_t idle = sim.PendingEvents();  // recurring timers only
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  ASSERT_GT(env.TotalPending(), 0u);
  while (env.TotalPending() > 0) ASSERT_TRUE(sim.Step());
  EXPECT_EQ(env.TotalDeliveries(), 27u);
  EXPECT_EQ(env.Totals().retransmits, 0u);
  // The last ack is in: no hop's timer is left to fire.
  EXPECT_EQ(sim.PendingEvents(), idle);
}

// Exact counters of a lossy and a failover run, pinned so that a change
// to timer handling that alters which retransmissions happen shows here.
TEST(ReliableForwarding, LossyAndFailoverRunsKeepTheirExactCounts) {
  sim::NetworkConfig lossy_net;
  lossy_net.loss_prob = 0.3;
  MulticastConfig mc;
  mc.redundancy = 1;
  ReliableEnv lossy(16, 4, mc, lossy_net);
  for (int k = 0; k < 5; ++k) {
    lossy.svc(0).SendToZone(ZonePath::Root(),
                            lossy.MakeItem("a#" + std::to_string(k)));
  }
  lossy.dep().RunFor(40);
  const MulticastStats l = lossy.Totals();
  EXPECT_EQ(lossy.TotalDeliveries(), 80u);
  EXPECT_EQ(l.acks_received, 75u);
  EXPECT_EQ(l.retransmits, 94u);
  EXPECT_EQ(l.failovers, 8u);
  EXPECT_EQ(l.duplicates, 35u);

  ReliableEnv failover(27, 3, mc);
  failover.dep().net().Kill(failover.dep().agent(5).id());
  failover.svc(0).SendToZone(ZonePath::Root(), failover.MakeItem("a#1"));
  failover.dep().RunFor(30);
  const MulticastStats f = failover.Totals();
  EXPECT_EQ(failover.TotalDeliveries(), 26u);
  EXPECT_EQ(f.acks_received, 25u);
  EXPECT_EQ(f.retransmits, 19u);
  EXPECT_EQ(f.failovers, 1u);
  EXPECT_EQ(f.abandoned, 0u);
}

TEST(ReliableForwarding, RetransmitRecoversFromHeavyLoss) {
  sim::NetworkConfig net;
  net.loss_prob = 0.3;
  MulticastConfig mc;
  mc.redundancy = 1;  // no redundant paths: retransmission does all the work
  ReliableEnv env(16, 4, mc, net);
  for (int k = 0; k < 5; ++k) {
    env.svc(0).SendToZone(ZonePath::Root(),
                          env.MakeItem("a#" + std::to_string(k)));
  }
  env.dep().RunFor(40);
  EXPECT_EQ(env.TotalDeliveries(), 16u * 5u);  // complete despite 30% loss
  EXPECT_GT(env.Totals().retransmits, 0u);
}

TEST(ReliableForwarding, FireAndForgetModeLosesUnderSameLoss) {
  sim::NetworkConfig net;
  net.loss_prob = 0.3;
  MulticastConfig mc;
  mc.redundancy = 1;
  mc.reliable.max_pending = 0;  // no custody: every relay is a plain mc.fwd
  ReliableEnv env(16, 4, mc, net);
  for (int k = 0; k < 5; ++k) {
    env.svc(0).SendToZone(ZonePath::Root(),
                          env.MakeItem("a#" + std::to_string(k)));
  }
  env.dep().RunFor(40);
  EXPECT_LT(env.TotalDeliveries(), 16u * 5u);  // the legacy mode really loses
  const MulticastStats t = env.Totals();
  EXPECT_EQ(t.acks_received, 0u);
  EXPECT_EQ(t.retransmits, 0u);
  EXPECT_EQ(t.pending_overflow, 0u);  // a bound of 0 is not an overflow
  EXPECT_EQ(env.TotalPending(), 0u);
}

TEST(ReliableForwarding, FailsOverToAlternateRepresentative) {
  MulticastConfig mc;
  mc.redundancy = 1;
  ReliableEnv env(27, 3, mc);
  // Node 5 is a member (and candidate representative) of its leaf-parent
  // zone. With it dead, any relay that picked it times out and must fail
  // over to a sibling representative — without redundancy, only the
  // failover path can complete the dissemination.
  env.dep().net().Kill(env.dep().agent(5).id());
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(30);
  std::size_t received = 0;
  for (std::size_t i = 0; i < 27; ++i) {
    if (i == 5) continue;
    EXPECT_EQ(env.delivered(i).size(), 1u) << "leaf " << i;
    received += env.delivered(i).size();
  }
  EXPECT_EQ(received, 26u);
  EXPECT_GT(env.Totals().retransmits, 0u);
  // Some node suspects the dead peer after the timeouts.
  std::size_t suspected = 0;
  for (std::size_t i = 0; i < 27; ++i) {
    if (i == 5) continue;
    suspected += env.svc(i).suspected_peers();
  }
  EXPECT_GT(suspected, 0u);
}

TEST(ReliableForwarding, PendingHopSurvivesCrashAndDeliversAfterRestart) {
  MulticastConfig mc;
  mc.redundancy = 1;
  mc.reliable.give_up_after = 120.0;  // outlast the outage
  ReliableEnv env(27, 3, mc);
  env.dep().net().Kill(env.dep().agent(5).id());
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(10);
  EXPECT_EQ(env.delivered(5).size(), 0u);
  EXPECT_GT(env.TotalPending(), 0u);  // someone still owes node 5 this item
  env.dep().net().Restart(env.dep().agent(5).id());
  env.dep().RunFor(20);
  // The retransmission loop reached the restarted node; no hop left open.
  EXPECT_EQ(env.delivered(5).size(), 1u);
  EXPECT_EQ(env.TotalPending(), 0u);
}

TEST(ReliableForwarding, AbandonsAfterGiveUpDeadline) {
  MulticastConfig mc;
  mc.redundancy = 1;
  mc.reliable.give_up_after = 15.0;
  ReliableEnv env(27, 3, mc);
  env.dep().net().Kill(env.dep().agent(5).id());
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(60);
  EXPECT_GT(env.Totals().abandoned, 0u);  // the dead leaf's hop was given up
  EXPECT_EQ(env.TotalPending(), 0u);
}

TEST(ReliableForwarding, PendingOverflowFallsBackToFireAndForget) {
  MulticastConfig mc;
  mc.reliable.max_pending = 2;  // force the bound immediately
  ReliableEnv env(16, 4, mc);
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(30);
  EXPECT_EQ(env.TotalDeliveries(), 16u);  // overflow degrades, not drops
  EXPECT_GT(env.Totals().pending_overflow, 0u);
}

TEST(ReliableForwarding, DuplicateReliableHopsAreAckedAndSuppressed) {
  MulticastConfig mc;
  mc.redundancy = 3;  // redundant paths produce duplicate reliable hops
  ReliableEnv env(27, 3, mc);
  env.svc(5).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(30);
  for (std::size_t i = 0; i < 27; ++i) {
    EXPECT_EQ(env.delivered(i).size(), 1u) << "leaf " << i;
  }
  const MulticastStats t = env.Totals();
  EXPECT_GT(t.duplicates, 0u);
  // Duplicates were acked too: nothing is left pending, nothing retried.
  EXPECT_EQ(env.TotalPending(), 0u);
  EXPECT_EQ(t.retransmits, 0u);
}

// ---- replay determinism ------------------------------------------------
//
// BackoffPolicy and SuspicionCache feed retransmission timing and
// representative choice; any hidden seed- or host-dependence here would
// make replays diverge. The unit tests pin the pure primitives; the
// integration test replays a lossy reliable run twice and requires
// identical decisions end to end.

TEST(BackoffPolicy, JitterSequenceIdenticalForIdenticalSeeds) {
  ReliableConfig cfg;
  cfg.ack_timeout = 0.25;
  cfg.jitter_frac = 0.2;
  BackoffPolicy policy(cfg);
  util::DeterministicRng a(20260808), b(20260808), c(77);
  bool diverged_from_c = false;
  for (int attempt = 1; attempt <= 64; ++attempt) {
    const double da = policy.DelayFor(attempt, a);
    EXPECT_DOUBLE_EQ(da, policy.DelayFor(attempt, b))
        << "same seed must give the same jitter at attempt " << attempt;
    if (da != policy.DelayFor(attempt, c)) diverged_from_c = true;
  }
  EXPECT_TRUE(diverged_from_c) << "jitter ignores the injected rng";
}

TEST(SuspicionCache, TtlDecisionsDeterministicUnderSeededChurn) {
  // Replay a seeded churn of suspect/clear/probe operations twice; every
  // observable decision (IsSuspected, LiveCount) must match step for step.
  auto run = [](std::uint64_t seed) {
    SuspicionCache cache(10.0);
    util::DeterministicRng rng(seed);
    std::vector<std::uint64_t> observations;
    double now = 0;
    for (int step = 0; step < 500; ++step) {
      now += rng.NextDouble() * 3.0;
      const sim::NodeId peer = sim::NodeId(rng.NextBelow(8));
      switch (rng.NextBelow(3)) {
        case 0: cache.Suspect(peer, now); break;
        case 1: cache.Clear(peer); break;
        default: break;
      }
      observations.push_back(cache.IsSuspected(peer, now) ? 1 : 0);
      observations.push_back(cache.LiveCount(now));
    }
    return observations;
  };
  EXPECT_EQ(run(20260808), run(20260808));
  EXPECT_NE(run(20260808), run(77)) << "churn ignores the seed";
}

TEST(ReliableForwarding, LossyRunReplaysBitIdentically) {
  // A retransmission-heavy run (30% loss, no redundancy) exercises the
  // full backoff/suspicion/failover machinery. Per-node delivery logs and
  // the hop-level counters must be identical on replay.
  auto run = [] {
    sim::NetworkConfig net;
    net.loss_prob = 0.3;
    MulticastConfig mc;
    mc.redundancy = 1;
    ReliableEnv env(16, 4, mc, net, /*seed=*/20260808);
    for (int k = 0; k < 5; ++k) {
      env.svc(0).SendToZone(ZonePath::Root(),
                            env.MakeItem("a#" + std::to_string(k)));
    }
    env.dep().RunFor(40);
    std::vector<std::vector<std::string>> logs;
    for (std::size_t i = 0; i < env.dep().size(); ++i) {
      logs.push_back(env.delivered(i));
    }
    const MulticastStats t = env.Totals();
    return std::pair(logs, std::tuple(t.retransmits, t.failovers,
                                      t.acks_received, t.duplicates));
  };
  const auto first = run();
  EXPECT_GT(std::get<0>(first.second), 0u) << "run exercised no backoff";
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

}  // namespace
}  // namespace nw::multicast

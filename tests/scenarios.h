// Committed fault-plan scenario tables, shared between scenario_test.cc
// (invariants after recovery) and golden_replay_test.cc (each scenario's
// trace, MIB and delivery digests pinned as committed constants and
// reproduced by a second replay), plus the randomized torture churn run
// replayed by determinism_regression_test.cc and pinned by
// golden_replay_test.cc.
//
// Topology of the 32-node system (branching 4, most-significant digit
// first): node 0 is the publisher, nodes 1..31 are subscribers; nodes
// 0..15 form top-level zone one, 16..31 zone two, and each aligned block
// of 4 (0..3, 4..7, ...) is a second-level zone.
//
// A failing random run from FaultPlan::Random can be committed here
// verbatim: paste its ToString() as a new table row.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "newswire/system.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "testing/invariants.h"

namespace nw::testing {

struct Scenario {
  const char* name;
  // What §5 failure mode the scenario exercises / which invariant guards it.
  const char* guards;
  const char* plan;
  bool scoped_publish;  // alternate root-scoped and zone-scoped items
};

// No PrintTo yet: ParallelScenarioEquivalence still takes a Scenario, so
// its names end in gtest's byte dump of the struct, whose pointers vary per
// load of the binary (ROADMAP item 12). The dump starts past the first 100
// characters of those names.

// Times are seconds relative to the start of the 30 s publishing phase.
inline constexpr Scenario kScenarios[] = {
    {"CrashDuringPublish",
     "completeness: crashed nodes recover all items published while down",
     "crash@5 node=3; crash@6 node=17; restart@40 node=3; restart@42 node=17",
     false},
    {"RepresentativeCrash",
     "robustness: killing the likely zone representatives reroutes delivery",
     "crash@3 node=1; crash@3.5 node=2; restart@35 node=1; restart@36 node=2",
     false},
    {"ZonePartition",
     "§10 reliability: a whole top-level zone partitions away and re-merges",
     "partition@10 groups=16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31; "
     "heal@35",
     false},
    {"DoublePartition",
     "membership: two second-level zones split into separate islands",
     "partition@8 groups=4,5,6,7|8,9,10,11; heal@30", false},
    {"LossBurstDuringRepair",
     "repair under loss: anti-entropy itself runs over a lossy network",
     "crash@5 node=9; restart@15 node=9; loss@14..30 p=0.3", false},
    {"LossWithCrash",
     "compound faults: ambient loss while a node crashes and rejoins",
     "loss@5..20 p=0.25; crash@10 node=13; restart@25 node=13", false},
    {"RestartStorm",
     "churn: overlapping crash/restart waves never exceed f=2 dead nodes",
     "crash@2 node=1; crash@4 node=2; restart@10 node=1; crash@12 node=11; "
     "restart@14 node=2; restart@20 node=11; crash@22 node=21; "
     "restart@30 node=21",
     false},
    {"FlappingNode",
     "incarnation handling: a flapping node repeatedly loses and rebuilds "
     "its cache without duplicate deliveries",
     "crash@5 node=7; restart@8 node=7; crash@11 node=7; restart@14 node=7; "
     "crash@17 node=7; restart@20 node=7",
     false},
    {"PublisherSlowUplink",
     "flow: a congested publisher uplink delays but never loses items",
     "slow@5..25 node=0 rate=200000", false},
    {"ScopedPublishDuringPartition",
     "no-scope-leak: zone-scoped items stay inside their zone even while "
     "the other zone partitions and heals",
     "partition@10 groups=16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31; "
     "heal@35",
     true},
};

// The fixed 32-node deployment every committed scenario replays against.
inline newswire::SystemConfig CommittedScenarioConfig() {
  newswire::SystemConfig cfg;
  cfg.num_subscribers = 31;
  cfg.num_publishers = 1;
  cfg.branching = 4;
  cfg.catalog_size = 3;
  cfg.subjects_per_subscriber = 3;  // everyone subscribes everything
  cfg.multicast.redundancy = 2;
  cfg.subscriber.repair_interval = 4.0;
  cfg.subscriber.repair_window = 3600.0;
  cfg.gossip_period = 1.0;
  cfg.seed = 20260805;
  return cfg;
}

// ---- reliable-forwarding scenarios -------------------------------------
//
// These scenarios run with the subscriber repair layer OFF and redundancy
// 1: the only recovery machinery is the hop-by-hop ack/retransmit/failover
// discipline. The faulted run must converge to exactly the same set of
// (subscriber, item) deliveries as a fault-free run of the same
// configuration — reliability alone closes the gap the fault opened.
//
// Fault windows are kept under the membership fail-timeout (6 gossip
// rounds at 1 s): once a victim's row expires from the zone tables,
// nothing is forwarded toward it at all, and without repair no mechanism
// would owe it the items published while it was absent.

struct ReliableScenario {
  const char* name;
  const char* guards;
  const char* plan;  // nullptr = fault-free baseline
};

inline void PrintTo(const ReliableScenario& s, std::ostream* os) {
  *os << s.name;
}

inline constexpr ReliableScenario kReliableScenarios[] = {
    {"RepCrashMidDissemination",
     "failover: a likely representative of the publisher's own zone dies "
     "mid-stream; relays retransmit, fail over to a sibling, and settle "
     "the victim's backlog after its restart",
     "crash@5 node=1; restart@9 node=1"},
    {"ChildZonePartition",
     "retransmission through a partition: one second-level zone is cut "
     "off; pending hops back off through the outage and deliver on heal",
     "partition@8 groups=4,5,6,7; heal@12"},
};

inline newswire::SystemConfig ReliableScenarioConfig() {
  newswire::SystemConfig cfg;
  cfg.num_subscribers = 31;
  cfg.num_publishers = 1;
  cfg.branching = 4;
  cfg.catalog_size = 3;
  cfg.subjects_per_subscriber = 3;  // everyone subscribes everything
  cfg.multicast.redundancy = 1;     // no redundant paths to lean on
  cfg.subscriber.repair_interval = 0;  // anti-entropy repair disabled
  cfg.gossip_period = 1.0;
  cfg.seed = 20260806;
  return cfg;
}

// ---- torture churn -----------------------------------------------------
//
// A randomized crash/restart plan (FaultPlan::Random) over the committed
// 32-node deployment, reseeded, while a publisher streams 60 items.
// Everything the run exposes is digested, so a replay can be compared to
// another replay or to committed constants.

inline constexpr std::uint64_t kTortureSeed = 0x20260808;

struct ChurnDigest {
  std::uint64_t delivered = 0;        // NewswireSystem::total_delivered
  std::uint64_t delivery_hash = 0;    // DeliveryRecorder::TraceHash
  std::uint64_t event_hash = 0;       // EventTracer::SequenceHash
  std::uint64_t events_recorded = 0;  // EventTracer::total_recorded
  std::uint64_t mib_hash = 0;         // MibContentHash after settle
  std::string plan_text;
};

inline ChurnDigest RunTortureChurn(std::uint64_t seed) {
  // Large enough to hold every record (about 330k), so the sequence hash
  // covers the whole run rather than its tail.
  obs::EventTracer tracer(1 << 19);
  newswire::SystemConfig cfg = CommittedScenarioConfig();
  cfg.seed = seed;
  cfg.tracer = &tracer;
  newswire::NewswireSystem sys(cfg);
  DeliveryRecorder recorder(sys);
  sys.RunFor(10);

  std::vector<sim::NodeId> victims;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    victims.push_back(sys.subscriber_agent(i).id());
  }
  sim::FaultPlan::RandomOptions opt;
  opt.horizon = 60;
  opt.min_quiescence = 15;
  opt.max_events = 24;
  opt.max_dead = 6;
  const sim::FaultPlan plan = sim::FaultPlan::Random(seed, victims, opt);

  const double base = sys.Now();
  plan.ApplyTo(sys.deployment().net(), base);
  for (int step = 0; step < 60; ++step) {
    sys.deployment().sim().At(base + step, [&sys, step] {
      sys.PublishArticle(0, sys.catalog()[std::size_t(step) % 3]);
    });
  }
  sys.RunFor(60 + 180);

  ChurnDigest out;
  out.delivered = sys.total_delivered();
  out.delivery_hash = recorder.TraceHash();
  out.event_hash = tracer.SequenceHash();
  out.events_recorded = tracer.total_recorded();
  out.mib_hash = MibContentHash(sys.deployment());
  out.plan_text = plan.ToString();
  return out;
}

}  // namespace nw::testing

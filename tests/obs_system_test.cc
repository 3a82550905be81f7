// System-level observability tests:
//
// 1. Golden-trace regression: replaying a committed scenario_test.cc fault
//    plan twice under tracing yields the identical (non-trivial) event
//    sequence hash — the instrumentation neither perturbs the run nor
//    depends on host state.
// 2. Metrics-vs-invariants cross-check: after a faulted torture run, the
//    subscriber "accepted" counter must agree exactly with the delivery
//    trace the testing::DeliveryRecorder saw and with the system's own
//    delivery total — three independently maintained counts of one event.
//
// Golden runs are pinned to an explicit gossip wire mode (full or delta):
// the two formats schedule different message legs, so their traces hash
// differently by design and each mode carries its own golden. After a
// deliberate protocol change, regenerate expectations by re-running this
// binary and reading the printed hashes:
//   cmake --build build --target obs_system_test && \
//     ./build/tests/obs_system_test --gtest_filter='ObsGoldenTrace.*'
// (These goldens are run-to-run equalities, so "regeneration" is just
// confirming the suite is green again; golden_replay_test.cc pins the
// committed scenarios' digests as constants.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "newswire/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "testing/invariants.h"

namespace nw::newswire {
namespace {

SystemConfig ScenarioConfig(
    astrolabe::GossipWireMode wire = astrolabe::GossipWireMode::kFull) {
  // Mirrors the committed 32-node scenario_test.cc deployment. The wire
  // mode is pinned explicitly (default: the v1 full-snapshot format) so
  // golden hashes do not move when the system-wide default changes.
  SystemConfig cfg;
  cfg.num_subscribers = 31;
  cfg.num_publishers = 1;
  cfg.branching = 4;
  cfg.catalog_size = 3;
  cfg.subjects_per_subscriber = 3;
  cfg.multicast.redundancy = 2;
  cfg.subscriber.repair_interval = 4.0;
  cfg.subscriber.repair_window = 3600.0;
  cfg.gossip_period = 1.0;
  cfg.seed = 20260805;
  cfg.gossip_wire = wire;
  return cfg;
}

// One committed CrashDuringPublish-style run with sinks attached; returns
// the tracer's sequence hash and fills the output counts.
struct RunOutcome {
  std::uint64_t trace_hash = 0;
  std::uint64_t total_recorded = 0;
  std::uint64_t accepted_counter = 0;
  std::uint64_t recorder_deliveries = 0;
  std::uint64_t system_delivered = 0;
  std::uint64_t fault_events = 0;
};

RunOutcome RunTracedScenario(
    const char* plan_text,
    astrolabe::GossipWireMode wire = astrolabe::GossipWireMode::kFull) {
  auto plan = sim::FaultPlan::Parse(plan_text);
  EXPECT_TRUE(plan.has_value()) << plan_text;

  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(1 << 18);
  SystemConfig cfg = ScenarioConfig(wire);
  cfg.metrics = &metrics;
  cfg.tracer = &tracer;
  NewswireSystem sys(cfg);
  testing::DeliveryRecorder recorder(sys);

  sys.RunFor(10);
  const double base = sys.Now();
  plan->ApplyTo(sys.deployment().net(), base);
  for (int k = 0; k < 30; ++k) {
    sys.deployment().sim().At(base + k, [&sys, k] {
      sys.PublishArticle(0, sys.catalog()[std::size_t(k) % 3]);
    });
  }
  sys.RunFor(std::max(30.0, plan->EndTime()) + 120);

  RunOutcome out;
  out.trace_hash = tracer.SequenceHash();
  out.total_recorded = tracer.total_recorded();
  const auto snap = metrics.Snap();
  if (const auto* m = snap.Find("newswire.subscriber.accepted")) {
    out.accepted_counter = m->counter_total;
  }
  out.recorder_deliveries = recorder.trace().size();
  out.system_delivered = sys.total_delivered();
  for (const auto& ev : tracer.Events()) {
    if (ev.category == obs::EventCategory::kFault) ++out.fault_events;
  }
  return out;
}

// Committed plans, verbatim from scenario_test.cc.
constexpr const char* kCrashPlan =
    "crash@5 node=3; crash@6 node=17; restart@40 node=3; restart@42 node=17";
constexpr const char* kFlapPlan =
    "crash@5 node=7; restart@8 node=7; crash@11 node=7; restart@14 node=7; "
    "crash@17 node=7; restart@20 node=7";
constexpr const char* kLossPlan =
    "loss@5..20 p=0.25; crash@10 node=13; restart@25 node=13";

TEST(ObsGoldenTrace, SameSeedSameFaultPlanSameHash) {
  const RunOutcome first = RunTracedScenario(kCrashPlan);
  const RunOutcome second = RunTracedScenario(kCrashPlan);
  // The hash must cover a real run (events were recorded, faults traced).
  EXPECT_GT(first.total_recorded, 1000u);
  EXPECT_GE(first.fault_events, 4u) << "2 crashes + 2 restarts at minimum";
  EXPECT_NE(first.trace_hash, 0u);
  // Bitwise replay determinism, the property tier-1 regressions rely on.
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.total_recorded, second.total_recorded);
}

TEST(ObsGoldenTrace, DifferentPlansProduceDifferentHashes) {
  const RunOutcome crash = RunTracedScenario(kCrashPlan);
  const RunOutcome flap = RunTracedScenario(kFlapPlan);
  EXPECT_NE(crash.trace_hash, flap.trace_hash);
}

TEST(ObsGoldenTrace, DeltaWireModeHasItsOwnDeterministicGolden) {
  // The digest/delta wire format (v2) is a different protocol on the wire
  // — three legs instead of two — so its golden is separate from the full
  // mode's, but must be exactly as replayable.
  const RunOutcome first =
      RunTracedScenario(kCrashPlan, astrolabe::GossipWireMode::kDelta);
  const RunOutcome second =
      RunTracedScenario(kCrashPlan, astrolabe::GossipWireMode::kDelta);
  EXPECT_GT(first.total_recorded, 1000u);
  EXPECT_NE(first.trace_hash, 0u);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.total_recorded, second.total_recorded);
  const RunOutcome full =
      RunTracedScenario(kCrashPlan, astrolabe::GossipWireMode::kFull);
  EXPECT_NE(first.trace_hash, full.trace_hash)
      << "the two wire formats must not be trace-identical, or the mode "
         "knob is not reaching the agents";
}

TEST(ObsMetricsCrossCheck, AcceptedCounterMatchesInvariantTrace) {
  for (const char* plan : {kCrashPlan, kFlapPlan, kLossPlan}) {
    const RunOutcome out = RunTracedScenario(plan);
    SCOPED_TRACE(plan);
    EXPECT_GT(out.accepted_counter, 0u);
    // Subscriber::Accept fires the delivery handlers exactly when it bumps
    // the accepted counter, and NewswireSystem::total_delivered counts the
    // same handler calls — all three views must agree exactly.
    EXPECT_EQ(out.accepted_counter, out.recorder_deliveries);
    EXPECT_EQ(out.accepted_counter, out.system_delivered);
  }
}

TEST(ObsMetricsCrossCheck, NetworkCountersAreConsistent) {
  obs::MetricsRegistry metrics;
  SystemConfig cfg = ScenarioConfig();
  cfg.metrics = &metrics;
  NewswireSystem sys(cfg);
  sys.RunFor(10);
  const double base = sys.Now();
  auto plan = sim::FaultPlan::Parse(kCrashPlan);
  ASSERT_TRUE(plan.has_value());
  plan->ApplyTo(sys.deployment().net(), base);
  for (int k = 0; k < 30; ++k) {
    sys.deployment().sim().At(base + k, [&sys, k] {
      sys.PublishArticle(0, sys.catalog()[std::size_t(k) % 3]);
    });
  }
  sys.RunFor(std::max(30.0, plan->EndTime()) + 120);

  const auto snap = metrics.Snap();
  const auto* sent = snap.Find("sim.network.messages_sent");
  const auto* delivered = snap.Find("sim.network.messages_delivered");
  ASSERT_NE(sent, nullptr);
  ASSERT_NE(delivered, nullptr);
  // Sends either deliver or drop for one of the four classified reasons;
  // nothing else may leak messages.
  std::uint64_t drops = 0;
  for (const char* name :
       {"sim.network.drops_loss", "sim.network.drops_dead_endpoint",
        "sim.network.drops_stale_incarnation",
        "sim.network.drops_partition"}) {
    const auto* m = snap.Find(name);
    ASSERT_NE(m, nullptr) << name;
    drops += m->counter_total;
  }
  EXPECT_GT(sent->counter_total, 0u);
  EXPECT_GT(delivered->counter_total, 0u);
  // Every send resolves to exactly one of delivered / the four drop
  // classes — except messages still in flight when RunFor's clock cutoff
  // hits (gossip and repair timers keep the queue non-empty forever), so
  // the residue must be small but need not be zero.
  ASSERT_GE(sent->counter_total, delivered->counter_total + drops);
  const std::uint64_t in_flight =
      sent->counter_total - delivered->counter_total - drops;
  EXPECT_LT(in_flight, 256u) << "more unresolved sends than one round of "
                                "gossip+repair traffic can explain";
  // The registry's totals must agree with the network's own TrafficStats.
  const auto total = sys.deployment().net().TotalStats();
  EXPECT_EQ(sent->counter_total, total.messages_sent);
  EXPECT_EQ(delivered->counter_total, total.messages_received);
  EXPECT_EQ(drops, total.messages_dropped);
  // Kill/restart events landed in the fault counters.
  EXPECT_EQ(snap.Find("sim.network.node_kills")->counter_total, 2u);
  EXPECT_EQ(snap.Find("sim.network.node_restarts")->counter_total, 2u);
}

}  // namespace
}  // namespace nw::newswire

// Wire-format equivalence harness (gossip wire v2, PROTOCOLS.md): the
// digest/delta anti-entropy must be observationally equivalent to the
// full-snapshot protocol it replaces — same converged knowledge, same
// deliveries — while strictly cheaper on the wire.
//
// Two layers of evidence:
//  1. Randomized deployments (>= 20 seeds, each with a random crash /
//     partition plan): after recovery and quiescence, the content-only MIB
//     hash (testing::MibContentHash — versions and timing excluded) must
//     be identical between a full-mode and a delta-mode run of the same
//     seed, and the cumulative gossip wire bytes of the delta run may
//     never exceed the full run's at any one-second window boundary.
//  2. Committed scenario_test.cc fault plans on the full NewsWire stack:
//     the set of (subscriber, item) deliveries the DeliveryRecorder saw
//     must be identical across wire modes.
//
// The two runs of a seed consume the shared simulator RNG differently
// (delta sends three legs, full sends two), so message timing, row
// versions, and refresh clocks all diverge; only converged *content* is
// comparable. That is exactly what the protocol promises.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "astrolabe/deployment.h"
#include "newswire/system.h"
#include "sim/fault_plan.h"
#include "testing/invariants.h"

namespace nw {
namespace {

constexpr double kChaosSeconds = 40;
constexpr double kQuiescenceSeconds = 60;

struct DeploymentRun {
  std::uint64_t mib_hash = 0;
  // Cumulative "astro.gossip*" wire bytes sampled at every one-second
  // (= gossip period) boundary.
  std::vector<std::uint64_t> cumulative_bytes;
  std::string plan_text;
};

DeploymentRun RunDeployment(astrolabe::GossipWireMode mode,
                            std::uint64_t seed) {
  astrolabe::DeploymentConfig cfg;
  cfg.branching = 4;
  cfg.gossip_period = 1.0;
  cfg.seed = seed;
  cfg.gossip_wire = mode;
  astrolabe::Deployment dep(32, cfg);
  dep.StartAll();

  std::vector<sim::NodeId> victims;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    victims.push_back(dep.agent(i).id());
  }
  sim::FaultPlan::RandomOptions opt;
  opt.horizon = kChaosSeconds;
  opt.min_quiescence = 15;
  opt.max_events = 24;
  opt.max_dead = 8;
  opt.loss_bursts = false;  // loss would decouple the two runs' coverage
  const sim::FaultPlan plan = sim::FaultPlan::Random(seed, victims, opt);
  plan.ApplyTo(dep.net(), dep.sim().Now());

  DeploymentRun out;
  out.plan_text = plan.ToString();
  const int windows = int(kChaosSeconds + kQuiescenceSeconds);
  for (int w = 0; w < windows; ++w) {
    dep.RunFor(1.0);
    out.cumulative_bytes.push_back(
        dep.net().StatsForTypePrefix("astro.gossip").bytes);
  }
  out.mib_hash = testing::MibContentHash(dep);
  return out;
}

class GossipEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GossipEquivalence, SameSeedSameFaultsSameConvergedState) {
  const DeploymentRun full =
      RunDeployment(astrolabe::GossipWireMode::kFull, GetParam());
  const DeploymentRun delta =
      RunDeployment(astrolabe::GossipWireMode::kDelta, GetParam());
  EXPECT_NE(full.mib_hash, 0u);
  EXPECT_EQ(full.mib_hash, delta.mib_hash) << "plan: " << full.plan_text;
}

TEST_P(GossipEquivalence, DeltaNeverCostsMoreWireBytesThanFull) {
  const DeploymentRun full =
      RunDeployment(astrolabe::GossipWireMode::kFull, GetParam());
  const DeploymentRun delta =
      RunDeployment(astrolabe::GossipWireMode::kDelta, GetParam());
  ASSERT_EQ(full.cumulative_bytes.size(), delta.cumulative_bytes.size());
  for (std::size_t w = 0; w < full.cumulative_bytes.size(); ++w) {
    // Cumulative at every boundary: the digest overhead delta pays must
    // always have been bought back by suppressed rows, churn or not.
    EXPECT_LE(delta.cumulative_bytes[w], full.cumulative_bytes[w])
        << "window " << w << " plan: " << full.plan_text;
  }
  // And in the fault-free steady-state tail the per-window gap is wide:
  // delta ships digests where full ships whole tables.
  const std::size_t n = full.cumulative_bytes.size();
  const std::uint64_t full_tail =
      full.cumulative_bytes[n - 1] - full.cumulative_bytes[n - 21];
  const std::uint64_t delta_tail =
      delta.cumulative_bytes[n - 1] - delta.cumulative_bytes[n - 21];
  EXPECT_LT(delta_tail * 2, full_tail) << "plan: " << full.plan_text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipEquivalence,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- full-stack delivery equivalence on committed scenario plans --------

// Verbatim from scenario_test.cc: a crash/recover plan and the two-island
// partition plan (the cases that stress resync after divergence).
constexpr const char* kCrashPlan =
    "crash@5 node=3; crash@6 node=17; restart@40 node=3; restart@42 node=17";
constexpr const char* kDoublePartitionPlan =
    "partition@8 groups=4,5,6,7|8,9,10,11; heal@30";

using AcceptedSet = std::set<std::pair<std::size_t, std::string>>;

AcceptedSet RunSystem(astrolabe::GossipWireMode mode, const char* plan_text) {
  auto plan = sim::FaultPlan::Parse(plan_text);
  EXPECT_TRUE(plan.has_value()) << plan_text;
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
  cfg.gossip_wire = mode;
  newswire::NewswireSystem sys(cfg);
  testing::DeliveryRecorder recorder(sys);

  sys.RunFor(10);
  const double base = sys.Now();
  plan->ApplyTo(sys.deployment().net(), base);
  std::vector<testing::PublishedItem> published;
  for (int k = 0; k < 30; ++k) {
    sys.deployment().sim().At(base + k, [&, k] {
      const std::string& subject = sys.catalog()[std::size_t(k) % 3];
      const std::string id = sys.PublishArticle(0, subject);
      if (!id.empty()) published.push_back({id, subject, "/"});
    });
  }
  sys.RunFor(std::max(30.0, plan->EndTime()) + 120);

  // Full recovery is a precondition for set equality — assert it so a
  // completeness regression is reported as itself, not as a mode mismatch.
  const auto completeness =
      testing::CheckSubscriberCompleteness(sys, published, 1.0);
  EXPECT_TRUE(completeness.ok())
      << astrolabe::GossipWireModeName(mode) << ": "
      << completeness.Summary();

  AcceptedSet accepted;
  for (const auto& rec : recorder.trace()) {
    accepted.emplace(rec.subscriber, rec.item_id);
  }
  return accepted;
}

TEST(GossipEquivalenceSystem, CrashPlanDeliversTheSameSetInBothModes) {
  const AcceptedSet full =
      RunSystem(astrolabe::GossipWireMode::kFull, kCrashPlan);
  const AcceptedSet delta =
      RunSystem(astrolabe::GossipWireMode::kDelta, kCrashPlan);
  EXPECT_FALSE(full.empty());
  EXPECT_EQ(full, delta);
}

TEST(GossipEquivalenceSystem, PartitionPlanDeliversTheSameSetInBothModes) {
  const AcceptedSet full =
      RunSystem(astrolabe::GossipWireMode::kFull, kDoublePartitionPlan);
  const AcceptedSet delta =
      RunSystem(astrolabe::GossipWireMode::kDelta, kDoublePartitionPlan);
  EXPECT_FALSE(full.empty());
  EXPECT_EQ(full, delta);
}

}  // namespace
}  // namespace nw

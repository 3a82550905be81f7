// Chaos harness (DESIGN.md §10): committed gray-failure fault cocktails —
// slowdowns, one-directional cuts, corruption and duplication bursts,
// applied together — replayed against the full NewsWire stack. Each
// cocktail must (a) converge to exactly the fault-free delivery set once
// repair and retransmission settle, (b) replay bit-identically, and (c)
// leave the gossip layer's replicated state identical to a fault-free run
// after heal.
//
// A failing random cocktail from FaultPlan::Random (with the gray options
// on) can be committed here verbatim: paste its ToString() as a new row.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "astrolabe/deployment.h"
#include "newswire/system.h"
#include "scenarios.h"
#include "sim/fault_plan.h"
#include "testing/invariants.h"

namespace nw::newswire {
namespace {

struct ChaosScenario {
  const char* name;
  // Which gray-failure mode the cocktail exercises.
  const char* guards;
  const char* plan;
};

void PrintTo(const ChaosScenario& s, std::ostream* os) { *os << s.name; }

// Topology reminder (tests/scenarios.h): 32 nodes, branching 4, node 0 is
// the publisher; aligned blocks of 4 are second-level zones. Times are
// relative to the start of the 24 s publishing phase.
constexpr ChaosScenario kChaosScenarios[] = {
    {"GrayTrio",
     "gray-slow: three nodes answer 6-8x late across overlapping windows; "
     "phi adapts, retransmission and repair close the gaps",
     "gray@5..35 node=3 factor=8 delay=0.05; gray@8..32 node=17 factor=6; "
     "gray@10..30 node=9 factor=8 delay=0.02"},
    {"AsymZoneCutWithDups",
     "asymmetric partition: one second-level zone can talk but not listen "
     "to another, while the network duplicates frames",
     "asym@8..22 groups=4,5,6,7|8,9,10,11; dup@10..30 p=0.1"},
    {"CorruptionStorm",
     "integrity: a corruption burst makes frames fail their envelope "
     "checksum and be verify-and-dropped while a node also runs gray",
     "corrupt@5..25 p=0.05; gray@12..28 node=21 factor=8"},
    {"FullCocktail",
     "compound gray failure: slowdown + corruption + duplication + an "
     "asymmetric cut, overlapping",
     "gray@5..30 node=2 factor=8 delay=0.05; corrupt@8..22 p=0.03; "
     "dup@12..26 p=0.08; asym@10..18 groups=24,25,26,27|28,29,30,31"},
};

struct ChaosRun {
  std::vector<testing::DeliveryRecord> trace;
  std::uint64_t integrity_drops = 0;
  multicast::MulticastStats totals;
};

ChaosRun RunChaos(const char* plan_text) {
  SystemConfig cfg = testing::CommittedScenarioConfig();
  cfg.seed = 20260808;
  NewswireSystem sys(cfg);

  testing::DeliveryRecorder recorder(sys);
  sys.RunFor(10);  // subscriptions aggregate before the stream starts
  const double base = sys.Now();

  double plan_end = 0;
  if (plan_text != nullptr) {
    auto plan = sim::FaultPlan::Parse(plan_text);
    EXPECT_TRUE(plan.has_value()) << plan_text;
    if (!plan) return {};
    plan->ApplyTo(sys.deployment().net(), base);
    plan_end = plan->EndTime();
  }

  for (int k = 0; k < 24; ++k) {
    sys.deployment().sim().At(base + k, [&sys, k] {
      sys.PublishArticle(0, sys.catalog()[std::size_t(k) % 3]);
    });
  }
  // Stream, fault tail, then enough settle time for capped-backoff
  // retransmissions and the repair layer to finish.
  sys.RunFor(std::max(24.0, plan_end) + 120);

  const auto duplicates = testing::CheckNoDuplicateDelivery(sys, recorder);
  EXPECT_TRUE(duplicates.ok()) << duplicates.Summary();
  const auto soundness = testing::CheckSubscriptionSoundness(sys, recorder);
  EXPECT_TRUE(soundness.ok()) << soundness.Summary();
  const auto membership = testing::CheckMembershipAgreement(sys);
  EXPECT_TRUE(membership.ok()) << membership.Summary();

  ChaosRun run;
  run.trace = recorder.trace();
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    run.integrity_drops +=
        sys.deployment().agent(i).gossip_stats().integrity_drops;
  }
  run.totals = sys.MulticastTotals();
  return run;
}

const std::vector<testing::DeliveryRecord>& FaultFreeBaseline() {
  static const ChaosRun* run = new ChaosRun(RunChaos(nullptr));
  return run->trace;
}

class ChaosScenarioTest : public ::testing::TestWithParam<ChaosScenario> {};

TEST_P(ChaosScenarioTest, DeliverySetMatchesFaultFreeAndReplaysBitIdentical) {
  const ChaosScenario& scenario = GetParam();

  // The committed string must itself be a valid, stable plan.
  auto plan = sim::FaultPlan::Parse(scenario.plan);
  ASSERT_TRUE(plan.has_value()) << scenario.plan;
  auto reparsed = sim::FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, *plan) << "text form is unstable";

  const ChaosRun t1 = RunChaos(scenario.plan);
  const ChaosRun t2 = RunChaos(scenario.plan);
  ASSERT_FALSE(t1.trace.empty());

  // (b) the cocktail replays bit-identically.
  const auto replay = testing::CheckReplayIdentical(t1.trace, t2.trace);
  EXPECT_TRUE(replay.ok()) << replay.Summary();

  // (a) the faulted run converges to exactly the fault-free delivery set.
  const auto equal = testing::CheckSameDeliverySets(t1.trace,
                                                    FaultFreeBaseline());
  EXPECT_TRUE(equal.ok()) << equal.Summary();

  // Corruption bursts must actually exercise the verify-and-drop path.
  if (std::strstr(scenario.plan, "corrupt@") != nullptr) {
    EXPECT_GT(t1.integrity_drops, 0u)
        << "cocktail advertises corruption but nothing was dropped";
  }
}

INSTANTIATE_TEST_SUITE_P(Committed, ChaosScenarioTest,
                         ::testing::ValuesIn(kChaosScenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---- MIB convergence after heal (c) ------------------------------------

std::uint64_t RunGossipCocktail(const char* plan_text) {
  astrolabe::DeploymentConfig dc;
  dc.branching = 4;
  dc.gossip_period = 1.0;
  dc.seed = 20260808;
  astrolabe::Deployment dep(16, dc);
  dep.StartAll();
  dep.RunFor(30);  // converge before the trouble starts

  if (plan_text != nullptr) {
    auto plan = sim::FaultPlan::Parse(plan_text);
    EXPECT_TRUE(plan.has_value()) << plan_text;
    if (!plan) return 0;
    plan->ApplyTo(dep.net(), dep.sim().Now());
  }
  dep.RunFor(120);  // fault window, heal, and re-convergence

  const auto membership = testing::CheckMembershipAgreement(dep, 16);
  EXPECT_TRUE(membership.ok()) << membership.Summary();
  return testing::MibContentHash(dep);
}

TEST(ChaosMibConvergence, ReplicatedStateMatchesFaultFreeContentAfterHeal) {
  const std::uint64_t faulted = RunGossipCocktail(
      "gray@0..30 node=3 factor=8 delay=0.05; asym@5..20 groups=1,2|5,6; "
      "corrupt@8..25 p=0.05");
  const std::uint64_t clean = RunGossipCocktail(nullptr);
  ASSERT_NE(clean, 0u);
  EXPECT_EQ(faulted, clean)
      << "gossip content must converge back to the fault-free state";
}

}  // namespace
}  // namespace nw::newswire

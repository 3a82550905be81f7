// Committed fault scenarios (DESIGN.md §5, EXPERIMENTS.md "Fault
// scenarios"): each scenario is a one-line fault plan, replayed against a
// fixed 32-node NewsWire deployment while a publisher streams articles.
// After the plan's recovery tail and a repair/gossip settle phase, the full
// invariant suite from src/testing/invariants.h must hold.
//
// The scenario tables and deployment configs live in tests/scenarios.h,
// shared with golden_replay_test.cc which pins each plan's replay digests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "newswire/system.h"
#include "scenarios.h"
#include "sim/fault_plan.h"
#include "testing/invariants.h"

namespace nw::newswire {
namespace {

using testing::kReliableScenarios;
using testing::kScenarios;
using testing::ReliableScenario;
using testing::Scenario;

class ScenarioTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ScenarioTest, InvariantsHoldAfterRecovery) {
  const Scenario& scenario = GetParam();

  // The committed string must itself be a valid, stable plan.
  auto plan = sim::FaultPlan::Parse(scenario.plan);
  ASSERT_TRUE(plan.has_value()) << scenario.plan;
  auto reparsed = sim::FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, *plan) << "text form is unstable";

  NewswireSystem sys(testing::CommittedScenarioConfig());
  ASSERT_NE(plan->MaxNode(), sim::kInvalidNode);
  ASSERT_LT(plan->MaxNode(), sys.node_count()) << "plan targets ghost nodes";

  testing::DeliveryRecorder recorder(sys);
  sys.RunFor(10);  // subscriptions aggregate before the stream starts

  const double base = sys.Now();
  plan->ApplyTo(sys.deployment().net(), base);

  // Zone-scoped items target the publisher's own top-level zone.
  const astrolabe::ZonePath zone = sys.publisher_agent(0).path().Prefix(1);
  std::vector<testing::PublishedItem> published;
  for (int k = 0; k < 30; ++k) {
    sys.deployment().sim().At(base + k, [&, k] {
      const bool scoped = scenario.scoped_publish && k % 2 == 1;
      const std::string id =
          sys.PublishArticle(0, sys.catalog()[std::size_t(k) % 3],
                             scoped ? zone : astrolabe::ZonePath::Root());
      if (!id.empty()) {
        published.push_back({id, sys.catalog()[std::size_t(k) % 3],
                             scoped ? zone.ToString() : "/"});
      }
    });
  }

  // Stream, recovery tail, then repair/gossip quiescence.
  sys.RunFor(std::max(30.0, plan->EndTime()) + 120);
  ASSERT_GE(published.size(), 30u);

  const auto membership = testing::CheckMembershipAgreement(sys);
  EXPECT_TRUE(membership.ok()) << membership.Summary();

  auto completeness =
      testing::CheckSubscriberCompleteness(sys, published, 0.999);
  EXPECT_TRUE(completeness.ok()) << completeness.Summary();
  EXPECT_GE(completeness.completeness, 0.999);

  const auto duplicates = testing::CheckNoDuplicateDelivery(sys, recorder);
  EXPECT_TRUE(duplicates.ok()) << duplicates.Summary();

  const auto scope = testing::CheckNoScopeLeak(sys, recorder);
  EXPECT_TRUE(scope.ok()) << scope.Summary();

  const auto soundness = testing::CheckSubscriptionSoundness(sys, recorder);
  EXPECT_TRUE(soundness.ok()) << soundness.Summary();

  EXPECT_GT(recorder.trace().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Committed, ScenarioTest,
                         ::testing::ValuesIn(kScenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---- reliable-forwarding scenarios -------------------------------------

std::vector<testing::DeliveryRecord> RunReliableScenario(
    const char* plan_text) {
  NewswireSystem sys(testing::ReliableScenarioConfig());

  testing::DeliveryRecorder recorder(sys);
  sys.RunFor(10);
  const double base = sys.Now();

  double plan_end = 0;
  if (plan_text != nullptr) {
    auto plan = sim::FaultPlan::Parse(plan_text);
    EXPECT_TRUE(plan.has_value()) << plan_text;
    if (!plan) return {};
    plan->ApplyTo(sys.deployment().net(), base);
    plan_end = plan->EndTime();
  }

  for (int k = 0; k < 20; ++k) {
    sys.deployment().sim().At(base + k, [&sys, k] {
      sys.PublishArticle(0, sys.catalog()[std::size_t(k) % 3]);
    });
  }
  // Stream, outage tail, and enough settle time for capped-backoff
  // retransmissions to land after the heal/restart.
  sys.RunFor(std::max(20.0, plan_end) + 60);

  const auto duplicates = testing::CheckNoDuplicateDelivery(sys, recorder);
  EXPECT_TRUE(duplicates.ok()) << duplicates.Summary();
  const auto soundness = testing::CheckSubscriptionSoundness(sys, recorder);
  EXPECT_TRUE(soundness.ok()) << soundness.Summary();
  const auto membership = testing::CheckMembershipAgreement(sys);
  EXPECT_TRUE(membership.ok()) << membership.Summary();
  EXPECT_EQ(sys.MulticastTotals().abandoned, 0u)
      << "no hop may be given up inside these short fault windows";
  return recorder.trace();
}

class ReliableScenarioTest
    : public ::testing::TestWithParam<ReliableScenario> {};

TEST_P(ReliableScenarioTest, DeliverySetMatchesFaultFreeRunWithoutRepair) {
  const ReliableScenario& scenario = GetParam();

  auto plan = sim::FaultPlan::Parse(scenario.plan);
  ASSERT_TRUE(plan.has_value()) << scenario.plan;
  auto reparsed = sim::FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, *plan) << "text form is unstable";

  const auto faulted = RunReliableScenario(scenario.plan);
  const auto baseline = RunReliableScenario(nullptr);
  ASSERT_FALSE(baseline.empty());

  const auto equal = testing::CheckSameDeliverySets(faulted, baseline);
  EXPECT_TRUE(equal.ok()) << equal.Summary();
}

INSTANTIATE_TEST_SUITE_P(Committed, ReliableScenarioTest,
                         ::testing::ValuesIn(kReliableScenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace nw::newswire

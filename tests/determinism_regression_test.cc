// Determinism regression guard: rerun a randomized torture-style churn seed
// twice and require bit-identical digests (no hash-container iteration
// order, no address-dependent ordering, no hidden global RNG draws leaked
// into the run). golden_replay_test.cc additionally pins the same run's
// digests as committed constants.
//
// This is the test that would have caught the historical failure classes
// audited for this suite: protocol decisions driven by unordered_map/
// unordered_set iteration order, and shared-RNG draws whose order depends
// on scheduling.
#include <gtest/gtest.h>

#include "scenarios.h"

namespace nw::newswire {
namespace {

using testing::ChurnDigest;
using testing::kTortureSeed;
using testing::RunTortureChurn;

TEST(DeterminismRegression, TortureSeedReplaysIdenticallySequential) {
  const ChurnDigest a = RunTortureChurn(kTortureSeed);
  const ChurnDigest b = RunTortureChurn(kTortureSeed);
  EXPECT_GT(a.delivered, 0u);
  EXPECT_EQ(a.plan_text, b.plan_text);
  EXPECT_EQ(a.delivered, b.delivered) << "plan: " << a.plan_text;
  EXPECT_EQ(a.delivery_hash, b.delivery_hash) << "plan: " << a.plan_text;
  EXPECT_EQ(a.event_hash, b.event_hash) << "plan: " << a.plan_text;
  EXPECT_EQ(a.events_recorded, b.events_recorded) << "plan: " << a.plan_text;
  EXPECT_EQ(a.mib_hash, b.mib_hash) << "plan: " << a.plan_text;
}

}  // namespace
}  // namespace nw::newswire

// Tests for the phi-accrual failure detector (DESIGN.md §10): cold start,
// steady state at a constant gossip rhythm, adaptation to a step change in
// the observed period (the gray-slow case the fixed timeout mishandles),
// and behavior at simulation time zero.
#include <gtest/gtest.h>

#include <string>

#include "astrolabe/failure_detector.h"

namespace nw::astrolabe {
namespace {

PhiAccrualConfig TestConfig() {
  PhiAccrualConfig cfg;  // library defaults; spelled out where asserted
  return cfg;
}

// ---- cold start --------------------------------------------------------

TEST(PhiAccrualDetector, UnknownPeerIsNeverSuspected) {
  PhiAccrualDetector det(TestConfig());
  EXPECT_FALSE(det.Known("0/n3"));
  EXPECT_DOUBLE_EQ(det.Phi("0/n3", 100.0), 0.0);
  EXPECT_FALSE(det.Suspect("0/n3", 100.0, 1.0));
}

TEST(PhiAccrualDetector, FirstHeartbeatAnchorsWithoutRecordingAnInterval) {
  PhiAccrualDetector det(TestConfig());
  det.Heartbeat("0/n3", 5.0);
  EXPECT_TRUE(det.Known("0/n3"));
  EXPECT_EQ(det.SampleCount("0/n3"), 0u);
  EXPECT_DOUBLE_EQ(det.LastArrival("0/n3"), 5.0);
  // No model yet: only the cap-rounds fallback can suspect.
  EXPECT_FALSE(det.Suspect("0/n3", 5.0 + 2.0, 1.0));
}

TEST(PhiAccrualDetector, CapRoundsFallbackCoversTheColdStart) {
  PhiAccrualDetector det(TestConfig());
  det.Heartbeat("0/n3", 0.0);
  // One anchor, zero intervals: below the cap the peer gets the benefit of
  // the doubt, beyond it the silence is conclusive regardless of model.
  EXPECT_FALSE(det.Suspect("0/n3", 15.9, 1.0));
  EXPECT_TRUE(det.Suspect("0/n3", 16.1, 1.0));
}

TEST(PhiAccrualDetector, WorksFromSimulationTimeZero) {
  PhiAccrualDetector det(TestConfig());
  det.Heartbeat("0/n0", 0.0);
  det.Heartbeat("0/n0", 1.0);
  det.Heartbeat("0/n0", 2.0);
  det.Heartbeat("0/n0", 3.0);
  EXPECT_EQ(det.SampleCount("0/n0"), 3u);
  EXPECT_FALSE(det.Suspect("0/n0", 3.5, 1.0));
}

// ---- steady state ------------------------------------------------------

TEST(PhiAccrualDetector, ConstantRhythmIsNotSuspectedAtItsOwnPeriod) {
  PhiAccrualDetector det(TestConfig());
  double t = 0;
  for (int i = 0; i < 20; ++i, t += 1.0) det.Heartbeat("0/n7", t);
  const double last = t - 1.0;
  // Shortly after the expected next beat phi is still small...
  EXPECT_LT(det.Phi("0/n7", last + 1.0), 1.0);
  EXPECT_FALSE(det.Suspect("0/n7", last + 1.0, 1.0));
  // ...but phi grows monotonically with silence (probed inside the
  // unsaturated region; far out it clamps at -log10(1e-15)).
  const double p1 = det.Phi("0/n7", last + 1.0);
  const double p2 = det.Phi("0/n7", last + 1.15);
  const double p3 = det.Phi("0/n7", last + 1.3);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  // Well past the floor, a multi-period silence is conclusive.
  EXPECT_TRUE(det.Suspect("0/n7", last + 7.0, 1.0));
}

TEST(PhiAccrualDetector, FloorRoundsShieldJitterEvenWithATightModel) {
  PhiAccrualConfig cfg = TestConfig();
  cfg.floor_rounds = 3;
  PhiAccrualDetector det(cfg);
  double t = 0;
  for (int i = 0; i < 20; ++i, t += 1.0) det.Heartbeat("0/n7", t);
  const double last = t - 1.0;
  // The zero-variance model would make phi explode at 2 periods of
  // silence, but inside floor_rounds * period suspicion is withheld.
  EXPECT_GT(det.Phi("0/n7", last + 2.5), cfg.threshold);
  EXPECT_FALSE(det.Suspect("0/n7", last + 2.5, 1.0));
}

TEST(PhiAccrualDetector, MinSamplesGateBeforeTheModelDecides)  {
  PhiAccrualConfig cfg = TestConfig();
  cfg.min_samples = 3;
  PhiAccrualDetector det(cfg);
  det.Heartbeat("0/n9", 0.0);
  det.Heartbeat("0/n9", 1.0);  // one interval recorded
  EXPECT_EQ(det.SampleCount("0/n9"), 1u);
  // Phi over one sample would be conclusive; the gate withholds judgment
  // (only the cap fallback applies until min_samples accumulate). Probed
  // past the floor so the gate, not the floor, is what declines.
  EXPECT_FALSE(det.Suspect("0/n9", 9.0, 1.0));
}

// ---- adaptation (the gray-slow case) -----------------------------------

TEST(PhiAccrualDetector, AdaptsToAStepChangeInTheGossipPeriod) {
  PhiAccrualDetector det(TestConfig());
  double t = 0;
  for (int i = 0; i < 10; ++i, t += 1.0) det.Heartbeat("0/n3", t);
  // The node turns gray: same protocol, 8x slower. Fill the window with
  // the new rhythm.
  for (int i = 0; i < 20; ++i, t += 8.0) det.Heartbeat("0/n3", t);
  const double last = t - 8.0;
  // A fixed 6-round timeout at period 1.0 would have expired this row ~6 s
  // into every 8 s gap. The adapted model treats 8 s of silence as normal.
  EXPECT_LT(det.Phi("0/n3", last + 8.0), 1.0);
  EXPECT_FALSE(det.Suspect("0/n3", last + 8.0, 1.0));
  // Genuine death still gets caught: silence far beyond the learned
  // rhythm pushes phi over any threshold.
  EXPECT_TRUE(det.Suspect("0/n3", last + 40.0, 1.0));
}

TEST(PhiAccrualDetector, NegativeIntervalsAreIgnored) {
  PhiAccrualDetector det(TestConfig());
  det.Heartbeat("0/n1", 10.0);
  det.Heartbeat("0/n1", 9.0);  // out-of-order merge: no negative interval
  EXPECT_EQ(det.SampleCount("0/n1"), 0u);
  EXPECT_DOUBLE_EQ(det.LastArrival("0/n1"), 10.0);
}

// ---- bookkeeping -------------------------------------------------------

TEST(PhiAccrualDetector, ForgetAndClearDropHistory) {
  PhiAccrualDetector det(TestConfig());
  det.Heartbeat("0/n1", 0.0);
  det.Heartbeat("1/z2", 0.0);
  det.Forget("0/n1");
  EXPECT_FALSE(det.Known("0/n1"));
  EXPECT_TRUE(det.Known("1/z2"));
  det.Clear();
  EXPECT_FALSE(det.Known("1/z2"));
}

TEST(PhiAccrualDetector, WindowIsARingOldSamplesAgeOut) {
  PhiAccrualConfig cfg = TestConfig();
  cfg.window = 4;
  PhiAccrualDetector det(cfg);
  double t = 0;
  for (int i = 0; i < 3; ++i, t += 1.0) det.Heartbeat("0/n5", t);
  for (int i = 0; i < 8; ++i, t += 5.0) det.Heartbeat("0/n5", t);
  const double last = t - 5.0;
  // The 1 s intervals fell out of the 4-slot window; the model is pure
  // 5 s rhythm now.
  EXPECT_LT(det.Phi("0/n5", last + 5.0), 1.0);
}

}  // namespace
}  // namespace nw::astrolabe

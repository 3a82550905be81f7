// Reusable system-invariant checkers (DESIGN.md §5): the properties a
// NewsWire deployment must satisfy after faults heal and repair quiesces,
// extracted from the ad-hoc loops that used to live in torture_test.cc.
//
// Each checker returns a structured InvariantReport rather than asserting,
// so tests, benches, and the CLI can all consume the same verdicts:
//
//   testing::DeliveryRecorder rec(sys);
//   ... run scenario ...
//   EXPECT_TRUE(testing::CheckNoDuplicateDelivery(sys, rec).ok());
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "astrolabe/deployment.h"
#include "newswire/system.h"

namespace nw::testing {

// ---- reports -----------------------------------------------------------

struct Violation {
  std::string detail;
};

struct InvariantReport {
  std::string invariant;          // e.g. "membership-agreement"
  std::vector<Violation> violations;
  std::size_t checked = 0;        // facts inspected (deliveries, agents, ...)
  double completeness = 1.0;      // set by CheckSubscriberCompleteness

  bool ok() const noexcept { return violations.empty(); }
  // "<invariant>: ok (N checked)" or the first few violations, for use in
  // EXPECT_TRUE(report.ok()) << report.Summary().
  std::string Summary() const;
};

// ---- delivery recording ------------------------------------------------

// One accepted delivery at a live subscriber. `incarnation` is the
// subscriber node's incarnation at delivery time: a crash wipes the
// process-memory cache, so re-receiving an item after a restart is
// legitimate, while a duplicate within one incarnation is a bug.
struct DeliveryRecord {
  double time = 0;
  std::size_t subscriber = 0;
  std::uint32_t incarnation = 0;
  std::string item_id;
  std::string subject;
  std::string scope;

  bool operator==(const DeliveryRecord& other) const = default;
};

// Installs an accounting handler on every subscriber of `sys` and records
// the full delivery trace. Construct before running the scenario and keep
// alive for the lifetime of the system.
//
// Each subscriber appends to its own buffer, and trace() merges the buffers
// canonically by (time, subscriber, arrival order). TraceHash() and the
// pinned goldens in tests/golden_replay_test.cc encode that order.
class DeliveryRecorder {
 public:
  explicit DeliveryRecorder(newswire::NewswireSystem& sys);

  DeliveryRecorder(const DeliveryRecorder&) = delete;
  DeliveryRecorder& operator=(const DeliveryRecorder&) = delete;

  // Canonically merged trace, re-merged when new deliveries arrived.
  const std::vector<DeliveryRecord>& trace() const;

  // Order-sensitive digest of the whole trace; two runs of the same
  // (config, seed, fault plan) must produce equal hashes.
  std::uint64_t TraceHash() const;

 private:
  newswire::NewswireSystem& sys_;
  // Per-subscriber append-only buffers.
  std::vector<std::vector<DeliveryRecord>> per_sub_;
  mutable std::vector<DeliveryRecord> trace_;  // cached canonical merge
};

// ---- published-item bookkeeping ----------------------------------------

// What a scenario published, for completeness accounting.
struct PublishedItem {
  std::string id;
  std::string subject;
  std::string scope = "/";
};

// ---- checkers ----------------------------------------------------------

// Every live agent's root-zone summary agrees the membership is
// `expected_members` (or at least `min_members` when > 0, for lossy steady
// states where a row may be mid-refresh; over-counting is always a
// violation).
InvariantReport CheckMembershipAgreement(astrolabe::Deployment& dep,
                                         std::int64_t expected_members,
                                         std::int64_t min_members = 0);
// NewswireSystem variant: expected = live node count of the deployment.
InvariantReport CheckMembershipAgreement(newswire::NewswireSystem& sys);

// Every live subscriber's cache holds every published item matching one of
// its subjects (and whose scope covers it). The report's `completeness`
// field carries the achieved ratio; a ratio below `min_completeness`
// yields per-item violations.
InvariantReport CheckSubscriberCompleteness(
    newswire::NewswireSystem& sys, const std::vector<PublishedItem>& published,
    double min_completeness = 1.0);

// No subscriber accepted the same item twice within one incarnation.
InvariantReport CheckNoDuplicateDelivery(newswire::NewswireSystem& sys,
                                         const DeliveryRecorder& recorder);

// Every delivery went to a subscriber whose zone path lies inside the
// item's dissemination scope (paper §8: scoped items never leak).
InvariantReport CheckNoScopeLeak(newswire::NewswireSystem& sys,
                                 const DeliveryRecorder& recorder);

// Every delivery went to an actual subscriber of the item's subject.
InvariantReport CheckSubscriptionSoundness(newswire::NewswireSystem& sys,
                                           const DeliveryRecorder& recorder);

// Two delivery traces are bit-identical (replay determinism).
InvariantReport CheckReplayIdentical(const std::vector<DeliveryRecord>& a,
                                     const std::vector<DeliveryRecord>& b);

// Both traces delivered the same set of (subscriber, item) pairs — order,
// timing, and duplicate re-deliveries across incarnations are ignored.
// This is the right equality for fault scenarios compared against a
// fault-free run: a crashed subscriber loses its cache, so cache-based
// completeness under-reports even when every delivery happened.
InvariantReport CheckSameDeliverySets(const std::vector<DeliveryRecord>& a,
                                      const std::vector<DeliveryRecord>& b);

// Content-only hash of every agent's replicated state: zone paths, row
// keys, and attribute names/values at every level — deliberately excluding
// row versions and refresh times. Two runs that converged to the same
// knowledge hash identically even when their gossip trajectories (message
// counts, timing, version numbers) differed; the wire-format equivalence
// tests compare full- and delta-mode runs through this.
std::uint64_t MibContentHash(astrolabe::Deployment& dep);

}  // namespace nw::testing

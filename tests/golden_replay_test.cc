// Golden replay suite: every committed fault-plan scenario from
// tests/scenarios.h, and the determinism torture seed, is replayed once and
// its digests are compared against constants committed below — the
// EventTracer sequence hash, the number of trace records, the MIB content
// hash and the delivery trace hash.
//
// The constants pin the simulator's event order (DESIGN.md §9) and every
// protocol decision that feeds a trace record, so a change that should be
// behaviour-neutral (a refactor, a host-side speedup) must leave them
// untouched. A deliberate behaviour change re-pins them: a mismatch prints
// the replacement row ready to paste, and the commit that changes a row
// says why.
//
// Each scenario is also replayed twice and the two runs compared, so a
// golden mismatch caused by nondeterminism (hash-container order,
// address-dependent ordering, uninitialised state) shows up as a replay
// mismatch of its own rather than as one more changed digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "newswire/system.h"
#include "obs/trace.h"
#include "scenarios.h"
#include "sim/fault_plan.h"
#include "testing/invariants.h"

namespace nw::newswire {
namespace {

using testing::kReliableScenarios;
using testing::kScenarios;
using testing::ReliableScenario;
using testing::Scenario;

struct Golden {
  const char* name;
  std::uint64_t trace_hash;       // EventTracer::SequenceHash
  std::uint64_t events_recorded;  // EventTracer::total_recorded
  std::uint64_t mib_hash;         // MibContentHash after settle
  std::uint64_t delivery_hash;    // DeliveryRecorder::TraceHash
};

constexpr Golden kScenarioGoldens[] = {
    {"CrashDuringPublish", 0xdca849214cfece0fu, 228008, 0x6f46b538ed8f8f7au,
     0xc7433f641da234b6u},
    {"RepresentativeCrash", 0x56e6795ef2cc887bu, 220185, 0xe2112fa70e4cc568u,
     0x5595aa482024885cu},
    {"ZonePartition", 0x7deb9501737be027u, 214091, 0x21b1e4500109e423u,
     0x098293e02ac3cc51u},
    {"DoublePartition", 0xccef73249935f72cu, 207765, 0xdc566a8cd27543b5u,
     0x30e0356cf7c7ce85u},
    {"LossBurstDuringRepair", 0x6722380906cdd4efu, 204591, 0x22ce734737b13133u,
     0xe0ea021a1963fc89u},
    {"LossWithCrash", 0xccae519b28009856u, 205307, 0x3ef5ae66eb451846u,
     0x6b333414b9b0c106u},
    {"RestartStorm", 0x29133a57507c9ea5u, 208803, 0xce388f0f2a9406f7u,
     0xa5fe0e568d70f345u},
    {"FlappingNode", 0x5f020bf48aa80ac3u, 212801, 0xcc2ba124ec75a8a9u,
     0xdf409bf37b303c05u},
    {"PublisherSlowUplink", 0xfef328e9eee5a65du, 214473, 0x494aa11e4b329980u,
     0xb2fb989305ad1662u},
    {"ScopedPublishDuringPartition", 0xd2009d1d41fce515u, 206746,
     0x2cdece64b1eb2dceu, 0x2909888d3ab25fa6u},
};

constexpr Golden kReliableGoldens[] = {
    {"RepCrashMidDissemination", 0xc2fbeb31765ec791u, 113252,
     0x2d194e780a477c8fu, 0x22503a9136fc3da0u},
    {"ChildZonePartition", 0xa678dcb782323a19u, 109981, 0x4d3403915b70285bu,
     0xa89bb0384edeca77u},
};

constexpr Golden kTortureGolden = {"TortureSeed", 0x692ae6c903a1b7e0u, 330068,
                                   0x35c992ca0a5c6685u, 0x473f1cbed9606a9eu};

template <std::size_t N>
const Golden* FindGolden(const Golden (&table)[N], const char* name) {
  const auto it = std::find_if(std::begin(table), std::end(table),
                               [name](const Golden& g) {
                                 return std::strcmp(g.name, name) == 0;
                               });
  return it == std::end(table) ? nullptr : &*it;
}

// The table row for `g`, as it is written in the source above.
std::string Row(const Golden& g) {
  char row[192];
  std::snprintf(row, sizeof row,
                "{\"%s\", 0x%016" PRIx64 "u, %" PRIu64 ", 0x%016" PRIx64
                "u, 0x%016" PRIx64 "u},",
                g.name, g.trace_hash, g.events_recorded, g.mib_hash,
                g.delivery_hash);
  return row;
}

void ExpectMatchesGolden(const Golden& replayed, const Golden* pinned) {
  ASSERT_NE(pinned, nullptr) << "no pinned golden for " << replayed.name;
  EXPECT_EQ(Row(replayed), Row(*pinned))
      << "replay differs from the pinned golden; if the change is "
         "deliberate, the first row replaces the second";
}

// Replays one committed scenario exactly as scenario_test.cc does and
// digests everything observable about the run.
Golden RunCommittedScenario(const Scenario& scenario) {
  auto plan = sim::FaultPlan::Parse(scenario.plan);
  EXPECT_TRUE(plan.has_value()) << scenario.plan;

  obs::EventTracer tracer(1 << 18);
  SystemConfig cfg = testing::CommittedScenarioConfig();
  cfg.tracer = &tracer;
  NewswireSystem sys(cfg);

  testing::DeliveryRecorder recorder(sys);
  sys.RunFor(10);
  const double base = sys.Now();
  plan->ApplyTo(sys.deployment().net(), base);

  const astrolabe::ZonePath zone = sys.publisher_agent(0).path().Prefix(1);
  for (int k = 0; k < 30; ++k) {
    sys.deployment().sim().At(base + k, [&sys, &zone, &scenario, k] {
      const bool scoped = scenario.scoped_publish && k % 2 == 1;
      sys.PublishArticle(0, sys.catalog()[std::size_t(k) % 3],
                         scoped ? zone : astrolabe::ZonePath::Root());
    });
  }
  sys.RunFor(std::max(30.0, plan->EndTime()) + 120);

  EXPECT_GT(recorder.trace().size(), 0u);
  return {scenario.name, tracer.SequenceHash(), tracer.total_recorded(),
          testing::MibContentHash(sys.deployment()), recorder.TraceHash()};
}

Golden RunReliableScenario(const ReliableScenario& scenario) {
  obs::EventTracer tracer(1 << 18);
  SystemConfig cfg = testing::ReliableScenarioConfig();
  cfg.tracer = &tracer;
  NewswireSystem sys(cfg);

  testing::DeliveryRecorder recorder(sys);
  sys.RunFor(10);
  const double base = sys.Now();

  auto plan = sim::FaultPlan::Parse(scenario.plan);
  EXPECT_TRUE(plan.has_value()) << scenario.plan;
  plan->ApplyTo(sys.deployment().net(), base);

  for (int k = 0; k < 20; ++k) {
    sys.deployment().sim().At(base + k, [&sys, k] {
      sys.PublishArticle(0, sys.catalog()[std::size_t(k) % 3]);
    });
  }
  sys.RunFor(std::max(20.0, plan->EndTime()) + 60);

  EXPECT_GT(recorder.trace().size(), 0u);
  return {scenario.name, tracer.SequenceHash(), tracer.total_recorded(),
          testing::MibContentHash(sys.deployment()), recorder.TraceHash()};
}

// The golden suites take an index into the scenario table: an index
// prints as itself, so the test names do not depend on how gtest prints a
// Scenario.
class GoldenScenarioReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenScenarioReplay, MatchesPinnedDigests) {
  const Scenario& scenario = kScenarios[GetParam()];
  ExpectMatchesGolden(RunCommittedScenario(scenario),
                      FindGolden(kScenarioGoldens, scenario.name));
}

INSTANTIATE_TEST_SUITE_P(
    Committed, GoldenScenarioReplay,
    ::testing::Range<std::size_t>(0, std::size(kScenarios)),
    [](const auto& info) { return std::string(kScenarios[info.param].name); });

class GoldenReliableReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenReliableReplay, MatchesPinnedDigests) {
  const ReliableScenario& scenario = kReliableScenarios[GetParam()];
  ExpectMatchesGolden(RunReliableScenario(scenario),
                      FindGolden(kReliableGoldens, scenario.name));
}

INSTANTIATE_TEST_SUITE_P(
    Committed, GoldenReliableReplay,
    ::testing::Range<std::size_t>(0, std::size(kReliableScenarios)),
    [](const auto& info) {
      return std::string(kReliableScenarios[info.param].name);
    });

// Two replays of one scenario must agree on every digest. The suite and
// test names date from the sharded engine, when the runs compared were at
// 1, 2 and 4 simulator threads; they are kept so the test IDs stay stable.
// One thread is the only count left, so both runs use it.
void ExpectIdenticalReplays(const Golden& first, const Golden& second) {
  EXPECT_EQ(Row(first), Row(second)) << "two replays of one scenario differ";
}

// Indexed into the scenario table, like the golden suites.
class ParallelScenarioEquivalence
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelScenarioEquivalence, BitIdenticalAcrossThreadCounts) {
  const Scenario& scenario = kScenarios[GetParam()];
  ExpectIdenticalReplays(RunCommittedScenario(scenario),
                         RunCommittedScenario(scenario));
}

INSTANTIATE_TEST_SUITE_P(
    Committed, ParallelScenarioEquivalence,
    ::testing::Range<std::size_t>(0, std::size(kScenarios)),
    [](const auto& info) { return std::string(kScenarios[info.param].name); });

class ParallelReliableEquivalence
    : public ::testing::TestWithParam<ReliableScenario> {};

TEST_P(ParallelReliableEquivalence, BitIdenticalAcrossThreadCounts) {
  ExpectIdenticalReplays(RunReliableScenario(GetParam()),
                         RunReliableScenario(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Committed, ParallelReliableEquivalence,
                         ::testing::ValuesIn(kReliableScenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(GoldenTortureReplay, MatchesPinnedDigests) {
  const testing::ChurnDigest d =
      testing::RunTortureChurn(testing::kTortureSeed);
  EXPECT_GT(d.delivered, 0u);
  ExpectMatchesGolden({"TortureSeed", d.event_hash, d.events_recorded,
                       d.mib_hash, d.delivery_hash},
                      &kTortureGolden);
}

}  // namespace
}  // namespace nw::newswire

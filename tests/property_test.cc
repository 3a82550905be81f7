// Property-based tests: protocol invariants checked across parameter
// sweeps (gtest TEST_P). These complement the example-based unit tests
// with the properties the design *must* uphold at any point in the
// parameter space.
#include <gtest/gtest.h>

#include <memory>

#include "astrolabe/deployment.h"
#include "astrolabe/sql/eval.h"
#include "astrolabe/sql/parser.h"
#include "multicast/multicast.h"
#include "newswire/message_cache.h"
#include "newswire/system.h"
#include "pubsub/bloom_filter.h"
#include "testing/invariants.h"
#include "util/rng.h"

namespace nw {
namespace {

// ---------------------------------------------------------------------
// P1: gossip convergence — for any (n, branching, loss), every live agent
// eventually agrees on the full membership.
// ---------------------------------------------------------------------

struct GossipCase {
  std::size_t n;
  std::size_t branching;
  double loss;
  double run_seconds;
};

class GossipConvergenceProperty : public ::testing::TestWithParam<GossipCase> {};

TEST_P(GossipConvergenceProperty, AllAgentsAgreeOnMembership) {
  const GossipCase& param = GetParam();
  astrolabe::DeploymentConfig cfg;
  cfg.num_agents = param.n;
  cfg.branching = param.branching;
  cfg.net.loss_prob = param.loss;
  // Under sustained loss, rows occasionally flap near the failure timeout;
  // give them more slack so the steady state is clean.
  if (param.loss > 0) cfg.fail_timeout_rounds = 12;
  cfg.seed = 1234;
  astrolabe::Deployment dep(cfg);
  dep.StartAll();
  dep.RunFor(param.run_seconds);
  // Loss-free: exact agreement. Lossy steady state: at any instant a row
  // may be mid-refresh, but the view must stay essentially complete and
  // never over-count — both encoded in the shared membership checker.
  const std::int64_t min_members =
      param.loss == 0 ? std::int64_t(param.n)
                      : std::int64_t(double(param.n) * 0.95);
  const auto report = testing::CheckMembershipAgreement(
      dep, std::int64_t(param.n), min_members);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.checked, param.n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GossipConvergenceProperty,
    ::testing::Values(GossipCase{8, 4, 0.0, 60}, GossipCase{27, 3, 0.0, 120},
                      GossipCase{64, 8, 0.1, 160},
                      GossipCase{32, 4, 0.2, 200},
                      GossipCase{81, 3, 0.05, 200},
                      GossipCase{16, 16, 0.0, 60}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.branching) + "_loss" +
             std::to_string(int(info.param.loss * 100));
    });

// ---------------------------------------------------------------------
// P2: multicast completeness — a root SendToZone reaches every leaf
// exactly once under no loss, and nearly all with redundancy under loss.
// ---------------------------------------------------------------------

struct MulticastCase {
  std::size_t n;
  std::size_t branching;
  int redundancy;
  double loss;
  double min_delivery_rate;
};

class MulticastCompletenessProperty
    : public ::testing::TestWithParam<MulticastCase> {};

TEST_P(MulticastCompletenessProperty, DeliversToLeavesOnce) {
  const MulticastCase& param = GetParam();
  astrolabe::DeploymentConfig cfg;
  cfg.num_agents = param.n;
  cfg.branching = param.branching;
  cfg.net.loss_prob = param.loss;
  cfg.seed = 77;
  astrolabe::Deployment dep(cfg);
  multicast::MulticastConfig mc;
  mc.redundancy = param.redundancy;
  std::vector<std::unique_ptr<multicast::MulticastService>> svc;
  std::vector<int> delivered(param.n, 0);
  for (std::size_t i = 0; i < dep.size(); ++i) {
    svc.push_back(
        std::make_unique<multicast::MulticastService>(dep.agent(i), mc));
    svc.back()->SetDeliveryCallback(
        [&delivered, i](const multicast::Envelope&) { ++delivered[i]; });
  }
  dep.WarmStart();
  constexpr int kItems = 5;
  for (int k = 0; k < kItems; ++k) {
    multicast::Item item;
    item.id = "i#" + std::to_string(k);
    item.body_bytes = 100;
    svc[0]->SendToZone(astrolabe::ZonePath::Root(), std::move(item));
  }
  dep.RunFor(60);
  std::size_t total = 0;
  for (std::size_t i = 0; i < param.n; ++i) {
    EXPECT_LE(delivered[i], kItems) << "duplicate delivery at leaf " << i;
    total += std::size_t(delivered[i]);
  }
  const double rate = double(total) / double(param.n * kItems);
  EXPECT_GE(rate, param.min_delivery_rate);
  if (param.loss == 0) {
    EXPECT_DOUBLE_EQ(rate, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MulticastCompletenessProperty,
    ::testing::Values(MulticastCase{16, 4, 1, 0.0, 1.0},
                      MulticastCase{27, 3, 1, 0.0, 1.0},
                      MulticastCase{64, 8, 1, 0.0, 1.0},
                      MulticastCase{125, 5, 2, 0.0, 1.0},
                      MulticastCase{64, 4, 2, 0.05, 0.97},
                      MulticastCase{64, 4, 3, 0.10, 0.95}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.branching) + "_k" +
             std::to_string(info.param.redundancy) + "_loss" +
             std::to_string(int(info.param.loss * 100));
    });

// ---------------------------------------------------------------------
// P3: Bloom filter — no false negatives ever; false positives shrink as
// the array grows.
// ---------------------------------------------------------------------

struct BloomCase {
  std::size_t bits;
  std::size_t hashes;
  std::size_t subs;
};

class BloomProperty : public ::testing::TestWithParam<BloomCase> {};

TEST_P(BloomProperty, NeverForgetsASubscription) {
  const BloomCase& param = GetParam();
  pubsub::BloomConfig cfg;
  cfg.bits = param.bits;
  cfg.hashes = param.hashes;
  pubsub::BloomFilter f(cfg);
  for (std::size_t s = 0; s < param.subs; ++s) {
    f.Add("sub" + std::to_string(s));
  }
  for (std::size_t s = 0; s < param.subs; ++s) {
    EXPECT_TRUE(f.MightContain("sub" + std::to_string(s)));
    EXPECT_TRUE(
        pubsub::BloomFilter::Admits(f.bits(), f.Positions("sub" + std::to_string(s))));
  }
}

TEST_P(BloomProperty, LargerArrayNeverWorse) {
  const BloomCase& param = GetParam();
  auto fp_count = [&](std::size_t bits) {
    pubsub::BloomConfig cfg;
    cfg.bits = bits;
    cfg.hashes = param.hashes;
    pubsub::BloomFilter f(cfg);
    for (std::size_t s = 0; s < param.subs; ++s) {
      f.Add("sub" + std::to_string(s));
    }
    int fp = 0;
    for (int p = 0; p < 3000; ++p) {
      if (f.MightContain("probe" + std::to_string(p))) ++fp;
    }
    return fp;
  };
  EXPECT_GE(fp_count(param.bits), fp_count(param.bits * 8));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BloomProperty,
    ::testing::Values(BloomCase{128, 1, 20}, BloomCase{1024, 1, 100},
                      BloomCase{1024, 4, 100}, BloomCase{256, 2, 200},
                      BloomCase{4096, 1, 1000}),
    [](const auto& info) {
      return "bits" + std::to_string(info.param.bits) + "_k" +
             std::to_string(info.param.hashes) + "_s" +
             std::to_string(info.param.subs);
    });

// ---------------------------------------------------------------------
// P4: aggregation composition — Astrolabe's core correctness property:
// aggregating two half-tables and then aggregating the two summary rows
// equals aggregating the whole table directly (for the decomposable
// aggregates the system relies on).
// ---------------------------------------------------------------------

class AggregationCompositionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggregationCompositionProperty, TwoLevelEqualsFlat) {
  util::DeterministicRng rng(GetParam());
  astrolabe::Table whole, left, right;
  const std::size_t rows = 4 + rng.NextBelow(60);
  for (std::size_t r = 0; r < rows; ++r) {
    astrolabe::RowEntry e;
    e.attrs["nmembers"] = std::int64_t(1 + rng.NextBelow(50));
    e.attrs["load"] = rng.NextDouble();
    astrolabe::BitVector bv(128);
    for (int b = 0; b < 4; ++b) bv.Set(rng.NextBelow(128));
    e.attrs["subs"] = bv;
    e.version = 1;
    const std::string key = "n" + std::to_string(r);
    whole.MergeEntry(key, e, 0);
    (r % 2 ? left : right).MergeEntry(key, e, 0);
  }
  const auto query = astrolabe::sql::ParseQuery(
      "SELECT SUM(nmembers) AS nmembers, MIN(load) AS lo, MAX(load) AS hi, "
      "OR(subs) AS subs, COUNT(*) AS cnt");
  // COUNT at the second level must sum the first-level counts, so the
  // reaggregation query differs for COUNT (as in real Astrolabe, where
  // membership is counted via SUM(nmembers)).
  const auto requery = astrolabe::sql::ParseQuery(
      "SELECT SUM(nmembers) AS nmembers, MIN(lo) AS lo, MAX(hi) AS hi, "
      "OR(subs) AS subs, SUM(cnt) AS cnt");

  astrolabe::Row flat = astrolabe::sql::EvalQuery(query, whole);
  astrolabe::Table mid;
  astrolabe::RowEntry le, re;
  le.attrs = astrolabe::sql::EvalQuery(query, left);
  re.attrs = astrolabe::sql::EvalQuery(query, right);
  le.version = re.version = 1;
  mid.MergeEntry("left", le, 0);
  mid.MergeEntry("right", re, 0);
  astrolabe::Row composed = astrolabe::sql::EvalQuery(requery, mid);

  EXPECT_TRUE(flat.at("nmembers").Equals(composed.at("nmembers")));
  EXPECT_TRUE(flat.at("lo").Equals(composed.at("lo")));
  EXPECT_TRUE(flat.at("hi").Equals(composed.at("hi")));
  EXPECT_TRUE(flat.at("subs").Equals(composed.at("subs")));
  EXPECT_TRUE(flat.at("cnt").Equals(composed.at("cnt")));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationCompositionProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---------------------------------------------------------------------
// P5: message cache — capacity is never exceeded, a superseded revision
// never coexists with its successor, duplicates never double-count.
// ---------------------------------------------------------------------

class CacheProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheProperty, InvariantsUnderRandomWorkload) {
  const std::size_t capacity = GetParam();
  newswire::MessageCache::Config cfg;
  cfg.capacity = capacity;
  newswire::MessageCache cache(cfg);
  util::DeterministicRng rng(capacity * 7919);
  std::vector<newswire::NewsItem> history;
  for (int step = 0; step < 500; ++step) {
    newswire::NewsItem item;
    item.publisher = "p" + std::to_string(rng.NextBelow(3));
    // (publisher, seq) is unique in the real system (§9); keep it so.
    item.seq = std::uint64_t(step) + 1;
    item.subject = "s" + std::to_string(rng.NextBelow(5));
    if (!history.empty() && rng.NextBool(0.3)) {
      const auto& prev = history[rng.NextBelow(history.size())];
      item.supersedes = prev.Id();
      item.revision = prev.revision + 1;
    }
    cache.Insert(item, double(step));
    history.push_back(item);
    ASSERT_LE(cache.size(), capacity);
    if (!item.supersedes.empty() && cache.Contains(item.Id())) {
      EXPECT_FALSE(cache.Contains(item.supersedes))
          << "superseded revision coexists with successor";
    }
  }
  const auto& stats = cache.stats();
  EXPECT_EQ(stats.inserted,
            cache.size() + stats.evicted + stats.superseded_dropped);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheProperty,
                         ::testing::Values(1u, 4u, 16u, 64u, 1024u));

// ---------------------------------------------------------------------
// P6: whole-system determinism and subscription soundness — for any seed,
// a run is replayable and every delivery went to an actual subscriber of
// the item's subject.
// ---------------------------------------------------------------------

class SystemProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemProperty, ReplayableAndSound) {
  struct Run {
    std::vector<testing::DeliveryRecord> trace;
    testing::InvariantReport soundness;
  };
  auto run = [&] {
    newswire::SystemConfig cfg;
    cfg.num_subscribers = 47;
    cfg.num_publishers = 2;
    cfg.branching = 4;
    cfg.catalog_size = 12;
    cfg.subjects_per_subscriber = 3;
    cfg.seed = GetParam();
    newswire::NewswireSystem sys(cfg);
    testing::DeliveryRecorder recorder(sys);
    sys.RunFor(10);
    for (int k = 0; k < 10; ++k) {
      sys.PublishArticle(k % 2, sys.RandomSubject());
    }
    sys.RunFor(40);
    return Run{recorder.trace(),
               testing::CheckSubscriptionSoundness(sys, recorder)};
  };
  const Run a = run();
  const Run b = run();
  EXPECT_TRUE(a.soundness.ok()) << a.soundness.Summary();
  const auto replay = testing::CheckReplayIdentical(a.trace, b.trace);
  EXPECT_TRUE(replay.ok()) << replay.Summary();
  EXPECT_GT(a.trace.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemProperty,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99991u));

// ---------------------------------------------------------------------
// P7: zone paths — Parse/ToString round-trip and prefix laws.
// ---------------------------------------------------------------------

class ZonePathProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZonePathProperty, RoundTripAndPrefixLaws) {
  util::DeterministicRng rng(GetParam());
  const std::size_t depth = 1 + rng.NextBelow(6);
  astrolabe::ZonePath path;
  for (std::size_t d = 0; d < depth; ++d) {
    path = path.Child("c" + std::to_string(rng.NextBelow(100)));
  }
  EXPECT_EQ(astrolabe::ZonePath::Parse(path.ToString()), path);
  EXPECT_EQ(path.Depth(), depth);
  for (std::size_t d = 0; d <= depth; ++d) {
    EXPECT_TRUE(path.Prefix(d).IsPrefixOf(path));
  }
  EXPECT_TRUE(astrolabe::ZonePath::Root().IsPrefixOf(path));
  if (depth >= 1) {
    EXPECT_EQ(path.Parent(), path.Prefix(depth - 1));
    EXPECT_FALSE(path.IsPrefixOf(path.Parent()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZonePathProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace nw

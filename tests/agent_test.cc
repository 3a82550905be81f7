// Integration tests for the Astrolabe agent: gossip convergence,
// aggregation propagation, failure detection, representative re-election,
// mobile code distribution, restart re-join, and warm start.
#include <gtest/gtest.h>

#include <cstdint>

#include "astrolabe/deployment.h"

namespace nw::astrolabe {
namespace {

DeploymentConfig SmallConfig(std::size_t branching, std::uint64_t seed = 1) {
  DeploymentConfig cfg;
  cfg.branching = branching;
  cfg.gossip_period = 2.0;
  cfg.fail_timeout_rounds = 6;
  cfg.contacts_per_zone = 2;
  cfg.seed = seed;
  return cfg;
}

std::int64_t RootMembers(const Agent& agent) {
  Row summary = agent.ZoneSummary(0);
  auto it = summary.find(kAttrMembers);
  return it == summary.end() ? 0 : it->second.AsInt();
}

TEST(AgentGossip, FlatZoneConverges) {
  Deployment d(8, SmallConfig(8));
  d.StartAll();
  d.RunFor(40);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.agent(i).TableAt(0).size(), 8u) << "agent " << i;
    EXPECT_EQ(RootMembers(d.agent(i)), 8) << "agent " << i;
  }
}

TEST(AgentGossip, ThreeLevelHierarchyConverges) {
  Deployment d(27, SmallConfig(3));
  ASSERT_EQ(d.Depth(), 3u);
  d.StartAll();
  d.RunFor(120);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(RootMembers(d.agent(i)), 27) << "agent " << i;
    // Every agent sees all 3 top-level zones.
    EXPECT_EQ(d.agent(i).TableAt(0).size(), 3u) << "agent " << i;
  }
}

TEST(AgentGossip, AttributeChangePropagatesToRootSummary) {
  Deployment d(16, SmallConfig(4));
  d.InstallFunctionEverywhere("maxtemp", "SELECT MAX(temp) AS temp");
  d.StartAll();
  d.RunFor(60);
  d.agent(5).SetLocalAttr("temp", 99.5);
  d.RunFor(60);
  for (std::size_t i = 0; i < d.size(); ++i) {
    Row summary = d.agent(i).ZoneSummary(0);
    ASSERT_TRUE(summary.contains("temp")) << "agent " << i;
    EXPECT_DOUBLE_EQ(summary.at("temp").AsDouble(), 99.5) << "agent " << i;
  }
}

TEST(AgentGossip, FailedAgentsExpireFromMembership) {
  Deployment d(16, SmallConfig(4));
  d.StartAll();
  d.RunFor(60);
  ASSERT_EQ(RootMembers(d.agent(0)), 16);
  // Kill three agents in different zones.
  d.net().Kill(d.agent(5).id());
  d.net().Kill(d.agent(9).id());
  d.net().Kill(d.agent(14).id());
  d.RunFor(120);
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (!d.net().IsAlive(d.agent(i).id())) continue;
    EXPECT_EQ(RootMembers(d.agent(i)), 13) << "agent " << i;
  }
}

// Row expiries agent 0 records for agent 1's row in a two-agent zone
// gossiping every second, while agent 1's timers run 8x late: its row's
// version advances on a steady ~8 s rhythm, past the 6-period fixed
// timeout. Counted over [60 s, 180 s), after phi has samples to judge by.
std::uint64_t ExpiriesOfSlowSteadyRow(const PhiAccrualConfig& phi,
                                      std::size_t* heartbeats) {
  DeploymentConfig cfg = SmallConfig(8);
  cfg.gossip_period = 1.0;
  cfg.phi = phi;
  Deployment d(2, cfg);
  d.net().SetProcSlowdown(d.agent(1).id(), 8.0);
  d.StartAll();
  d.RunFor(60);
  const std::uint64_t before = d.agent(0).gossip_stats().rows_expired;
  d.RunFor(120);
  *heartbeats = d.agent(0).failure_detector().SampleCount("0/n1");
  return d.agent(0).gossip_stats().rows_expired - before;
}

TEST(AgentFailureDetection, FixedRuleExpiresARegularRowSilentPastTheTimeout) {
  PhiAccrualConfig fixed;
  fixed.min_samples = SIZE_MAX;  // never leave the cold-start rule
  std::size_t heartbeats = 0;
  // Roughly one expiry per 8 s cycle.
  EXPECT_GE(ExpiriesOfSlowSteadyRow(fixed, &heartbeats), 10u);
  EXPECT_GE(heartbeats, 15u);  // the row kept heartbeating throughout
}

TEST(AgentFailureDetection, PhiKeepsASlowButSteadyRowAlive) {
  std::size_t heartbeats = 0;
  EXPECT_EQ(ExpiriesOfSlowSteadyRow(PhiAccrualConfig{}, &heartbeats), 0u);
  EXPECT_GE(heartbeats, 15u);
}

// An agent never expires its own rows: the leaf row and, one level up, its
// own zone's row. Phi learns the zone row's rhythm from the zone-mates'
// versions; once they all crash the row stops heartbeating and phi
// suspects it, yet the survivor is still a member and keeps the row.
TEST(AgentFailureDetection, OwnRowsOutliveTheirHeartbeats) {
  Deployment d(16, SmallConfig(4));
  d.StartAll();
  d.RunFor(60);
  Agent& survivor = d.agent(0);
  ASSERT_GE(survivor.failure_detector().SampleCount(
                "0/" + survivor.path().Component(0)),
            3u);
  for (std::size_t i = 1; i < 4; ++i) d.net().Kill(d.agent(i).id());
  for (int t = 0; t < 120; ++t) {
    d.RunFor(1);
    for (std::size_t level = 0; level < survivor.Depth(); ++level) {
      const std::string& own = survivor.path().Component(level);
      ASSERT_TRUE(survivor.TableAt(level).Has(own))
          << "t=" << t << " level " << level;
    }
  }
  EXPECT_EQ(survivor.TableAt(1).size(), 1u);  // the zone-mates did expire
}

TEST(AgentGossip, RepresentativeFailoverElectsReplacement) {
  Deployment d(16, SmallConfig(4));
  d.StartAll();
  d.RunFor(60);
  // Agent 0 lives in the first top-level zone; find that zone's contacts
  // as seen from an agent in a different zone.
  const std::string zone0 = d.PathFor(0).Prefix(1).Leaf();
  auto reps = d.agent(15).ContactsOf(0, zone0);
  ASSERT_FALSE(reps.empty());
  const sim::NodeId victim = reps[0];
  d.net().Kill(victim);
  d.RunFor(120);
  auto new_reps = d.agent(15).ContactsOf(0, zone0);
  ASSERT_FALSE(new_reps.empty());
  for (sim::NodeId r : new_reps) {
    EXPECT_NE(r, victim) << "dead representative still advertised";
  }
}

TEST(AgentGossip, LoadBasedElectionPrefersIdleNodes) {
  Deployment d(4, SmallConfig(4));
  d.StartAll();
  // Make agents 0 and 1 heavily loaded; 2 and 3 idle.
  d.agent(0).SetLocalAttr(kAttrLoad, 0.9);
  d.agent(1).SetLocalAttr(kAttrLoad, 0.8);
  d.agent(2).SetLocalAttr(kAttrLoad, 0.01);
  d.agent(3).SetLocalAttr(kAttrLoad, 0.02);
  d.RunFor(60);
  // contacts_per_zone = 2: the two idle agents should be elected.
  Row summary = d.agent(0).ZoneSummary(0);
  ASSERT_TRUE(summary.contains(kAttrContacts));
  const ValueList& reps = summary.at(kAttrContacts).AsList();
  ASSERT_EQ(reps.size(), 2u);
  std::vector<std::int64_t> ids{reps[0].AsInt(), reps[1].AsInt()};
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), d.agent(2).id()) != ids.end());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), d.agent(3).id()) != ids.end());
}

TEST(AgentGossip, FunctionInstalledOnOneAgentSpreadsEverywhere) {
  Deployment d(16, SmallConfig(4));
  d.StartAll();
  d.RunFor(40);
  Certificate cert = d.root_authority().Issue(
      CertKind::kFunction, "diskmax", 0,
      {{"code", "SELECT MAX(disk) AS disk"}, {"version", "1"}}, 0, 1e18);
  ASSERT_TRUE(d.agent(3).InstallFunction(cert));
  d.agent(3).SetLocalAttr("disk", std::int64_t{777});
  d.RunFor(120);
  for (std::size_t i = 0; i < d.size(); ++i) {
    auto names = d.agent(i).InstalledFunctionNames();
    EXPECT_TRUE(std::find(names.begin(), names.end(), "diskmax") != names.end())
        << "agent " << i;
    Row summary = d.agent(i).ZoneSummary(0);
    ASSERT_TRUE(summary.contains("disk")) << "agent " << i;
    EXPECT_EQ(summary.at("disk").AsInt(), 777);
  }
}

TEST(AgentGossip, TamperedFunctionCertificateRejectedEverywhere) {
  Deployment d(8, SmallConfig(8));
  d.StartAll();
  Certificate cert = d.root_authority().Issue(
      CertKind::kFunction, "evil", 0,
      {{"code", "SELECT MAX(x) AS x"}, {"version", "1"}}, 0, 1e18);
  cert.claims["code"] = "SELECT MIN(x) AS x";  // tampered after signing
  EXPECT_FALSE(d.agent(0).InstallFunction(cert));
  d.RunFor(40);
  for (std::size_t i = 0; i < d.size(); ++i) {
    auto names = d.agent(i).InstalledFunctionNames();
    EXPECT_TRUE(std::find(names.begin(), names.end(), "evil") == names.end());
  }
}

TEST(AgentGossip, UnparsableFunctionRejected) {
  Deployment d(4, SmallConfig(4));
  Certificate cert = d.root_authority().Issue(
      CertKind::kFunction, "broken", 0,
      {{"code", "SELEC garbage("}, {"version", "1"}}, 0, 1e18);
  EXPECT_FALSE(d.agent(0).InstallFunction(cert));
}

TEST(AgentGossip, FunctionVersionUpgradeWins) {
  Deployment d(8, SmallConfig(8));
  d.StartAll();
  Certificate v1 = d.root_authority().Issue(
      CertKind::kFunction, "f", 0,
      {{"code", "SELECT MAX(a) AS a"}, {"version", "1"}}, 0, 1e18);
  Certificate v2 = d.root_authority().Issue(
      CertKind::kFunction, "f", 0,
      {{"code", "SELECT MIN(a) AS a_min"}, {"version", "2"}}, 0, 1e18);
  ASSERT_TRUE(d.agent(0).InstallFunction(v2));
  // Older version must not downgrade.
  EXPECT_FALSE(d.agent(0).InstallFunction(v1));
  // And a mixed system converges on v2.
  ASSERT_TRUE(d.agent(5).InstallFunction(v1));
  d.agent(1).SetLocalAttr("a", std::int64_t{5});
  d.RunFor(80);
  for (std::size_t i = 0; i < d.size(); ++i) {
    Row summary = d.agent(i).ZoneSummary(0);
    EXPECT_TRUE(summary.contains("a_min")) << "agent " << i;
  }
}

TEST(AgentGossip, RestartedAgentRejoins) {
  Deployment d(8, SmallConfig(8));
  d.StartAll();
  d.RunFor(40);
  const sim::NodeId victim = d.agent(3).id();
  d.net().Kill(victim);
  d.RunFor(60);
  EXPECT_EQ(RootMembers(d.agent(0)), 7);
  d.net().Restart(victim);
  d.RunFor(60);
  EXPECT_EQ(RootMembers(d.agent(0)), 8);
  EXPECT_EQ(RootMembers(d.agent(3)), 8);  // the rejoined agent sees everyone
}

TEST(AgentGossip, SurvivesMessageLoss) {
  DeploymentConfig cfg = SmallConfig(4);
  cfg.net.loss_prob = 0.2;  // every 5th message lost
  Deployment d(16, cfg);
  d.StartAll();
  d.RunFor(200);
  // Under sustained loss a membership row can legitimately be mid-refresh
  // at any single instant: give the lossy steady state a bounded window to
  // show full membership rather than pinning one unlucky sample.
  auto all_see_full = [&] {
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (RootMembers(d.agent(i)) != 16) return false;
    }
    return true;
  };
  for (int extra = 0; extra < 20 && !all_see_full(); ++extra) d.RunFor(10);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(RootMembers(d.agent(i)), 16) << "agent " << i;
  }
}

TEST(AgentGossip, WarmStartMatchesConvergedShape) {
  Deployment d(27, SmallConfig(3));
  d.WarmStart();
  // Without a single gossip round, every agent already has the full view.
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(RootMembers(d.agent(i)), 27);
    EXPECT_EQ(d.agent(i).TableAt(0).size(), 3u);
    // Contacts resolve for every top-level zone.
    for (const auto& [key, entry] : d.agent(i).TableAt(0)) {
      EXPECT_FALSE(d.agent(i).ContactsOf(0, key).empty());
    }
  }
}

TEST(AgentGossip, WarmStartThenGossipStaysStable) {
  Deployment d(16, SmallConfig(4));
  d.StartAll();
  d.WarmStart();
  d.RunFor(60);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(RootMembers(d.agent(i)), 16) << "agent " << i;
  }
}

TEST(AgentGossip, DeterministicAcrossIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    Deployment d(16, SmallConfig(4, seed));
    d.StartAll();
    d.RunFor(50);
    std::uint64_t total_sent = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      total_sent += d.net().StatsFor(d.agent(i).id()).messages_sent;
    }
    return total_sent;
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(AgentGossip, GossipTrafficPerNodeIsBounded) {
  Deployment d(64, SmallConfig(4));
  d.StartAll();
  d.RunFor(100);
  // Each agent gossips O(depth) exchanges per round; with replies that is
  // a handful of messages per period, independent of system size.
  const double rounds = 100 / 2.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto& stats = d.net().StatsFor(d.agent(i).id());
    EXPECT_LT(stats.messages_sent, static_cast<std::uint64_t>(rounds * 20))
        << "agent " << i;
  }
}

TEST(AgentGossip, PartitionSplitsMembershipAndHeals) {
  Deployment d(16, SmallConfig(4));
  d.StartAll();
  d.RunFor(60);
  ASSERT_EQ(RootMembers(d.agent(0)), 16);
  // Partition the first top-level zone (agents 0..3) away.
  for (std::size_t i = 0; i < 4; ++i) {
    d.net().SetPartitionGroup(d.agent(i).id(), 1);
  }
  d.RunFor(120);
  // Each side's membership view shrinks to its own partition.
  EXPECT_EQ(RootMembers(d.agent(1)), 4) << "minority side";
  EXPECT_EQ(RootMembers(d.agent(9)), 12) << "majority side";
  // Heal: both sides re-merge because live owners keep re-issuing fresh
  // row versions (the deletion-stability rule admits them again).
  d.net().HealPartitions();
  d.RunFor(120);
  EXPECT_EQ(RootMembers(d.agent(1)), 16);
  EXPECT_EQ(RootMembers(d.agent(9)), 16);
}

TEST(AgentGossip, MinorityPartitionKeepsItsOwnZoneAlive) {
  Deployment d(16, SmallConfig(4));
  d.StartAll();
  d.RunFor(60);
  for (std::size_t i = 0; i < 4; ++i) {
    d.net().SetPartitionGroup(d.agent(i).id(), 1);
  }
  d.RunFor(120);
  // Within the isolated zone, gossip still works: leaf table intact.
  EXPECT_EQ(d.agent(0).TableAt(d.Depth() - 1).size(), 4u);
}

TEST(AgentGossip, SingleAgentSystemIsSane) {
  Deployment d(1, SmallConfig(4));
  d.StartAll();
  d.RunFor(20);
  EXPECT_EQ(RootMembers(d.agent(0)), 1);
}

}  // namespace
}  // namespace nw::astrolabe

// Tests for the Deployment harness: path layout, named regions, warm
// start vs. gossip equivalence, and function installation.
#include <gtest/gtest.h>

#include "astrolabe/deployment.h"

namespace nw::astrolabe {
namespace {

TEST(Deployment, UniformLayoutAssignsDistinctLeafPaths) {
  DeploymentConfig cfg;
  cfg.branching = 3;
  Deployment dep(27, cfg);
  EXPECT_EQ(dep.Depth(), 3u);
  std::set<std::string> paths;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    EXPECT_EQ(dep.PathFor(i).Depth(), 3u);
    paths.insert(dep.PathFor(i).ToString());
  }
  EXPECT_EQ(paths.size(), 27u);
}

TEST(Deployment, BranchingBoundsZoneFanout) {
  DeploymentConfig cfg;
  cfg.branching = 5;
  Deployment dep(100, cfg);
  dep.WarmStart();
  // No table may exceed the branching factor (paper §3: tables "limited
  // to some small size").
  for (std::size_t i = 0; i < dep.size(); ++i) {
    for (std::size_t level = 0; level < dep.Depth(); ++level) {
      EXPECT_LE(dep.agent(i).TableAt(level).size(), 5u)
          << "agent " << i << " level " << level;
    }
  }
}

TEST(Deployment, RegionNamesApplyToTopLevel) {
  DeploymentConfig cfg;
  cfg.branching = 4;
  cfg.top_level_names = {"asia", "europe", "americas", "africa"};
  Deployment dep(16, cfg);
  std::set<std::string> tops;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    tops.insert(dep.PathFor(i).Component(0));
  }
  EXPECT_EQ(tops, (std::set<std::string>{"asia", "europe", "americas",
                                         "africa"}));
}

TEST(Deployment, WarmStartMatchesGossipedConvergence) {
  // The same configuration converged by real gossip and installed by
  // WarmStart must agree on the root summary.
  DeploymentConfig cfg;
  cfg.branching = 4;
  cfg.seed = 5;

  Deployment gossiped(16, cfg);
  gossiped.StartAll();
  gossiped.RunFor(80);

  Deployment warmed(16, cfg);
  warmed.WarmStart();

  for (std::size_t i = 0; i < 16; ++i) {
    Row a = gossiped.agent(i).ZoneSummary(0);
    Row b = warmed.agent(i).ZoneSummary(0);
    ASSERT_TRUE(a.contains(kAttrMembers));
    ASSERT_TRUE(b.contains(kAttrMembers));
    EXPECT_TRUE(a.at(kAttrMembers).Equals(b.at(kAttrMembers)));
    // Same number of top-level zones visible.
    EXPECT_EQ(gossiped.agent(i).TableAt(0).size(),
              warmed.agent(i).TableAt(0).size());
  }
}

TEST(Deployment, WarmStartSharesTablesAcrossAgents) {
  DeploymentConfig cfg;
  cfg.branching = 4;
  Deployment dep(64, cfg);
  dep.WarmStart();
  // All agents share one physical root table (copy-on-write), so the
  // address must coincide.
  const Table* root = &dep.agent(0).TableAt(0);
  for (std::size_t i = 1; i < dep.size(); ++i) {
    EXPECT_EQ(&dep.agent(i).TableAt(0), root) << "agent " << i;
  }
}

TEST(Deployment, FunctionInstalledEverywhereIsPresent) {
  Deployment dep(8);
  dep.InstallFunctionEverywhere("probe", "SELECT COUNT(*) AS probe_count");
  for (std::size_t i = 0; i < dep.size(); ++i) {
    auto names = dep.agent(i).InstalledFunctionNames();
    EXPECT_TRUE(std::find(names.begin(), names.end(), "probe") != names.end());
  }
}

TEST(Deployment, CowClonesOnLocalMutationOnly) {
  DeploymentConfig cfg;
  cfg.branching = 8;
  Deployment dep(8, cfg);
  dep.WarmStart();
  const Table* shared = &dep.agent(1).TableAt(0);
  ASSERT_EQ(&dep.agent(0).TableAt(0), shared);
  // Starting agent 0 refreshes its own row -> its replica clones; agent
  // 1's replica must be untouched.
  dep.agent(0).Start();
  EXPECT_NE(&dep.agent(0).TableAt(0), shared);
  EXPECT_EQ(&dep.agent(1).TableAt(0), shared);
}

TEST(Deployment, SingleAndTwoAgentEdgeCases) {
  for (std::size_t n : {1u, 2u}) {
    DeploymentConfig cfg;
    cfg.branching = 4;
    Deployment dep(n, cfg);
    dep.StartAll();
    dep.RunFor(30);
    for (std::size_t i = 0; i < n; ++i) {
      Row summary = dep.agent(i).ZoneSummary(0);
      ASSERT_TRUE(summary.contains(kAttrMembers));
      EXPECT_EQ(summary.at(kAttrMembers).AsInt(), std::int64_t(n));
    }
  }
}

}  // namespace
}  // namespace nw::astrolabe

// Tests for the remote query service (Astrolabe's monitoring /
// data-mining face, paper §3/§4).
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "astrolabe/deployment.h"
#include "astrolabe/query.h"

namespace nw::astrolabe {
namespace {

class QueryEnv {
 public:
  explicit QueryEnv(std::size_t n, std::size_t branching) : dep_([&] {
    DeploymentConfig cfg;
    cfg.num_agents = n;
    cfg.branching = branching;
    cfg.seed = 8;
    return cfg;
  }()) {
    for (std::size_t i = 0; i < dep_.size(); ++i) {
      qs_.push_back(std::make_unique<QueryService>(dep_.agent(i)));
    }
    dep_.WarmStart();
  }

  Deployment& dep() { return dep_; }
  QueryService& qs(std::size_t i) { return *qs_[i]; }

  // Runs one query to completion and returns its result.
  QueryService::Result Ask(std::size_t from, std::size_t to,
                           std::size_t level, const std::string& sql) {
    std::optional<QueryService::Result> got;
    qs(from).QueryZone(dep_.agent(to).id(), level, sql,
                       [&got](const QueryService::Result& r) { got = r; });
    dep_.RunFor(10);
    EXPECT_TRUE(got.has_value()) << "callback never fired";
    return got.value_or(QueryService::Result{});
  }

 private:
  Deployment dep_;
  std::vector<std::unique_ptr<QueryService>> qs_;
};

TEST(QueryService, RemoteRootSummary) {
  QueryEnv env(27, 3);
  auto result =
      env.Ask(0, 26, 0, "SELECT SUM(nmembers) AS total, COUNT(*) AS zones");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.row.at("total").AsInt(), 27);
  EXPECT_EQ(result.row.at("zones").AsInt(), 3);
}

TEST(QueryService, CustomAttributesAndWhere) {
  QueryEnv env(9, 3);
  env.dep().agent(4).SetLocalAttr("disk", std::int64_t{500});
  env.dep().agent(5).SetLocalAttr("disk", std::int64_t{90});
  env.dep().WarmStart();  // refresh the warm replicas with the new attrs
  // Query agent 4's own leaf-zone table (level = depth-1) from agent 0.
  const std::size_t leaf_level = env.dep().Depth() - 1;
  auto result = env.Ask(0, 4, leaf_level,
                        "SELECT MAX(disk) AS d, COUNT(disk) AS n "
                        "WHERE disk > 100");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.row.at("d").AsInt(), 500);
  EXPECT_EQ(result.row.at("n").AsInt(), 1);
}

TEST(QueryService, MalformedQueryRejectedRemotely) {
  QueryEnv env(9, 3);
  auto result = env.Ask(0, 8, 0, "SELEC nonsense(");
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(env.qs(8).stats().rejected, 1u);
}

TEST(QueryService, QueryThatThrowsTypeErrorRejectedRemotely) {
  // The query parses, but TOP cannot order an int key against a string
  // key, so evaluation throws TypeError on the serving agent.
  QueryEnv env(9, 3);
  env.dep().agent(4).SetLocalAttr("name", std::string("n4"));
  env.dep().agent(4).SetLocalAttr("rank", std::int64_t{1});
  env.dep().agent(5).SetLocalAttr("name", std::string("n5"));
  env.dep().agent(5).SetLocalAttr("rank", std::string("high"));
  env.dep().WarmStart();  // refresh the warm replicas with the new attrs
  const std::size_t leaf_level = env.dep().Depth() - 1;
  auto result = env.Ask(0, 4, leaf_level,
                        "SELECT TOP(2, name ORDER BY rank DESC) AS top");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot compare"), std::string::npos)
      << result.error;
  EXPECT_EQ(env.qs(4).stats().rejected, 1u);
  EXPECT_EQ(env.qs(4).stats().answered, 0u);
}

TEST(QueryService, LevelOutOfRangeRejected) {
  QueryEnv env(9, 3);
  auto result = env.Ask(0, 8, 99, "SELECT COUNT(*)");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "level out of range");
}

TEST(QueryService, DeadPeerTimesOut) {
  QueryEnv env(9, 3);
  env.dep().net().Kill(env.dep().agent(8).id());
  auto result = env.Ask(0, 8, 0, "SELECT COUNT(*)");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "timeout");
  EXPECT_EQ(env.qs(0).stats().timeouts, 1u);
}

TEST(QueryService, LateResponseAfterTimeoutIsDropped) {
  // Tight timeout + high latency: the answer arrives after the timeout
  // fired; the callback must run exactly once (with the timeout).
  DeploymentConfig cfg;
  cfg.num_agents = 4;
  cfg.branching = 4;
  cfg.net.base_latency = 2.0;  // RTT 4s
  Deployment dep(cfg);
  QueryService::Config qc;
  qc.timeout = 1.0;
  std::vector<std::unique_ptr<QueryService>> qs;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    qs.push_back(std::make_unique<QueryService>(dep.agent(i), qc));
  }
  dep.WarmStart();
  int calls = 0;
  bool last_ok = true;
  qs[0]->QueryZone(dep.agent(1).id(), 0, "SELECT COUNT(*)",
                   [&](const QueryService::Result& r) {
                     ++calls;
                     last_ok = r.ok;
                   });
  dep.RunFor(20);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(last_ok);
}

TEST(QueryService, ManyConcurrentQueries) {
  QueryEnv env(16, 4);
  int answered = 0;
  for (int k = 0; k < 20; ++k) {
    env.qs(0).QueryZone(env.dep().agent(std::size_t(1 + k % 15)).id(), 0,
                        "SELECT SUM(nmembers) AS total",
                        [&answered](const QueryService::Result& r) {
                          if (r.ok && r.row.at("total").AsInt() == 16) {
                            ++answered;
                          }
                        });
  }
  env.dep().RunFor(10);
  EXPECT_EQ(answered, 20);
}

}  // namespace
}  // namespace nw::astrolabe

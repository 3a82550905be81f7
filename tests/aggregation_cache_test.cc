// Incremental aggregation engine (DESIGN.md §11): the dirty-tracked memo
// and the compiled query plans must be *behaviorally invisible* — the
// engine exists to skip provably redundant work, never to change a result.
//
// Layers of evidence, smallest to largest:
//  1. Table content-epoch units: heartbeat-only mutations (MergeRefresh,
//     Refresh, same-content_version MergeEntry) leave the epoch alone;
//     content mutations (Upsert, body-replacing MergeEntry, Erase, which
//     row expiry uses) bump it.
//  2. Compiled plans vs the reference interpreter: strict (type-exact)
//     result equality over adversarial mixed-type tables, for every
//     accumulator fast path and the generic fallback.
//  3. Memo accounting: every level of every RecomputeAggregates is either
//     evaluated or served from the memo — never both, never neither — and
//     force_full_recompute evaluates all of them.
//  4. A/B property over 20 random fault seeds: an incremental run and a
//     force-full run of the same seed are bit-identical — same MIB content
//     hash, same (kAggregation-masked) trace sequence hash, same per-agent
//     gossip counters.
//  5. Full NewsWire stack under a committed chaos cocktail: the delivery
//     trace is bit-identical across both engines.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "astrolabe/deployment.h"
#include "astrolabe/sql/eval.h"
#include "astrolabe/sql/parser.h"
#include "astrolabe/sql/plan.h"
#include "astrolabe/table.h"
#include "newswire/system.h"
#include "obs/trace.h"
#include "scenarios.h"
#include "sim/fault_plan.h"
#include "testing/invariants.h"

namespace nw {
namespace {

using astrolabe::AttrValue;
using astrolabe::BitVector;
using astrolabe::Row;
using astrolabe::RowEntry;
using astrolabe::RowRefresh;
using astrolabe::Table;
using astrolabe::ValueList;
namespace sql = astrolabe::sql;

// ---- 1. content-epoch units --------------------------------------------

RowEntry MakeEntry(std::int64_t a, std::uint64_t version,
                   std::uint64_t content_version) {
  RowEntry e;
  e.attrs["a"] = a;
  e.version = version;
  e.content_version = content_version;
  return e;
}

TEST(ContentEpoch, UpsertAndEraseBump) {
  Table t;
  const std::uint64_t e0 = t.content_epoch();
  t.Upsert("r").attrs["a"] = std::int64_t{1};
  EXPECT_GT(t.content_epoch(), e0);

  const std::uint64_t e1 = t.content_epoch();
  t.Erase("r");
  EXPECT_GT(t.content_epoch(), e1);
  const std::uint64_t e2 = t.content_epoch();
  t.Erase("r");  // absent: nothing removed, nothing bumped
  EXPECT_EQ(t.content_epoch(), e2);
}

TEST(ContentEpoch, MergeRefreshDoesNotBump) {
  Table t;
  ASSERT_TRUE(t.MergeEntry("r", MakeEntry(1, 5, 5), 1.0));
  const std::uint64_t epoch = t.content_epoch();
  EXPECT_TRUE(t.MergeRefresh(RowRefresh{"r", 6, 5}, 2.0));
  EXPECT_EQ(t.content_epoch(), epoch);
  EXPECT_EQ(t.Find("r")->version, 6u);
  EXPECT_DOUBLE_EQ(t.Find("r")->last_refresh, 2.0);
  // Rejected refreshes (stale version, different content stream) are also
  // epoch-neutral.
  EXPECT_FALSE(t.MergeRefresh(RowRefresh{"r", 6, 5}, 3.0));
  EXPECT_FALSE(t.MergeRefresh(RowRefresh{"r", 9, 4}, 3.0));
  EXPECT_EQ(t.content_epoch(), epoch);
}

TEST(ContentEpoch, RefreshIsEpochNeutral) {
  Table t;
  ASSERT_TRUE(t.MergeEntry("r", MakeEntry(1, 5, 5), 1.0));
  const std::uint64_t epoch = t.content_epoch();
  t.Refresh("r", 8, 4.0);
  EXPECT_EQ(t.content_epoch(), epoch);
  EXPECT_EQ(t.Find("r")->version, 8u);
  EXPECT_DOUBLE_EQ(t.Find("r")->last_refresh, 4.0);
  t.Refresh("absent", 9, 4.0);  // no row: no-op
  EXPECT_EQ(t.content_epoch(), epoch);
  EXPECT_FALSE(t.Has("absent"));
}

TEST(ContentEpoch, SameContentVersionMergeIsHeartbeatOnly) {
  Table t;
  ASSERT_TRUE(t.MergeEntry("r", MakeEntry(1, 5, 5), 1.0));
  const std::uint64_t epoch = t.content_epoch();
  // Same author content stream (content_version 5), newer heartbeat: the
  // merge is accepted but the body — and the epoch — stay put.
  ASSERT_TRUE(t.MergeEntry("r", MakeEntry(1, 7, 5), 2.0));
  EXPECT_EQ(t.content_epoch(), epoch);
  EXPECT_EQ(t.Find("r")->version, 7u);
  // A new content stream replaces the body and bumps the epoch.
  ASSERT_TRUE(t.MergeEntry("r", MakeEntry(9, 8, 8), 3.0));
  EXPECT_GT(t.content_epoch(), epoch);
  EXPECT_EQ(t.Find("r")->attrs.at("a").AsInt(), 9);
  // A brand-new row always bumps.
  const std::uint64_t e2 = t.content_epoch();
  ASSERT_TRUE(t.MergeEntry("s", MakeEntry(2, 3, 3), 3.0));
  EXPECT_GT(t.content_epoch(), e2);
  // A rejected (older) merge does not.
  const std::uint64_t e3 = t.content_epoch();
  EXPECT_FALSE(t.MergeEntry("r", MakeEntry(0, 4, 4), 4.0));
  EXPECT_EQ(t.content_epoch(), e3);
}

TEST(ContentEpoch, CopyConstructionPreservesEpoch) {
  Table t;
  t.Upsert("r").attrs["a"] = std::int64_t{1};
  const Table copy(t);  // COW clone: same content, same epoch
  EXPECT_EQ(copy.content_epoch(), t.content_epoch());
}

// ---- 2. compiled plans vs the reference interpreter --------------------

// Type-exact row equality: Equals() alone would accept int 1 == double 1.0,
// which is precisely the laxity a compiled fast path must not hide behind.
void ExpectRowsIdentical(const Row& expect, const Row& got,
                         const std::string& context) {
  ASSERT_EQ(expect.size(), got.size()) << context;
  auto ie = expect.begin();
  auto ig = got.begin();
  for (; ie != expect.end(); ++ie, ++ig) {
    EXPECT_EQ(ie->first, ig->first) << context;
    EXPECT_EQ(ie->second.type(), ig->second.type())
        << context << " attr " << ie->first;
    EXPECT_TRUE(ie->second.Equals(ig->second))
        << context << " attr " << ie->first << ": "
        << ie->second.ToString() << " vs " << ig->second.ToString();
    EXPECT_EQ(ie->second.ToString(), ig->second.ToString())
        << context << " attr " << ie->first;
  }
}

// An adversarial table: int/double/string/bits/list/null-typed values,
// missing attributes, ties in the TOP sort key, flattening lists.
Table MixedTable() {
  Table t;
  auto add = [&t](const std::string& key, Row attrs) {
    RowEntry& e = t.Upsert(key);
    e.attrs = std::move(attrs);
    e.version = 1;
  };
  BitVector b1(8), b2(8);
  b1.Set(1);
  b1.Set(3);
  b2.Set(3);
  b2.Set(6);
  add("r0", {{"load", AttrValue(std::int64_t{3})},
             {"nmembers", AttrValue(std::int64_t{1})},
             {"name", AttrValue("alpha")},
             {"contacts", AttrValue(ValueList{AttrValue(std::int64_t{10}),
                                              AttrValue(std::int64_t{11})})},
             {"tags", AttrValue(ValueList{AttrValue("x"), AttrValue("y")})},
             {"bits", AttrValue(b1)}});
  add("r1", {{"load", AttrValue(1.5)},  // double: SUM falls off the int path
             {"nmembers", AttrValue(std::int64_t{2})},
             {"name", AttrValue("beta")},
             {"contacts", AttrValue(ValueList{AttrValue(std::int64_t{20})})},
             {"bits", AttrValue(b2)}});
  add("r2", {{"load", AttrValue("busted")},  // string: per-row TypeError skip
             {"nmembers", AttrValue(std::int64_t{4})},
             {"name", AttrValue("gamma")},
             {"tags", AttrValue("solo")}});  // scalar into FIRST
  add("r3", {{"nmembers", AttrValue(std::int64_t{8})},  // load absent
             {"name", AttrValue("delta")},
             {"contacts", AttrValue(ValueList{AttrValue(std::int64_t{30}),
                                              AttrValue(std::int64_t{31}),
                                              AttrValue(std::int64_t{32})})}});
  add("r4", {{"load", AttrValue()},  // explicit null value
             {"nmembers", AttrValue(std::int64_t{16})},
             {"name", AttrValue("alpha")}});  // MIN/MAX tie
  add("r5", {{"load", AttrValue(std::int64_t{3})},  // TOP sort-key tie with r0
             {"nmembers", AttrValue(3.5)},
             {"name", AttrValue("epsilon")},
             {"contacts", AttrValue(std::int64_t{40})},  // scalar, not list
             {"bits", AttrValue(std::int64_t{0x30})}});  // int mask into OR/AND
  return t;
}

constexpr const char* kEquivalenceQueries[] = {
    // Simple-path accumulators over a bare attribute, plus COUNT(*).
    "SELECT SUM(load) AS s, AVG(load) AS a, MIN(load) AS mn, MAX(load) AS mx,"
    " COUNT(load) AS c, COUNT(*) AS n",
    // The core election function: the fast TOP path, list flattening, ties.
    "SELECT TOP(3, contacts ORDER BY load ASC) AS contacts,"
    " SUM(nmembers) AS nmembers, AVG(load) AS load",
    "SELECT TOP(2, name ORDER BY nmembers DESC) AS top_names",
    "SELECT TOP(100, contacts ORDER BY name ASC) AS all_contacts",
    // FIRST flattening and the bits/mask OR/AND accumulators.
    "SELECT FIRST(4, tags) AS t, COUNT(tags) AS ct",
    "SELECT OR(bits) AS ob, AND(bits) AS ab",
    // WHERE sharing, null-typed predicate rows.
    "SELECT SUM(nmembers) AS s WHERE load >= 1",
    "SELECT COUNT(*) AS n WHERE isnull(load)",
    // Generic fallback: computed aggregate args and computed TOP keys.
    "SELECT SUM(load * 2) AS s2, COUNT(coalesce(load, 0)) AS c2",
    "SELECT TOP(2, name ORDER BY load + 0.5 DESC) AS t2",
    "SELECT MIN(name) AS mn, MAX(name) AS mx, SUM(len(name)) AS lens",
};

TEST(CompiledPlan, MatchesInterpreterOnAdversarialTable) {
  const Table table = MixedTable();
  for (const char* code : kEquivalenceQueries) {
    sql::Query reference = sql::ParseQuery(code);
    const sql::CompiledQuery plan = sql::CompiledQuery::Compile(
        sql::ParseQuery(code));
    ExpectRowsIdentical(sql::EvalQuery(reference, table), plan.Eval(table),
                        code);
  }
}

TEST(CompiledPlan, MatchesInterpreterOnEmptyTable) {
  const Table empty;
  for (const char* code : kEquivalenceQueries) {
    sql::Query reference = sql::ParseQuery(code);
    const sql::CompiledQuery plan = sql::CompiledQuery::Compile(
        sql::ParseQuery(code));
    ExpectRowsIdentical(sql::EvalQuery(reference, empty), plan.Eval(empty),
                        std::string("empty: ") + code);
  }
}

TEST(CompiledPlan, IncomparableTopKeysThrowFromBothEngines) {
  // TOP's sort key comparison is allowed to throw out of Finish (the rows
  // fed int and string keys side by side); the compiled fast path must
  // not silently swallow what the interpreter propagates.
  const Table table = MixedTable();
  const char* code = "SELECT TOP(2, name ORDER BY load DESC) AS top_names";
  sql::Query reference = sql::ParseQuery(code);
  const sql::CompiledQuery plan =
      sql::CompiledQuery::Compile(sql::ParseQuery(code));
  EXPECT_THROW(sql::EvalQuery(reference, table), astrolabe::TypeError);
  EXPECT_THROW(plan.Eval(table), astrolabe::TypeError);
}

TEST(CompiledPlan, EvalIntoMergesLikeInsertOrAssign) {
  const Table table = MixedTable();
  const sql::CompiledQuery plan = sql::CompiledQuery::Compile(
      sql::ParseQuery("SELECT COUNT(*) AS n, MIN(name) AS mn"));
  Row out;
  out["n"] = AttrValue("overwritten");  // collision: plan output wins
  out["untouched"] = AttrValue(std::int64_t{7});
  plan.EvalInto(table, out);
  EXPECT_EQ(out.at("n").AsInt(), 6);
  EXPECT_EQ(out.at("mn").AsString(), "alpha");
  EXPECT_EQ(out.at("untouched").AsInt(), 7);
}

TEST(CompiledPlan, UnknownBuiltinStillThrowsTypeErrorAtEval) {
  // Unknown names must stay a parse-accepted, eval-time TypeError — the
  // aggregation layer then skips the row, in both engines.
  const Table table = MixedTable();
  const char* code = "SELECT COUNT(nosuchfn(load)) AS c, COUNT(*) AS n";
  sql::Query reference = sql::ParseQuery(code);
  const sql::CompiledQuery plan =
      sql::CompiledQuery::Compile(sql::ParseQuery(code));
  ExpectRowsIdentical(sql::EvalQuery(reference, table), plan.Eval(table),
                      code);
  EXPECT_EQ(plan.Eval(table).at("c").AsInt(), 0);
  EXPECT_THROW(
      sql::EvalScalar(*sql::ParseQuery("SELECT COUNT(nosuchfn(load)) AS c")
                           .items[0]
                           .arg,
                      table.Find("r0")->attrs),
      astrolabe::TypeError);
}

// ---- 3. memo accounting ------------------------------------------------

astrolabe::DeploymentConfig SmallDeploymentConfig(std::uint64_t seed,
                                                  bool force_full) {
  astrolabe::DeploymentConfig cfg;
  cfg.branching = 4;
  cfg.gossip_period = 1.0;
  cfg.seed = seed;
  cfg.force_full_recompute = force_full;
  return cfg;
}

TEST(AggregationMemo, EveryLevelIsEvaluatedOrServedExactlyOnce) {
  astrolabe::Deployment dep(16, SmallDeploymentConfig(7, false));
  dep.StartAll();
  dep.RunFor(30);
  std::uint64_t hits = 0, evals = 0;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    const auto& st = dep.agent(i).agg_stats();
    const std::uint64_t aggregated_levels = dep.agent(i).Depth() - 1;
    EXPECT_EQ(st.levels_evaluated + st.cache_hits,
              st.recompute_calls * aggregated_levels)
        << "agent " << i;
    hits += st.cache_hits;
    evals += st.levels_evaluated;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(evals, 0u);
  // Steady state after convergence is heartbeat-dominated: epochs stop
  // moving, so the memo serves (nearly) every pass.
  dep.RunFor(20);
  std::uint64_t tail_hits = 0, tail_evals = 0;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    const auto& st = dep.agent(i).agg_stats();
    tail_hits += st.cache_hits;
    tail_evals += st.levels_evaluated;
  }
  tail_hits -= hits;
  tail_evals -= evals;
  EXPECT_GT(tail_hits, 4 * tail_evals)
      << "steady state should be memo-dominated: " << tail_hits << " hits vs "
      << tail_evals << " evals";
}

TEST(AggregationMemo, ForceFullEvaluatesEverything) {
  astrolabe::Deployment dep(16, SmallDeploymentConfig(7, true));
  dep.StartAll();
  dep.RunFor(30);
  for (std::size_t i = 0; i < dep.size(); ++i) {
    const auto& st = dep.agent(i).agg_stats();
    EXPECT_EQ(st.cache_hits, 0u) << "agent " << i;
    EXPECT_EQ(st.compare_skips, 0u) << "agent " << i;
    EXPECT_EQ(st.levels_evaluated,
              st.recompute_calls * (dep.agent(i).Depth() - 1))
        << "agent " << i;
  }
}

TEST(AggregationMemo, TraceHookRecordsHitsAndEvals) {
  obs::EventTracer tracer(
      1 << 14, obs::CategoryBit(obs::EventCategory::kAggregation));
  astrolabe::DeploymentConfig cfg = SmallDeploymentConfig(7, false);
  cfg.tracer = &tracer;
  astrolabe::Deployment dep(16, cfg);
  dep.StartAll();
  dep.RunFor(10);
  std::uint64_t hit_events = 0, eval_events = 0;
  for (const auto& ev : tracer.Events()) {
    ASSERT_EQ(ev.category, obs::EventCategory::kAggregation);
    if (std::string_view(ev.type) == "agg.cache_hit") ++hit_events;
    if (std::string_view(ev.type) == "agg.eval") ++eval_events;
  }
  EXPECT_GT(hit_events, 0u);
  EXPECT_GT(eval_events, 0u);
}

// ---- 4. A/B property: incremental vs force-full, 20 fault seeds --------

struct ABRun {
  std::uint64_t mib_hash = 0;
  std::uint64_t seq_hash = 0;
  // Per-agent gossip counters; bit-identical runs must match exactly.
  std::vector<std::array<std::uint64_t, 4>> gossip;
  std::uint64_t cache_hits = 0;
  std::uint64_t levels_evaluated = 0;
  std::string plan_text;
};

ABRun RunAB(bool force_full, std::uint64_t seed) {
  // kAggregation events are the one intentional observable difference
  // between the engines, so mask them out of the compared trace; every
  // other category must match event for event.
  obs::EventTracer tracer(
      1 << 15,
      obs::kAllCategories &
          ~obs::CategoryBit(obs::EventCategory::kAggregation));
  astrolabe::DeploymentConfig cfg;
  cfg.branching = 4;
  cfg.gossip_period = 1.0;
  cfg.seed = seed;
  cfg.force_full_recompute = force_full;
  cfg.tracer = &tracer;
  astrolabe::Deployment dep(24, cfg);
  dep.StartAll();

  std::vector<sim::NodeId> victims;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    victims.push_back(dep.agent(i).id());
  }
  sim::FaultPlan::RandomOptions opt;
  opt.horizon = 30;
  opt.min_quiescence = 12;
  opt.max_events = 24;
  opt.max_dead = 6;
  const sim::FaultPlan plan = sim::FaultPlan::Random(seed, victims, opt);
  plan.ApplyTo(dep.net(), dep.sim().Now());

  ABRun out;
  out.plan_text = plan.ToString();
  dep.RunFor(75);
  out.mib_hash = testing::MibContentHash(dep);
  out.seq_hash = tracer.SequenceHash();
  for (std::size_t i = 0; i < dep.size(); ++i) {
    const auto& gs = dep.agent(i).gossip_stats();
    out.gossip.push_back({gs.rounds, gs.exchanges_sent, gs.rows_merged,
                          gs.rows_expired});
    out.cache_hits += dep.agent(i).agg_stats().cache_hits;
    out.levels_evaluated += dep.agent(i).agg_stats().levels_evaluated;
  }
  return out;
}

class AggregationEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AggregationEquivalence, IncrementalIsBitIdenticalToForceFull) {
  const ABRun incremental = RunAB(false, GetParam());
  const ABRun full = RunAB(true, GetParam());
  EXPECT_NE(incremental.mib_hash, 0u);
  EXPECT_EQ(incremental.mib_hash, full.mib_hash)
      << "plan: " << incremental.plan_text;
  EXPECT_EQ(incremental.seq_hash, full.seq_hash)
      << "plan: " << incremental.plan_text;
  EXPECT_EQ(incremental.gossip, full.gossip)
      << "plan: " << incremental.plan_text;
  // And the equivalence is not vacuous: the incremental run actually
  // skipped work the full run performed.
  EXPECT_EQ(full.cache_hits, 0u);
  EXPECT_GT(incremental.cache_hits, 0u);
  EXPECT_LT(incremental.levels_evaluated, full.levels_evaluated)
      << "plan: " << incremental.plan_text;
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, AggregationEquivalence,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- 5. full stack: chaos cocktail, both engines -----------------------

constexpr const char* kCocktail =
    "gray@5..30 node=2 factor=8 delay=0.05; corrupt@8..22 p=0.03; "
    "dup@12..26 p=0.08; asym@10..18 groups=24,25,26,27|28,29,30,31";

std::vector<testing::DeliveryRecord> RunStack(bool force_full) {
  newswire::SystemConfig cfg = testing::CommittedScenarioConfig();
  cfg.seed = 20260808;
  cfg.force_full_recompute = force_full;
  newswire::NewswireSystem sys(cfg);
  testing::DeliveryRecorder recorder(sys);
  sys.RunFor(10);
  const double base = sys.Now();
  auto plan = sim::FaultPlan::Parse(kCocktail);
  EXPECT_TRUE(plan.has_value());
  plan->ApplyTo(sys.deployment().net(), base);
  for (int k = 0; k < 24; ++k) {
    sys.deployment().sim().At(base + k, [&sys, k] {
      sys.PublishArticle(0, sys.catalog()[std::size_t(k) % 3]);
    });
  }
  sys.RunFor(std::max(24.0, plan->EndTime()) + 120);
  return recorder.trace();
}

TEST(AggregationEquivalenceSystem, ChaosDeliveryTraceIdenticalAcrossEngines) {
  const auto incremental = RunStack(false);
  const auto full = RunStack(true);
  EXPECT_FALSE(incremental.empty());
  const auto engines = testing::CheckReplayIdentical(incremental, full);
  EXPECT_TRUE(engines.ok()) << engines.Summary();
}

}  // namespace
}  // namespace nw

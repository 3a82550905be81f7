// Unit tests for the digest/delta primitives of Table (gossip wire format
// v2, PROTOCOLS.md): MakeDigest, DeltaAgainst, MergeRefresh, and their
// interaction with row expiry. These are the building blocks the agent's
// three-leg reconciliation trusts blindly, so the edge cases — empty
// digests, version ties, heartbeat-only advances, rows the failure
// detector just evicted — are pinned here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "astrolabe/deployment.h"
#include "astrolabe/table.h"

namespace nw::astrolabe {
namespace {

// Builds a table with rows a/b/c at versions 10/20/30, each last changed
// in content at its own version (content_version == version).
Table ThreeRows() {
  Table t;
  for (const auto& [key, version] :
       {std::pair<const char*, std::uint64_t>{"a", 10},
        {"b", 20},
        {"c", 30}}) {
    RowEntry& e = t.Upsert(key);
    e.attrs["name"] = std::string(key);
    e.version = version;
    e.content_version = version;
    e.last_refresh = 1.0;
  }
  return t;
}

std::vector<std::string> Keys(
    const std::vector<std::pair<std::string, RowEntry>>& rows) {
  std::vector<std::string> keys;
  for (const auto& [key, entry] : rows) keys.push_back(key);
  return keys;
}

TEST(TableDigest, DigestCoversEveryRowWithItsVersions) {
  const Table t = ThreeRows();
  const TableDigest digest = t.MakeDigest();
  ASSERT_EQ(digest.size(), 3u);
  EXPECT_EQ(digest.at("a").version, 10u);
  EXPECT_EQ(digest.at("b").version, 20u);
  EXPECT_EQ(digest.at("c").version, 30u);
  EXPECT_EQ(digest.at("c").content_version, 30u);
}

TEST(TableDigest, EmptyDigestRequestsEveryRow) {
  // A peer with no replica (fresh restart) digests nothing, so the delta
  // must be the whole table, as full row bodies.
  const Table t = ThreeRows();
  const auto delta = t.DeltaAgainst(TableDigest{});
  EXPECT_EQ(Keys(delta.rows), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(delta.refreshes.empty());
}

TEST(TableDigest, StaleDigestGetsOnlyTheNewerRows) {
  const Table t = ThreeRows();
  // The peer is current on "a", behind the content change on "b", and
  // missing "c": both come back as full bodies.
  const TableDigest peer{{"a", {10, 10}}, {"b", {15, 15}}};
  const auto delta = t.DeltaAgainst(peer);
  EXPECT_EQ(Keys(delta.rows), (std::vector<std::string>{"b", "c"}));
  EXPECT_TRUE(delta.refreshes.empty());
}

TEST(TableDigest, EqualVersionsAreNeverResent) {
  // Versions are owner-issued and totally ordered: a tie proves the peer
  // holds the identical row, so re-sending it is pure waste. This is the
  // suppression the bandwidth bench banks on.
  const Table t = ThreeRows();
  const auto delta = t.DeltaAgainst(t.MakeDigest());
  EXPECT_TRUE(delta.rows.empty());
  EXPECT_TRUE(delta.refreshes.empty());
}

TEST(TableDigest, PeerAheadOfUsYieldsNothing) {
  const Table t = ThreeRows();
  const TableDigest peer{{"a", {11, 10}}, {"b", {21, 20}}, {"c", {31, 30}}};
  const auto delta = t.DeltaAgainst(peer);
  EXPECT_TRUE(delta.rows.empty());
  EXPECT_TRUE(delta.refreshes.empty());
}

TEST(TableDigest, DigestIgnoresRowsOnlyThePeerHas) {
  // Keys in the digest that we do not hold are the *peer's* business: the
  // reply leg answers them from the peer's own digest, not ours.
  const Table t = ThreeRows();
  const TableDigest peer{
      {"a", {10, 10}}, {"b", {20, 20}}, {"c", {30, 30}}, {"zz", {99, 99}}};
  const auto delta = t.DeltaAgainst(peer);
  EXPECT_TRUE(delta.rows.empty());
  EXPECT_TRUE(delta.refreshes.empty());
}

TEST(TableDigest, HeartbeatOnlyAdvanceShipsARefreshNotTheBody) {
  // The peer holds the current content ("b" last changed at version 20,
  // the peer has seen version 25 of the same content stream) but is behind
  // on the liveness heartbeat: a ~20-byte RowRefresh suffices.
  Table t = ThreeRows();
  RowEntry& b = t.Upsert("b");
  b.version = 40;  // re-versioned by heartbeats; content unchanged since 20
  const TableDigest peer{{"a", {10, 10}}, {"b", {25, 20}}, {"c", {30, 30}}};
  const auto delta = t.DeltaAgainst(peer);
  EXPECT_TRUE(delta.rows.empty());
  ASSERT_EQ(delta.refreshes.size(), 1u);
  EXPECT_EQ(delta.refreshes[0].key, "b");
  EXPECT_EQ(delta.refreshes[0].version, 40u);
  EXPECT_EQ(delta.refreshes[0].content_version, 20u);
}

TEST(TableDigest, DivergentContentStreamForcesTheFullBody) {
  // Two concurrent authors (an election flap) can issue interleaved
  // versions with different content. The peer's content_version differs
  // from ours, so a heartbeat could silently freeze the wrong body — the
  // full row must ship instead.
  Table t = ThreeRows();
  t.Upsert("b").version = 40;  // our content stream: changed at 20
  // Peer current on a/c; its "b" body came from another author stream.
  const TableDigest peer{{"a", {10, 10}}, {"b", {25, 22}}, {"c", {30, 30}}};
  const auto delta = t.DeltaAgainst(peer);
  ASSERT_EQ(Keys(delta.rows), (std::vector<std::string>{"b"}));
  EXPECT_TRUE(delta.refreshes.empty());
}

TEST(TableDigest, MergeRefreshAdvancesVersionWithoutTouchingAttrs) {
  Table t = ThreeRows();
  EXPECT_TRUE(t.MergeRefresh(RowRefresh{"b", 45, 20}, /*now=*/9.0));
  const RowEntry* b = t.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->version, 45u);
  EXPECT_EQ(b->attrs.at("name").AsString(), "b");  // body untouched
  EXPECT_EQ(b->last_refresh, 9.0);  // failure detector sees the heartbeat
}

TEST(TableDigest, MergeRefreshNeverCreatesOrResurrectsARow) {
  Table t = ThreeRows();
  EXPECT_FALSE(t.MergeRefresh(RowRefresh{"ghost", 99, 99}, /*now=*/9.0));
  EXPECT_FALSE(t.Has("ghost"));
  // An evicted row stays evicted: only a full body (which passes the
  // agent-level deletion-stability check) can bring it back.
  t.Erase("c");
  EXPECT_FALSE(t.MergeRefresh(RowRefresh{"c", 35, 30}, /*now=*/9.0));
  EXPECT_FALSE(t.Has("c"));
}

TEST(TableDigest, MergeRefreshRejectsStaleOrDivergentHeartbeats) {
  Table t = ThreeRows();
  // Not newer than what we hold: no-op.
  EXPECT_FALSE(t.MergeRefresh(RowRefresh{"b", 20, 20}, /*now=*/9.0));
  // Newer version but a different content stream: our body may be wrong
  // for that version, so the refresh is dropped (the digest exchange will
  // ship the full row).
  EXPECT_FALSE(t.MergeRefresh(RowRefresh{"b", 45, 33}, /*now=*/9.0));
  EXPECT_EQ(t.Find("b")->version, 20u);
}

TEST(TableDigest, ExpiredRowsLeaveTheDigestAndTheDelta) {
  // Interplay with the failure detector: once row expiry (Agent::ExpireRows,
  // which erases each doomed row) evicts a row, the digest stops
  // advertising it and the delta stops shipping it — the eviction
  // propagates by silence, not by a tombstone. A peer still holding the
  // row will offer it back; the agent-level deletion-stability check
  // (agent.cc MergeRows) decides whether that is a resurrection or a
  // legitimate rebirth.
  Table t = ThreeRows();
  t.Erase("b");
  EXPECT_EQ(t.size(), 2u);
  const TableDigest digest = t.MakeDigest();
  EXPECT_FALSE(digest.contains("b"));
  EXPECT_EQ(Keys(t.DeltaAgainst(TableDigest{}).rows),
            (std::vector<std::string>{"a", "c"}));
}

// The keep rule of row expiry: a replica never expires its own row, which
// it alone vouches for. Agent::ExpireRows applies it, so these two drive it
// through a four-agent, two-level deployment: agent 0's only zone-mate
// crashes, the zone row the two shared stops heartbeating, and the failure
// detector suspects it while agent 0 is still a member. Returns the rows
// agent 0 expired after the crash.
std::uint64_t CrashAgent0sZoneMate(Deployment& d) {
  d.StartAll();
  d.RunFor(60);
  const Agent& survivor = d.agent(0);
  const std::string zone_key = "0/" + survivor.path().Component(0);
  EXPECT_GE(survivor.failure_detector().SampleCount(zone_key),
            survivor.config().phi.min_samples);
  const std::uint64_t before = survivor.gossip_stats().rows_expired;
  d.net().Kill(d.agent(1).id());
  d.RunFor(120);
  EXPECT_TRUE(survivor.failure_detector().Suspect(
      zone_key, d.sim().Now(), survivor.config().gossip_period));
  return survivor.gossip_stats().rows_expired - before;
}

DeploymentConfig KeepRuleConfig() {
  DeploymentConfig cfg;
  cfg.branching = 2;
  cfg.gossip_period = 2.0;
  cfg.fail_timeout_rounds = 6;
  cfg.contacts_per_zone = 2;
  return cfg;
}

TEST(Table, ExpiryKeepsOwnRow) {
  Deployment d(4, KeepRuleConfig());
  ASSERT_EQ(d.Depth(), 2u);
  const std::uint64_t evicted = CrashAgent0sZoneMate(d);
  const Agent& survivor = d.agent(0);
  EXPECT_EQ(evicted, 1u);  // the crashed zone-mate's leaf row, nothing else
  EXPECT_TRUE(survivor.TableAt(1).Has(survivor.path().Component(1)));
  EXPECT_FALSE(survivor.TableAt(1).Has(d.agent(1).path().Component(1)));
  EXPECT_TRUE(survivor.TableAt(0).Has(survivor.path().Component(0)));
}

TEST(TableDigest, KeepRowSurvivesExpiryAndStaysInTheDigest) {
  // The suspected own zone row must keep appearing in agent 0's digests,
  // or its peers would never hear of the zone again.
  Deployment d(4, KeepRuleConfig());
  CrashAgent0sZoneMate(d);
  const Agent& survivor = d.agent(0);
  EXPECT_TRUE(
      survivor.TableAt(0).MakeDigest().contains(survivor.path().Component(0)));
}

TEST(TableDigest, DeltaCarriesFullRowEntries) {
  // The delta ships the entry verbatim — attributes and the owner versions —
  // so the receiver can merge it exactly as it would a snapshot row.
  const Table t = ThreeRows();
  const auto delta =
      t.DeltaAgainst(TableDigest{{"a", {10, 10}}, {"b", {20, 20}}});
  ASSERT_EQ(delta.rows.size(), 1u);
  EXPECT_EQ(delta.rows[0].first, "c");
  EXPECT_EQ(delta.rows[0].second.version, 30u);
  EXPECT_EQ(delta.rows[0].second.content_version, 30u);
  EXPECT_EQ(delta.rows[0].second.attrs.at("name").AsString(), "c");
}

TEST(TableDigest, DigestWireBytesGrowsWithRows) {
  Table t;
  const std::size_t empty = DigestWireBytes(t.MakeDigest());
  t.Upsert("node1").version = 1;
  const std::size_t one = DigestWireBytes(t.MakeDigest());
  EXPECT_GT(one, empty);
  // A digest entry costs key + fixed version/length overhead — an order of
  // magnitude below a realistic row body (RowWireBytes counts attributes).
  EXPECT_EQ(one - empty, std::string("node1").size() + 18);
}

}  // namespace
}  // namespace nw::astrolabe

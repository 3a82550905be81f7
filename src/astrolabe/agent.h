// The Astrolabe agent (paper §3): one per machine. Owns the machine's MIB
// row, replicates the zone tables on its path to the root, gossips them
// epidemically, recomputes aggregation functions whenever child tables
// change, detects failures by row expiry (phi accrual, which applies the
// fixed fail timeout to rows it has too few samples for), and spreads
// signed aggregation-function certificates as mobile code.
//
// Table replicas are held through shared_ptr with copy-on-write so that a
// converged system (e.g. the 100k-leaf dissemination experiments, which
// warm-start the replicas) shares one physical table per zone.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "astrolabe/cert.h"
#include "astrolabe/failure_detector.h"
#include "astrolabe/sql/ast.h"
#include "astrolabe/sql/plan.h"
#include "astrolabe/table.h"
#include "astrolabe/zone_path.h"
#include "sim/network.h"

namespace nw::astrolabe {

// Gossip wire format (PROTOCOLS.md "Gossip wire format v2"):
//  * kFull  — v1: every exchange ships full zone-table snapshots plus the
//    whole certificate set; wire bytes grow with zone size.
//  * kDelta — v2 (default): a digest-first three-leg reconciliation; only
//    rows whose owner version differs cross the wire, so steady-state
//    bytes grow with churn instead of zone size.
// Both modes converge replicas to the identical state (enforced by
// tests/gossip_equivalence_test.cc).
enum class GossipWireMode { kFull, kDelta };

const char* GossipWireModeName(GossipWireMode mode) noexcept;
// "full" / "delta" -> mode; nullopt on anything else.
std::optional<GossipWireMode> GossipWireModeFromName(std::string_view name);

// The tuning every agent of a deployment shares (every NewsWire node is
// "just another Astrolabe leaf", paper §8). AgentConfig, DeploymentConfig
// and newswire::SystemConfig all inherit it, so each knob is declared once
// and a deployment hands it to its agents as one slice.
struct AgentTuning {
  double gossip_period = 2.0;     // seconds between rounds
  // Row expiry: phi accrual over each row's version-advance intervals
  // (failure_detector.h); until a row has phi.min_samples of them, it
  // expires after fail_timeout_rounds periods without a fresher version.
  // phi.min_samples = SIZE_MAX keeps every row on that fixed rule.
  double fail_timeout_rounds = 6;
  std::int64_t contacts_per_zone = 3;  // representatives per zone (paper §5)
  GossipWireMode gossip_wire = GossipWireMode::kDelta;
  PhiAccrualConfig phi;
  // Escape hatch (--force-full-recompute in newswire_sim): disable the
  // dirty-tracked aggregation memo and re-evaluate every level on every
  // RecomputeAggregates, as the engine did before DESIGN.md §11. Both modes
  // are bit-identical in every observable (pinned by
  // tests/aggregation_cache_test.cc); this exists to measure the saving and
  // to bisect should the memo ever be suspected.
  bool force_full_recompute = false;
};

struct AgentConfig : AgentTuning {
  ZonePath path;                  // full leaf path, depth >= 1
  PublicKey trust_root = 0;       // anchor for certificate validation
};

// Well-known attribute names maintained by the agent itself.
inline constexpr const char* kAttrContacts = "contacts";   // list<int NodeId>
inline constexpr const char* kAttrMembers = "nmembers";    // int
inline constexpr const char* kAttrLoad = "load";           // double
// Health score in [0,1] (1 = healthy), published by the multicast layer
// from retransmit/corruption evidence so representative election and
// failover can route around gray nodes (DESIGN.md §10).
inline constexpr const char* kAttrHealth = "health";       // double

// The default aggregation function installed in every zone: elects the
// k least-loaded contacts as zone representatives and counts members.
std::string DefaultCoreFunctionCode(std::int64_t contacts_per_zone);

class Agent : public sim::Node {
 public:
  explicit Agent(AgentConfig config);
  ~Agent() override;

  // Begins gossip; must be called after the node is added to the network.
  void Start();

  // Registers this agent's metric ids eagerly. Called by Deployment right
  // after the agent joins the network, so a metrics dump lists every
  // astrolabe metric (at zero) whether or not an event touched it.
  void WarmObservability() { (void)Metrics(); }

  // ---- Local MIB -------------------------------------------------------
  void SetLocalAttr(const std::string& name, AttrValue value);
  void RemoveLocalAttr(const std::string& name);
  const Row& LocalRow() const { return mib_; }

  // ---- Mobile code -----------------------------------------------------
  // Installs an aggregation function carried by a kFunction certificate
  // (claim "code" holds the SQL). Returns false (and installs nothing) if
  // the chain does not validate or the code does not parse.
  bool InstallFunction(const Certificate& cert);
  // Adds a zone-authority certificate to the local trust store (validated
  // against the trust root first).
  bool AddZoneAuthority(const Certificate& cert);
  std::vector<std::string> InstalledFunctionNames() const;

  // ---- Introspection / queries ------------------------------------------
  const AgentConfig& config() const { return config_; }
  const ZonePath& path() const { return config_.path; }
  std::size_t Depth() const { return config_.path.Depth(); }

  // Table of the zone with `level` path components (0 = root table).
  // level must be < Depth().
  const Table& TableAt(std::size_t level) const { return *tables_[level]; }

  // Locally evaluated summary row of the zone with `level` components;
  // level == 0 gives the whole-system (root) summary.
  Row ZoneSummary(std::size_t level) const;

  // Evaluates every installed aggregation function over an arbitrary
  // table (used by the warm-start path to precompute converged replicas).
  Row AggregateOf(const Table& table) const;

  // Representatives of a child row of the level-`level` table, resolved
  // from its "contacts" attribute. Empty if unknown.
  std::vector<sim::NodeId> ContactsOf(std::size_t level,
                                      const std::string& child_key) const;
  // ContactsOf into a caller-owned buffer (cleared first).
  void ContactsInto(std::size_t level, const std::string& child_key,
                    std::vector<sim::NodeId>& out) const;
  // The representatives listed in a row's "contacts" attribute, into `out`
  // (cleared first).
  static void ContactsFromRow(const Row& attrs, std::vector<sim::NodeId>& out);

  // True if this agent currently represents its child zone in the
  // level-`level` table (always true at the deepest level).
  bool RepresentsAt(std::size_t level) const;

  // ---- Application messaging ---------------------------------------------
  // Upper layers (multicast, pub/sub, news) register handlers for their
  // message types; every message, gossip included, is dispatched through
  // a table indexed by the type's id.
  using Handler = std::function<void(const sim::Message&)>;
  void RegisterHandler(sim::MsgType type, Handler handler);

  // Invoked after a simulated process restart, so layers composed onto the
  // agent (caches, repair timers) can reset their volatile state and
  // reschedule their timers.
  void AddRestartHook(std::function<void()> hook) {
    restart_hooks_.push_back(std::move(hook));
  }
  using sim::Node::Send;  // expose for the layers composed onto this agent
  using sim::Node::Schedule;
  using sim::Node::CancelTimer;
  using sim::Node::Now;
  using sim::Node::Rng;
  // Exposed so composed layers can reach the network's optional
  // metrics()/tracer() (null before the agent joins a network).
  using sim::Node::attached_network;

  // Peers used to re-join after a restart or when tables are empty.
  void SetSeedPeers(std::vector<sim::NodeId> seeds) { seeds_ = std::move(seeds); }

  // ---- Warm start --------------------------------------------------------
  // Directly installs a (shared) replica of a zone table, as if gossip had
  // already converged. Used by large-scale experiments to skip the O(N)
  // convergence phase they do not measure.
  void WarmStartTable(std::size_t level, std::shared_ptr<Table> table);

  // ---- Stats -------------------------------------------------------------
  struct GossipStats {
    std::uint64_t rounds = 0;
    std::uint64_t exchanges_sent = 0;
    std::uint64_t rows_merged = 0;
    std::uint64_t rows_expired = 0;
    std::uint64_t certs_rejected = 0;
    // Frames dropped by envelope-checksum verification (wire-format v3);
    // corruption degrades into loss instead of poisoning the MIBs.
    std::uint64_t integrity_drops = 0;
    // Wire-format accounting (see GossipWireMode): rows shipped vs rows the
    // digest proved the peer already had, cert bodies actually sent, and
    // payload bytes split by kind.
    std::uint64_t rows_sent = 0;
    std::uint64_t rows_suppressed = 0;
    std::uint64_t certs_sent = 0;
    std::uint64_t digest_bytes = 0;
    std::uint64_t delta_bytes = 0;
    std::uint64_t full_bytes = 0;
  };
  const GossipStats& gossip_stats() const { return stats_; }

  // Aggregation-engine accounting (DESIGN.md §11). Per RecomputeAggregates
  // call, every level in [1, Depth()) is either evaluated or served from
  // the memo, so `levels_evaluated + cache_hits ==
  // recompute_calls * (Depth() - 1)` — and with force_full_recompute the
  // cache_hits term is identically zero.
  struct AggStats {
    std::uint64_t recompute_calls = 0;   // RecomputeAggregates invocations
    std::uint64_t levels_evaluated = 0;  // levels actually re-aggregated
    std::uint64_t cache_hits = 0;        // levels served from the memo
    std::uint64_t compare_skips = 0;     // RowsEqual compares proven away
  };
  const AggStats& agg_stats() const { return agg_stats_; }

  // The row-expiry failure detector (read-only; for tests and health
  // introspection). Rows below config().phi.min_samples do not consult it.
  const PhiAccrualDetector& failure_detector() const { return detector_; }

  // sim::Node
  void OnMessage(const sim::Message& msg) override;
  void OnRestart() override;

 private:
  struct InstalledFunction {
    Certificate cert;
    // Compiled once at install time; per-round recomputation never touches
    // the AST shape again (builtin opcodes, classified accumulators).
    sql::CompiledQuery plan;
  };

  // Dirty-tracked recomputation memo, one slot per level (DESIGN.md §11).
  // A slot is a hit when the input table's content epoch and the function
  // generation both match; `parent_clean` additionally remembers that the
  // parent row was last seen (or written) equal to `agg`, so an unchanged
  // parent epoch proves the RowsEqual compare away too.
  struct AggMemo {
    bool valid = false;
    bool parent_clean = false;
    std::uint64_t input_epoch = 0;
    std::uint64_t fn_generation = 0;
    std::uint64_t parent_epoch = 0;
    Row agg;  // cached aggregate of tables_[level]
  };

  struct TableSnapshot {
    std::string zone;  // path of the zone this table belongs to
    std::shared_ptr<const Table> table;
  };
  struct TableDigestPart {
    std::string zone;
    // Init leg: the sender's full inventory (key -> versions). Reply leg:
    // the replier's request list — only rows it needs pushed back.
    TableDigest rows;
  };
  struct TableDeltaPart {
    std::string zone;
    std::vector<std::pair<std::string, RowEntry>> rows;  // content the peer lacks
    std::vector<RowRefresh> refreshes;  // heartbeat-only version advances
    bool empty() const { return rows.empty() && refreshes.empty(); }
  };
  // One gossip message. The exchange stage is carried by the message type
  // (astro.gossip / astro.gossip_reply / astro.gossip_final); the wire mode
  // is implied by which fields are populated: full snapshots (v1) or
  // digests/deltas (v2). Cert bodies are deduplicated against the per-peer
  // inventory in both modes; `cert_ids` always advertises the sender's full
  // certificate inventory so the receiver learns what not to send back.
  struct GossipPayload {
    std::string zone;  // path of the zone whose table level anchors this
    std::vector<TableSnapshot> tables;        // full mode
    std::vector<TableDigestPart> digests;     // delta mode: init + reply
    std::vector<TableDeltaPart> deltas;       // delta mode: reply + final
    std::vector<std::uint64_t> cert_ids;      // sender's cert inventory
    std::vector<Certificate> certs;           // bodies the peer lacks
    std::size_t DigestBytes() const;  // digest parts + cert-id inventory
    std::size_t DeltaBytes() const;   // delta rows (+ cert bodies, delta mode)
    std::size_t FullBytes() const;    // snapshots (+ cert bodies, full mode)
    std::size_t WireBytes() const;
  };

  void GossipRound();
  void RefreshOwnRow();
  void RecomputeAggregates();
  void ExpireRows();
  void DoGossipAt(std::size_t level);
  void HandleGossipInit(const sim::Message& msg);
  void HandleGossipReply(const sim::Message& msg);
  void HandleGossipFinal(const sim::Message& msg);
  // Deepest level whose zone path is shared with `peer_zone`.
  std::size_t CommonLevelWith(const std::string& peer_zone) const;
  void MergeTables(const GossipPayload& payload);
  void MergeDeltas(const GossipPayload& payload);
  // Shared merge core: one remote row set for the table of `zone`.
  template <typename Rows>
  void MergeRows(const std::string& zone_text, const Rows& rows);
  // Heartbeat-only version advances for rows whose content we already hold.
  void MergeRefreshes(const std::string& zone_text,
                      const std::vector<RowRefresh>& refreshes);
  void MergeCerts(const std::vector<Certificate>& certs);
  GossipPayload BuildFullPayload(std::size_t level) const;
  GossipPayload BuildDigestPayload(std::size_t level) const;
  // Delta rows of every local table (0..level) against the peer's digests;
  // `attach_digests` adds our own digests so the peer can push back what we
  // are missing (the reply leg of the three-leg reconciliation).
  GossipPayload BuildDeltaPayload(const GossipPayload& request,
                                  std::size_t level, bool attach_digests);
  // Cert dedup: advertise the full inventory, ship only bodies the peer is
  // not known to hold, and optimistically mark them as held (the peer's
  // next advertised inventory corrects us if the message was lost).
  void AttachCerts(GossipPayload& payload, sim::NodeId peer);
  void NoteCertInventory(sim::NodeId peer,
                         const std::vector<std::uint64_t>& ids);
  // Sends one gossip message and attributes its bytes/rows to the stats and
  // the astrolabe.gossip.* metrics.
  void SendGossip(sim::NodeId to, sim::MsgType type, GossipPayload payload);
  std::uint64_t NextVersion();

  // Copy-on-write access to a table replica.
  Table& MutableTableAt(std::size_t level);

  // ---- observability (all null-safe; ids registered lazily) -------------
  obs::MetricsRegistry* Metrics();
  obs::EventTracer* Tracer() const;
  void NoteCertReject(const std::string& subject);
  // Detects changes to the set of levels this agent represents and emits
  // an election event (the first evaluation only sets the baseline).
  void TraceElectionChanges();
  struct ObsIds {
    bool init = false;
    std::uint32_t rounds, exchanges, rows_merged, rows_expired, recomputes,
        cert_rejects, elections, integrity_drops;
    std::uint32_t recompute_skips, agg_evals;
    std::uint32_t digest_bytes, delta_bytes, full_bytes, rows_sent,
        rows_suppressed, certs_sent;
  };
  static constexpr std::uint32_t kNoRepMask = 0xffffffffu;

  AgentConfig config_;
  Row mib_;
  std::vector<std::shared_ptr<Table>> tables_;  // size == Depth()
  std::vector<AggMemo> agg_memo_;               // size == Depth(); [0] unused
  // Bumped whenever the installed-function set changes; part of every memo
  // key, so an install invalidates all levels at once.
  std::uint64_t fn_generation_ = 0;
  AggStats agg_stats_;
  std::map<std::string, InstalledFunction> functions_;
  std::vector<Certificate> zone_authorities_;
  std::vector<Handler> handlers_;  // indexed by sim::MsgType id
  std::vector<std::function<void()>> restart_hooks_;
  std::vector<sim::NodeId> seeds_;
  // Cert ids (Certificate::Digest()) each peer is believed to hold, rebuilt
  // from the inventory every gossip message advertises. Volatile (cleared
  // on restart): worst case a cert body is re-sent once.
  std::map<sim::NodeId, std::set<std::uint64_t>> peer_known_certs_;
  std::uint64_t version_counter_ = 0;
  // Leaf-level partner schedule: rounds since restart and the rotation
  // cursor over leaf siblings (see DoGossipAt).
  std::uint64_t leaf_round_ = 0;
  std::uint64_t leaf_cursor_ = 0;
  bool started_ = false;
  GossipStats stats_;
  // Per-row arrival history for row expiry, keyed "<level>/<row key>".
  // Survives row expiry (so a re-learned row keeps its rhythm) but not a
  // process restart.
  PhiAccrualDetector detector_;
  ObsIds obs_{};
  std::uint32_t rep_mask_ = kNoRepMask;  // bit l: represents at level l
};

}  // namespace nw::astrolabe

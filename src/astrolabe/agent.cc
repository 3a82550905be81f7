#include "astrolabe/agent.h"

#include <algorithm>
#include <cassert>

#include "astrolabe/sql/eval.h"
#include "astrolabe/sql/parser.h"
#include "util/log.h"

namespace nw::astrolabe {

namespace {

const sim::MsgType kGossipType{"astro.gossip"};
const sim::MsgType kGossipReplyType{"astro.gossip_reply"};
const sim::MsgType kGossipFinalType{"astro.gossip_final"};

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !ia->second.Equals(ib->second)) return false;
  }
  return true;
}

}  // namespace

const char* GossipWireModeName(GossipWireMode mode) noexcept {
  switch (mode) {
    case GossipWireMode::kFull:
      return "full";
    case GossipWireMode::kDelta:
      return "delta";
  }
  return "?";
}

std::optional<GossipWireMode> GossipWireModeFromName(std::string_view name) {
  if (name == "full") return GossipWireMode::kFull;
  if (name == "delta") return GossipWireMode::kDelta;
  return std::nullopt;
}

std::string DefaultCoreFunctionCode(std::int64_t contacts_per_zone) {
  // Elect the least-loaded representatives (paper §5: selection "combines
  // the local knowledge of availability ... the load on those paths and the
  // load on each node"), count members, and expose mean load upward.
  return "SELECT TOP(" + std::to_string(contacts_per_zone) +
         ", contacts ORDER BY load ASC) AS contacts, "
         "SUM(nmembers) AS nmembers, AVG(load) AS load";
}

std::size_t Agent::GossipPayload::DigestBytes() const {
  std::size_t n = 8 * cert_ids.size();
  for (const auto& part : digests) {
    n += part.zone.size() + 2 + DigestWireBytes(part.rows);
  }
  return n;
}

std::size_t Agent::GossipPayload::DeltaBytes() const {
  std::size_t n = 0;
  for (const auto& part : deltas) {
    n += part.zone.size() + 10;
    for (const auto& [key, entry] : part.rows) {
      n += key.size() + 10 + RowWireBytes(entry.attrs);
    }
    for (const auto& refresh : part.refreshes) n += RefreshWireBytes(refresh);
  }
  if (tables.empty()) {  // delta-mode message: cert bodies ride the delta
    for (const auto& cert : certs) n += cert.WireBytes();
  }
  return n;
}

std::size_t Agent::GossipPayload::FullBytes() const {
  std::size_t n = 0;
  for (const auto& snap : tables) n += snap.table->WireBytes();
  if (!tables.empty()) {
    for (const auto& cert : certs) n += cert.WireBytes();
  }
  return n;
}

std::size_t Agent::GossipPayload::WireBytes() const {
  return zone.size() + 8 + DigestBytes() + DeltaBytes() + FullBytes();
}

obs::MetricsRegistry* Agent::Metrics() {
  auto* net = attached_network();
  auto* m = net != nullptr ? net->metrics() : nullptr;
  if (m != nullptr && !obs_.init) {
    obs_.rounds = m->Counter("astro.agent.gossip_rounds");
    obs_.exchanges = m->Counter("astro.agent.exchanges_sent");
    obs_.rows_merged = m->Counter("astro.agent.rows_merged");
    obs_.rows_expired = m->Counter("astro.agent.rows_expired");
    obs_.recomputes = m->Counter("astro.agent.aggregate_recomputes");
    obs_.recompute_skips = m->Counter("astro.agent.recompute_skips");
    obs_.agg_evals = m->Counter("astro.agent.agg_evals");
    obs_.cert_rejects = m->Counter("astro.agent.certs_rejected");
    obs_.elections = m->Counter("astro.agent.representative_changes");
    obs_.integrity_drops = m->Counter("astro.agent.integrity_drops");
    obs_.digest_bytes = m->Counter("astrolabe.gossip.digest_bytes");
    obs_.delta_bytes = m->Counter("astrolabe.gossip.delta_bytes");
    obs_.full_bytes = m->Counter("astrolabe.gossip.full_bytes");
    obs_.rows_sent = m->Counter("astrolabe.gossip.rows_sent");
    obs_.rows_suppressed = m->Counter("astrolabe.gossip.rows_suppressed");
    obs_.certs_sent = m->Counter("astrolabe.gossip.certs_sent");
    obs_.init = true;
  }
  return m;
}

obs::EventTracer* Agent::Tracer() const {
  auto* net = attached_network();
  return net != nullptr ? net->tracer() : nullptr;
}

void Agent::NoteCertReject(const std::string& subject) {
  ++stats_.certs_rejected;
  if (auto* m = Metrics()) m->Add(obs_.cert_rejects, id());
  if (auto* t = Tracer()) {
    t->Record(alive() ? Now() : 0.0, id(), obs::EventCategory::kCert,
              "cert.reject", 0, 0, subject);
  }
}

void Agent::TraceElectionChanges() {
  std::uint32_t mask = 0;
  for (std::size_t level = 0; level < Depth(); ++level) {
    if (RepresentsAt(level)) mask |= 1u << level;
  }
  if (rep_mask_ != kNoRepMask && mask != rep_mask_) {
    if (auto* m = Metrics()) m->Add(obs_.elections, id());
    if (auto* t = Tracer()) {
      t->Record(Now(), id(), obs::EventCategory::kElection, "election.change",
                mask, rep_mask_);
    }
  }
  rep_mask_ = mask;
}

Agent::Agent(AgentConfig config)
    : config_(std::move(config)), detector_(config_.phi) {
  assert(config_.path.Depth() >= 1);
  tables_.reserve(Depth());
  for (std::size_t i = 0; i < Depth(); ++i) {
    tables_.push_back(std::make_shared<Table>());
  }
  agg_memo_.resize(Depth());
  // Every protocol's types are interned during static initialization, so
  // this sizes the table once.
  handlers_.resize(sim::MsgType::Count());
  RegisterHandler(kGossipType,
                  [this](const sim::Message& msg) { HandleGossipInit(msg); });
  RegisterHandler(kGossipReplyType,
                  [this](const sim::Message& msg) { HandleGossipReply(msg); });
  RegisterHandler(kGossipFinalType,
                  [this](const sim::Message& msg) { HandleGossipFinal(msg); });
}

Agent::~Agent() = default;

void Agent::Start() {
  assert(alive() && "add the agent to a network before Start()");
  started_ = true;
  if (!mib_.contains(kAttrContacts)) {
    mib_[kAttrContacts] = ValueList{AttrValue(std::int64_t{id()})};
  }
  if (!mib_.contains(kAttrMembers)) mib_[kAttrMembers] = std::int64_t{1};
  if (!mib_.contains(kAttrLoad)) mib_[kAttrLoad] = 0.0;
  RefreshOwnRow();
  RecomputeAggregates();
  // Desynchronize the first round across agents.
  Schedule(config_.gossip_period * Rng().NextDouble(), [this] { GossipRound(); });
}

void Agent::OnRestart() {
  // Volatile replicas are lost with the process; re-join from seeds.
  for (auto& t : tables_) t = std::make_shared<Table>();
  // Fresh tables restart their content epochs, so every memo key would
  // alias: drop the memos wholesale.
  for (auto& memo : agg_memo_) memo = AggMemo{};
  peer_known_certs_.clear();  // also process memory
  detector_.Clear();          // arrival histories die with the process
  leaf_round_ = 0;
  leaf_cursor_ = 0;
  rep_mask_ = kNoRepMask;  // representation re-baselines with the new state
  if (started_) {
    RefreshOwnRow();
    RecomputeAggregates();
    Schedule(config_.gossip_period * Rng().NextDouble(),
             [this] { GossipRound(); });
  }
  for (const auto& hook : restart_hooks_) hook();
}

void Agent::SetLocalAttr(const std::string& name, AttrValue value) {
  mib_[name] = std::move(value);
  if (started_ && alive()) {
    RefreshOwnRow();
    RecomputeAggregates();
  }
}

void Agent::RemoveLocalAttr(const std::string& name) {
  mib_.erase(name);
  if (started_ && alive()) {
    RefreshOwnRow();
    RecomputeAggregates();
  }
}

bool Agent::InstallFunction(const Certificate& cert) {
  if (cert.kind != CertKind::kFunction) return false;
  const double now = alive() ? Now() : 0.0;
  if (ValidateChain(cert, zone_authorities_, config_.trust_root, now) !=
      CertStatus::kOk) {
    NoteCertReject(cert.subject);
    return false;
  }
  auto code_it = cert.claims.find("code");
  if (code_it == cert.claims.end()) {
    NoteCertReject(cert.subject);
    return false;
  }
  // Version gate: only upgrade.
  std::int64_t version = 0;
  if (auto v = cert.claims.find("version"); v != cert.claims.end()) {
    version = std::atoll(v->second.c_str());
  }
  auto existing = functions_.find(cert.subject);
  if (existing != functions_.end()) {
    std::int64_t have = 0;
    if (auto v = existing->second.cert.claims.find("version");
        v != existing->second.cert.claims.end()) {
      have = std::atoll(v->second.c_str());
    }
    if (version <= have) return false;  // not newer: ignore silently
  }
  sql::Query query;
  try {
    query = sql::ParseQuery(code_it->second);
  } catch (const sql::ParseError& e) {
    util::LogWarn("agent %s: rejecting unparsable function '%s': %s",
                  path().ToString().c_str(), cert.subject.c_str(), e.what());
    NoteCertReject(cert.subject);
    return false;
  }
  functions_[cert.subject] =
      InstalledFunction{cert, sql::CompiledQuery::Compile(std::move(query))};
  ++fn_generation_;  // part of every memo key: invalidates all levels
  if (started_ && alive()) RecomputeAggregates();
  return true;
}

bool Agent::AddZoneAuthority(const Certificate& cert) {
  if (cert.kind != CertKind::kZoneAuthority) return false;
  const double now = alive() ? Now() : 0.0;
  if (ValidateChain(cert, {}, config_.trust_root, now) != CertStatus::kOk) {
    NoteCertReject(cert.subject);
    return false;
  }
  for (const auto& existing : zone_authorities_) {
    if (existing.subject_key == cert.subject_key) return true;
  }
  zone_authorities_.push_back(cert);
  return true;
}

std::vector<std::string> Agent::InstalledFunctionNames() const {
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const auto& [name, fn] : functions_) names.push_back(name);
  return names;
}

Row Agent::ZoneSummary(std::size_t level) const {
  assert(level < Depth());
  // Serve the recomputation memo when it provably matches the live table.
  const AggMemo& memo = agg_memo_[level];
  if (!config_.force_full_recompute && memo.valid &&
      memo.fn_generation == fn_generation_ &&
      memo.input_epoch == tables_[level]->content_epoch()) {
    return memo.agg;
  }
  return AggregateOf(*tables_[level]);
}

Row Agent::AggregateOf(const Table& table) const {
  Row out;
  // Later functions override earlier ones on output-name collisions, same
  // as the pre-compiled insert_or_assign merge did.
  for (const auto& [name, fn] : functions_) fn.plan.EvalInto(table, out);
  return out;
}

std::vector<sim::NodeId> Agent::ContactsOf(std::size_t level,
                                           const std::string& child_key) const {
  std::vector<sim::NodeId> out;
  ContactsInto(level, child_key, out);
  return out;
}

void Agent::ContactsInto(std::size_t level, const std::string& child_key,
                         std::vector<sim::NodeId>& out) const {
  out.clear();
  if (level >= Depth()) return;
  const RowEntry* entry = tables_[level]->Find(child_key);
  if (entry != nullptr) ContactsFromRow(entry->attrs, out);
}

void Agent::ContactsFromRow(const Row& attrs, std::vector<sim::NodeId>& out) {
  out.clear();
  auto it = attrs.find(kAttrContacts);
  if (it == attrs.end() || it->second.type() != AttrValue::Type::kList) {
    return;
  }
  for (const AttrValue& v : it->second.AsList()) {
    if (v.type() == AttrValue::Type::kInt) {
      out.push_back(static_cast<sim::NodeId>(v.AsInt()));
    }
  }
}

bool Agent::RepresentsAt(std::size_t level) const {
  assert(level < Depth());
  if (level + 1 == Depth()) return true;  // leaf table: every member gossips
  const auto contacts = ContactsOf(level, config_.path.Component(level));
  return std::find(contacts.begin(), contacts.end(), id()) != contacts.end();
}

void Agent::RegisterHandler(sim::MsgType type, Handler handler) {
  if (type.id() >= handlers_.size()) handlers_.resize(type.id() + 1);
  handlers_[type.id()] = std::move(handler);
}

void Agent::WarmStartTable(std::size_t level, std::shared_ptr<Table> table) {
  assert(level < Depth());
  tables_[level] = std::move(table);
  // The replaced table has its own epoch counter; a stale memo comparing
  // against it would alias. Rare (experiment setup only): drop them all.
  for (auto& memo : agg_memo_) memo = AggMemo{};
}

void Agent::OnMessage(const sim::Message& msg) {
  // Envelope verification (wire-format v3) guards every protocol riding on
  // the agent — gossip, mc.*, pub/sub, news — so a corrupted frame becomes
  // a counted loss instead of poisoning MIBs or caches.
  if (!sim::IntegrityOk(msg)) {
    ++stats_.integrity_drops;
    if (auto* m = Metrics()) m->Add(obs_.integrity_drops, id());
    if (auto* t = Tracer();
        t != nullptr && t->Enabled(obs::EventCategory::kIntegrity)) {
      t->Record(Now(), id(), obs::EventCategory::kIntegrity, "integrity.drop",
                msg.from, msg.wire_bytes, msg.type.name());
    }
    return;
  }
  if (msg.type.id() < handlers_.size() && handlers_[msg.type.id()]) {
    handlers_[msg.type.id()](msg);
  } else {
    util::LogWarn("agent %s: dropping message of unknown type '%s'",
                  path().ToString().c_str(), msg.type.c_str());
  }
}

namespace {
// Row versions encode the owner's issue time (milliseconds, high bits) plus
// a node tiebreak, so any replica can judge how old a row is from the
// version alone.
std::uint64_t EncodeVersion(double now, sim::NodeId id) {
  return (static_cast<std::uint64_t>(now * 1000.0) << 10) |
         (static_cast<std::uint64_t>(id) & 1023u);
}
double VersionTime(std::uint64_t version) {
  return static_cast<double>(version >> 10) / 1000.0;
}
// Detector key of a monitored row: level-qualified so same-named children
// of different zones track independently.
std::string DetectorKey(std::size_t level, const std::string& key) {
  return std::to_string(level) + "/" + key;
}
}  // namespace

std::uint64_t Agent::NextVersion() {
  const double now = alive() ? Now() : 0.0;
  version_counter_ = std::max(version_counter_ + 1, EncodeVersion(now, id()));
  return version_counter_;
}

Table& Agent::MutableTableAt(std::size_t level) {
  assert(level < Depth());
  // Copy-on-write: clone if this replica is shared (warm start).
  if (tables_[level].use_count() > 1) {
    tables_[level] = std::make_shared<Table>(*tables_[level]);
  }
  return *tables_[level];
}

void Agent::RefreshOwnRow() {
  const double now = alive() ? Now() : 0.0;
  const std::string& key = config_.path.Leaf();
  // Every round re-versions the row (the version doubles as the liveness
  // heartbeat), but content_version — and the leaf table's content epoch —
  // only move when the attributes really change: a pure heartbeat reissue
  // must not dirty the aggregation memo (DESIGN.md §11).
  const RowEntry* current = tables_[Depth() - 1]->Find(key);
  const bool changed = current == nullptr || current->version == 0 ||
                       !RowsEqual(current->attrs, mib_);
  Table& leaf_table = MutableTableAt(Depth() - 1);
  if (changed) {
    RowEntry& entry = leaf_table.Upsert(key);
    entry.attrs = mib_;
    entry.version = NextVersion();
    entry.content_version = entry.version;
    entry.last_refresh = now;
  } else {
    leaf_table.Refresh(key, NextVersion(), now);
  }
}

void Agent::RecomputeAggregates() {
  ++agg_stats_.recompute_calls;
  if (auto* m = Metrics()) m->Add(obs_.recomputes, id());
  const double now = alive() ? Now() : 0.0;
  const bool force = config_.force_full_recompute;
  auto* tracer = Tracer();
  const bool trace = tracer != nullptr &&
                     tracer->Enabled(obs::EventCategory::kAggregation);
  // Bottom-up: the summary of the zone at `level` components feeds the
  // table one level up, like a spreadsheet recomputation (paper §3) — but
  // dirty-tracked (DESIGN.md §11): a level whose input table's content
  // epoch is unchanged since the memoized evaluation is served from the
  // memo, and an unchanged parent epoch on top of that proves the written
  // row still equals the cached aggregate, skipping the RowsEqual compare
  // as well. Either way the write decisions — and hence the version
  // sequence, the row bytes, and the gossip — are bit-identical to
  // evaluating every level every time (force_full_recompute does exactly
  // that; tests/aggregation_cache_test.cc pins the equivalence).
  for (std::size_t level = Depth() - 1; level >= 1; --level) {
    AggMemo& memo = agg_memo_[level];
    const std::uint64_t input_epoch = tables_[level]->content_epoch();
    const bool hit = !force && memo.valid &&
                     memo.fn_generation == fn_generation_ &&
                     memo.input_epoch == input_epoch;
    if (hit) {
      ++agg_stats_.cache_hits;
      if (auto* m = Metrics()) m->Add(obs_.recompute_skips, id());
      if (trace) {
        tracer->Record(now, id(), obs::EventCategory::kAggregation,
                       "agg.cache_hit", level, input_epoch);
      }
    } else {
      memo.agg = AggregateOf(*tables_[level]);
      memo.input_epoch = input_epoch;
      memo.fn_generation = fn_generation_;
      memo.valid = true;
      ++agg_stats_.levels_evaluated;
      if (auto* m = Metrics()) m->Add(obs_.agg_evals, id());
      if (trace) {
        tracer->Record(now, id(), obs::EventCategory::kAggregation,
                       "agg.eval", level, input_epoch);
      }
    }
    const std::string& key = config_.path.Component(level - 1);
    const RowEntry* current = tables_[level - 1]->Find(key);
    bool changed;
    if (hit && memo.parent_clean && current != nullptr &&
        memo.parent_epoch == tables_[level - 1]->content_epoch()) {
      // Same aggregate as the memoized pass and no content-changing
      // mutation has touched the parent table since we last saw the row
      // equal to it: the compare outcome is forced.
      changed = false;
      ++agg_stats_.compare_skips;
    } else {
      changed = current == nullptr || !RowsEqual(current->attrs, memo.agg);
    }
    const bool stale =
        current != nullptr &&
        now - current->last_refresh >= config_.gossip_period * 0.5;
    if (changed || stale) {
      Table& parent = MutableTableAt(level - 1);
      if (changed) {
        RowEntry& entry = parent.Upsert(key);
        entry.attrs = memo.agg;
        entry.version = NextVersion();
        entry.content_version = entry.version;
        entry.last_refresh = now;
      } else {
        // Stale-only reissue: a pure heartbeat — the row body, its
        // content_version, and the parent's content epoch stay untouched.
        parent.Refresh(key, NextVersion(), now);
      }
    }
    // In every outcome the parent row now carries (a RowsEqual match of)
    // memo.agg; remember the epoch that certifies it.
    memo.parent_clean = true;
    memo.parent_epoch = tables_[level - 1]->content_epoch();
  }
}

void Agent::ExpireRows() {
  const std::uint64_t expired_before = stats_.rows_expired;
  const double now = Now();
  const double cutoff =
      now - config_.gossip_period * config_.fail_timeout_rounds;
  // Phi-accrual: judge each row against its own observed version-advance
  // rhythm; rows without enough samples yet fall back to the fixed rule.
  for (std::size_t level = 0; level < Depth(); ++level) {
    const std::string& keep = config_.path.Component(level);
    // Decided on the const replica, so a converged shared table is not
    // cloned needlessly.
    std::vector<std::string> doomed;
    for (const auto& [key, entry] : *tables_[level]) {
      if (key == keep) continue;
      const std::string dkey = DetectorKey(level, key);
      bool expire;
      if (detector_.SampleCount(dkey) >= config_.phi.min_samples) {
        expire = detector_.Suspect(dkey, now, config_.gossip_period);
      } else {
        expire = cutoff > 0 && entry.last_refresh < cutoff;
      }
      if (expire) doomed.push_back(key);
    }
    if (doomed.empty()) continue;
    Table& local = MutableTableAt(level);
    for (const std::string& key : doomed) local.Erase(key);
    stats_.rows_expired += doomed.size();
    // Arrival history is kept: if the row comes back, its learned rhythm
    // still applies (and keeps adapting).
  }
  const std::uint64_t expired = stats_.rows_expired - expired_before;
  if (expired > 0) {
    if (auto* m = Metrics()) m->Add(obs_.rows_expired, id(), expired);
  }
}

void Agent::GossipRound() {
  ++stats_.rounds;
  if (auto* m = Metrics()) m->Add(obs_.rounds, id());
  if (auto* t = Tracer(); t != nullptr && t->Enabled(obs::EventCategory::kGossip)) {
    t->Record(Now(), id(), obs::EventCategory::kGossip, "gossip.round",
              stats_.rounds);
  }
  RefreshOwnRow();
  RecomputeAggregates();
  ExpireRows();
  TraceElectionChanges();
  for (std::size_t level = Depth(); level-- > 0;) {
    if (!RepresentsAt(level)) continue;
    DoGossipAt(level);
  }
  const double jitter = 0.9 + 0.2 * Rng().NextDouble();
  Schedule(config_.gossip_period * jitter, [this] { GossipRound(); });
}

void Agent::DoGossipAt(std::size_t level) {
  // Candidate partners: contacts of sibling rows in this table.
  std::vector<sim::NodeId> candidates;
  const std::string& own_key = config_.path.Component(level);
  for (const auto& [key, entry] : *tables_[level]) {
    if (key == own_key) continue;
    auto it = entry.attrs.find(kAttrContacts);
    if (it == entry.attrs.end() ||
        it->second.type() != AttrValue::Type::kList) {
      continue;
    }
    for (const AttrValue& v : it->second.AsList()) {
      if (v.type() == AttrValue::Type::kInt) {
        candidates.push_back(static_cast<sim::NodeId>(v.AsInt()));
      }
    }
  }
  sim::NodeId partner = sim::kInvalidNode;
  if (level + 1 == Depth()) {
    // Leaf zones are the failure-detection domain: a sibling's row that goes
    // `fail_timeout_rounds` without a fresher version is evicted and the
    // membership count dips until it is re-learned. Random partner choice
    // over siblings *and* cross-zone introducers leaves an unbounded tail on
    // that staleness, so rotate deterministically through the siblings —
    // direct anti-entropy with each one at least every |zone| rounds keeps
    // live rows clear of the timeout. Every fourth round goes to the seed
    // mix instead: introducers must stay in the rotation permanently or two
    // view-closed groups could gossip among themselves forever and never
    // merge their membership views.
    const bool seed_round = (leaf_round_++ % 4 == 3);
    if (seed_round || candidates.empty()) {
      for (sim::NodeId s : seeds_) {
        if (s != id()) candidates.push_back(s);
      }
      if (candidates.empty()) return;
      partner = candidates[Rng().NextBelow(candidates.size())];
    } else {
      partner = candidates[leaf_cursor_++ % candidates.size()];
    }
  } else {
    if (candidates.empty()) return;
    partner = candidates[Rng().NextBelow(candidates.size())];
  }
  ++stats_.exchanges_sent;
  if (auto* m = Metrics()) m->Add(obs_.exchanges, id());
  if (auto* t = Tracer(); t != nullptr && t->Enabled(obs::EventCategory::kGossip)) {
    t->Record(Now(), id(), obs::EventCategory::kGossip, "gossip.exchange",
              partner, level);
  }
  GossipPayload payload = config_.wire_mode == GossipWireMode::kFull
                              ? BuildFullPayload(level)
                              : BuildDigestPayload(level);
  AttachCerts(payload, partner);
  SendGossip(partner, kGossipType, std::move(payload));
}

Agent::GossipPayload Agent::BuildFullPayload(std::size_t level) const {
  GossipPayload payload;
  payload.zone = config_.path.Prefix(level).ToString();
  // Exchange every table on the common path (root .. level): this is how
  // aggregated state flows back down to the leaves.
  for (std::size_t j = 0; j <= level; ++j) {
    payload.tables.push_back(TableSnapshot{
        config_.path.Prefix(j).ToString(),
        std::make_shared<const Table>(*tables_[j])});
  }
  return payload;
}

Agent::GossipPayload Agent::BuildDigestPayload(std::size_t level) const {
  GossipPayload payload;
  payload.zone = config_.path.Prefix(level).ToString();
  for (std::size_t j = 0; j <= level; ++j) {
    payload.digests.push_back(TableDigestPart{
        config_.path.Prefix(j).ToString(), tables_[j]->MakeDigest()});
  }
  return payload;
}

Agent::GossipPayload Agent::BuildDeltaPayload(const GossipPayload& request,
                                              std::size_t level,
                                              bool attach_digests) {
  GossipPayload payload;
  payload.zone = config_.path.Prefix(level).ToString();
  for (const auto& part : request.digests) {
    const ZonePath zone = ZonePath::Parse(part.zone);
    const std::size_t j = zone.Depth();
    if (j > level) continue;
    if (!(config_.path.Prefix(j) == zone)) continue;  // not on our path
    // The reply leg answers a full inventory digest (anything the digest
    // does not mention, the initiator lacks outright); the final leg
    // answers an explicit request list (anything it does not mention, the
    // replier is already current on).
    auto delta = attach_digests ? tables_[j]->DeltaAgainst(part.rows)
                                : tables_[j]->DeltaForRequests(part.rows);
    // Suppressed = rows whose body stayed home: version ties plus the rows
    // reduced to heartbeat-only refreshes.
    stats_.rows_suppressed += tables_[j]->size() - delta.rows.size();
    if (!delta.rows.empty() || !delta.refreshes.empty()) {
      payload.deltas.push_back(TableDeltaPart{
          part.zone, std::move(delta.rows), std::move(delta.refreshes)});
    }
    if (attach_digests) {
      // What we still need pushed back, not our whole inventory — absence
      // of a key tells the initiator we are current on it.
      TableDigest requests = tables_[j]->RequestsAgainst(part.rows);
      if (!requests.empty()) {
        payload.digests.push_back(
            TableDigestPart{part.zone, std::move(requests)});
      }
    }
  }
  return payload;
}

void Agent::AttachCerts(GossipPayload& payload, sim::NodeId peer) {
  std::set<std::uint64_t>& known = peer_known_certs_[peer];
  auto offer = [&](const Certificate& cert) {
    const std::uint64_t cert_id = cert.Digest();
    payload.cert_ids.push_back(cert_id);
    // Ship the body only if the peer's last advertised inventory lacks it;
    // optimistically mark it held so the round trip does not echo it back.
    if (known.insert(cert_id).second) payload.certs.push_back(cert);
  };
  for (const auto& cert : zone_authorities_) offer(cert);
  for (const auto& [name, fn] : functions_) offer(fn.cert);
}

void Agent::NoteCertInventory(sim::NodeId peer,
                              const std::vector<std::uint64_t>& ids) {
  // The advertised inventory is authoritative: it revokes optimistic marks
  // whose cert body was lost in flight, so the body is re-sent.
  peer_known_certs_[peer] = std::set<std::uint64_t>(ids.begin(), ids.end());
}

void Agent::SendGossip(sim::NodeId to, sim::MsgType type,
                       GossipPayload payload) {
  const std::size_t digest_bytes = payload.DigestBytes();
  const std::size_t delta_bytes = payload.DeltaBytes();
  const std::size_t full_bytes = payload.FullBytes();
  std::uint64_t rows = 0;
  for (const auto& part : payload.deltas) rows += part.rows.size();
  for (const auto& snap : payload.tables) rows += snap.table->size();
  stats_.digest_bytes += digest_bytes;
  stats_.delta_bytes += delta_bytes;
  stats_.full_bytes += full_bytes;
  stats_.rows_sent += rows;
  stats_.certs_sent += payload.certs.size();
  if (auto* m = Metrics()) {
    if (digest_bytes > 0) m->Add(obs_.digest_bytes, id(), digest_bytes);
    if (delta_bytes > 0) m->Add(obs_.delta_bytes, id(), delta_bytes);
    if (full_bytes > 0) m->Add(obs_.full_bytes, id(), full_bytes);
    if (rows > 0) m->Add(obs_.rows_sent, id(), rows);
    if (!payload.certs.empty()) {
      m->Add(obs_.certs_sent, id(), payload.certs.size());
    }
  }
  if (auto* t = Tracer(); t != nullptr && t->Enabled(obs::EventCategory::kGossip)) {
    if (!payload.digests.empty()) {
      t->Record(Now(), id(), obs::EventCategory::kGossip, "gossip.digest", to,
                digest_bytes);
    }
    if (!payload.deltas.empty()) {
      t->Record(Now(), id(), obs::EventCategory::kGossip, "gossip.delta", to,
                rows);
    }
  }
  const std::size_t wire = payload.WireBytes();
  Send(sim::Message::Make(id(), to, type, std::move(payload), wire));
}

std::size_t Agent::CommonLevelWith(const std::string& peer_zone_text) const {
  std::size_t common = 0;
  const ZonePath peer_zone = ZonePath::Parse(peer_zone_text);
  const std::size_t max_level = std::min(peer_zone.Depth(), Depth() - 1);
  for (std::size_t j = 1; j <= max_level; ++j) {
    if (peer_zone.Prefix(j) == config_.path.Prefix(j)) {
      common = j;
    } else {
      break;
    }
  }
  return common;
}

void Agent::HandleGossipInit(const sim::Message& msg) {
  const auto& payload = msg.As<GossipPayload>();
  NoteCertInventory(msg.from, payload.cert_ids);
  MergeCerts(payload.certs);
  const std::size_t reply_level = CommonLevelWith(payload.zone);
  if (!payload.digests.empty()) {
    // Digest-first initiation (wire v2): answer with the rows the digest
    // proves the initiator is missing, plus our own digests so its final
    // push can complete the reconciliation.
    GossipPayload out =
        BuildDeltaPayload(payload, reply_level, /*attach_digests=*/true);
    AttachCerts(out, msg.from);
    SendGossip(msg.from, kGossipReplyType, std::move(out));
    return;
  }
  // Full-snapshot initiation (wire v1): merge, then answer with our view of
  // the deepest common table (push-pull).
  MergeTables(payload);
  RecomputeAggregates();
  GossipPayload out = BuildFullPayload(reply_level);
  AttachCerts(out, msg.from);
  SendGossip(msg.from, kGossipReplyType, std::move(out));
}

void Agent::HandleGossipReply(const sim::Message& msg) {
  const auto& payload = msg.As<GossipPayload>();
  NoteCertInventory(msg.from, payload.cert_ids);
  MergeCerts(payload.certs);
  if (payload.digests.empty() && payload.deltas.empty()) {
    // Full-snapshot reply: merge and the exchange is complete.
    MergeTables(payload);
    RecomputeAggregates();
    return;
  }
  // Delta reply: merge the peer's newer rows first so the final push only
  // carries rows the peer genuinely lacks (post-merge ties are suppressed).
  MergeDeltas(payload);
  RecomputeAggregates();
  const std::size_t level = CommonLevelWith(payload.zone);
  GossipPayload out =
      BuildDeltaPayload(payload, level, /*attach_digests=*/false);
  AttachCerts(out, msg.from);
  if (out.deltas.empty() && out.certs.empty()) return;  // nothing to push
  SendGossip(msg.from, kGossipFinalType, std::move(out));
}

void Agent::HandleGossipFinal(const sim::Message& msg) {
  const auto& payload = msg.As<GossipPayload>();
  NoteCertInventory(msg.from, payload.cert_ids);
  MergeCerts(payload.certs);
  MergeDeltas(payload);
  RecomputeAggregates();
}

template <typename Rows>
void Agent::MergeRows(const std::string& zone_text, const Rows& rows) {
  const double now = Now();
  const ZonePath zone = ZonePath::Parse(zone_text);
  const std::size_t level = zone.Depth();
  if (level >= Depth()) return;
  if (!(config_.path.Prefix(level) == zone)) return;  // not on our path
  // Probe before COW: skip row sets that change nothing.
  bool any_newer = false;
  for (const auto& [key, entry] : rows) {
    const RowEntry* mine = tables_[level]->Find(key);
    if (mine == nullptr || entry.version > mine->version) {
      any_newer = true;
      break;
    }
  }
  if (!any_newer) return;
  Table& local = MutableTableAt(level);
  const double stale_cutoff =
      now - config_.gossip_period * config_.fail_timeout_rounds;
  const std::uint64_t merged_before = stats_.rows_merged;
  for (const auto& [key, entry] : rows) {
    if (level + 1 == Depth() && key == config_.path.Leaf()) {
      continue;  // we alone author our MIB row
    }
    // Deletion stability: a row we evicted (or never had) must not be
    // resurrected by a peer that still carries a stale copy. The issue
    // time embedded in the version tells us whether the owner is still
    // refreshing it.
    if (!local.Has(key) && VersionTime(entry.version) < stale_cutoff) {
      continue;
    }
    if (local.MergeEntry(key, entry, now)) {
      ++stats_.rows_merged;
      // A version advance is the row's liveness heartbeat: feed the
      // accrual detector's inter-arrival history.
      detector_.Heartbeat(DetectorKey(level, key), now);
    }
  }
  const std::uint64_t merged = stats_.rows_merged - merged_before;
  if (merged > 0) {
    if (auto* m = Metrics()) m->Add(obs_.rows_merged, id(), merged);
    if (auto* t = Tracer(); t != nullptr && t->Enabled(obs::EventCategory::kMerge)) {
      t->Record(Now(), id(), obs::EventCategory::kMerge, "gossip.merge",
                merged, level);
    }
  }
}

void Agent::MergeTables(const GossipPayload& payload) {
  for (const auto& snap : payload.tables) MergeRows(snap.zone, *snap.table);
}

void Agent::MergeDeltas(const GossipPayload& payload) {
  for (const auto& part : payload.deltas) {
    MergeRows(part.zone, part.rows);
    MergeRefreshes(part.zone, part.refreshes);
  }
}

void Agent::MergeRefreshes(const std::string& zone_text,
                           const std::vector<RowRefresh>& refreshes) {
  if (refreshes.empty()) return;
  const ZonePath zone = ZonePath::Parse(zone_text);
  const std::size_t level = zone.Depth();
  if (level >= Depth()) return;
  if (!(config_.path.Prefix(level) == zone)) return;  // not on our path
  const double now = Now();
  // Probe before COW: skip refresh sets that change nothing.
  bool any_newer = false;
  for (const auto& refresh : refreshes) {
    const RowEntry* mine = tables_[level]->Find(refresh.key);
    if (mine != nullptr && refresh.version > mine->version &&
        mine->content_version == refresh.content_version) {
      any_newer = true;
      break;
    }
  }
  if (!any_newer) return;
  Table& local = MutableTableAt(level);
  for (const auto& refresh : refreshes) {
    if (level + 1 == Depth() && refresh.key == config_.path.Leaf()) {
      continue;  // we alone author our MIB row
    }
    if (local.MergeRefresh(refresh, now)) {
      detector_.Heartbeat(DetectorKey(level, refresh.key), now);
    }
  }
}

void Agent::MergeCerts(const std::vector<Certificate>& certs) {
  for (const Certificate& cert : certs) {
    switch (cert.kind) {
      case CertKind::kZoneAuthority:
        AddZoneAuthority(cert);
        break;
      case CertKind::kFunction:
        InstallFunction(cert);
        break;
      default:
        break;  // other kinds are not gossiped by the agent layer
    }
  }
}

}  // namespace nw::astrolabe

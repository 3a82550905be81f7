#include "astrolabe/deployment.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace nw::astrolabe {

namespace {

// Bootstrap contacts per agent drawn from its own leaf-parent zone.
constexpr std::size_t kSeedPeers = 3;

std::size_t DepthFor(std::size_t n, std::size_t branching) {
  std::size_t depth = 1;
  std::size_t capacity = branching;
  while (capacity < n) {
    capacity *= branching;
    ++depth;
  }
  return depth;
}

ZonePath MakePath(std::size_t index, std::size_t depth, std::size_t branching,
                  const std::vector<std::string>& top_level_names) {
  // The base-`branching` digits of `index`, most significant first, name
  // the internal zones; the leaf component is the globally unique agent
  // name.
  std::vector<std::size_t> digits(depth, 0);
  std::size_t x = index;
  for (std::size_t j = depth; j-- > 0;) {
    digits[j] = x % branching;
    x /= branching;
  }
  ZonePath path;
  for (std::size_t j = 0; j + 1 < depth; ++j) {
    if (j == 0 && digits[j] < top_level_names.size()) {
      path = path.Child(top_level_names[digits[j]]);
    } else {
      path = path.Child("z" + std::to_string(digits[j]));
    }
  }
  return path.Child("n" + std::to_string(index));
}

}  // namespace

Deployment::Deployment(DeploymentConfig config)
    : config_(config),
      sim_(config.seed),
      net_(sim_, config.net),
      root_authority_("root", [&] {
        util::DeterministicRng rng(config.seed ^ 0x526f6f74ull /*'Root'*/);
        return GenerateKeyPair(rng);
      }()) {
  assert(config_.num_agents >= 1);
  assert(config_.branching >= 2);
  if (config_.metrics != nullptr) net_.SetMetrics(config_.metrics);
  if (config_.tracer != nullptr) net_.SetTracer(config_.tracer);
  depth_ = DepthFor(config_.num_agents, config_.branching);

  core_fn_cert_ = root_authority_.Issue(
      CertKind::kFunction, "core", 0,
      {{"code", DefaultCoreFunctionCode(config_.contacts_per_zone)},
       {"version", "1"}},
      0, 1e18);

  paths_.reserve(config_.num_agents);
  agents_.reserve(config_.num_agents);
  for (std::size_t i = 0; i < config_.num_agents; ++i) {
    paths_.push_back(
        MakePath(i, depth_, config_.branching, config_.top_level_names));
    AgentConfig ac;
    ac.path = paths_.back();
    ac.gossip_period = config_.gossip_period;
    ac.fail_timeout_rounds = config_.fail_timeout_rounds;
    ac.contacts_per_zone = config_.contacts_per_zone;
    ac.wire_mode = config_.gossip_wire;
    ac.phi = config_.phi;
    ac.force_full_recompute = config_.force_full_recompute;
    ac.trust_root = root_authority_.public_key();
    agents_.push_back(std::make_unique<Agent>(std::move(ac)));
    net_.AddNode(agents_.back().get());
    agents_.back()->WarmObservability();
    agents_.back()->InstallFunction(core_fn_cert_);
  }

  // Seed peers play the role of the statically configured "introducers"
  // the paper defers to the wider Astrolabe effort (§8: automatic zone
  // configuration is out of scope). For each agent we configure, per
  // hierarchy level l, a couple of random peers whose path shares exactly l
  // components: gossiping with such a peer merges the tables of the common
  // prefix, which bootstraps sibling-zone discovery at every level.
  util::DeterministicRng seed_rng(config_.seed ^ 0x5365656473ull /*'Seeds'*/);
  std::map<std::string, std::vector<std::size_t>> by_prefix;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    for (std::size_t level = 0; level < depth_; ++level) {
      by_prefix[paths_[i].Prefix(level).ToString()].push_back(i);
    }
  }
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    std::vector<sim::NodeId> seeds;
    auto add_from = [&](const std::vector<std::size_t>& pool,
                        std::size_t want) {
      for (std::size_t tries = 0;
           tries < pool.size() * 2 + 8 && want > 0; ++tries) {
        const std::size_t j = pool[seed_rng.NextBelow(pool.size())];
        if (j == i) continue;
        const sim::NodeId candidate = agents_[j]->id();
        if (std::find(seeds.begin(), seeds.end(), candidate) == seeds.end()) {
          seeds.push_back(candidate);
          --want;
        }
      }
    };
    // Siblings in the leaf-parent zone...
    add_from(by_prefix[paths_[i].Prefix(depth_ - 1).ToString()],
             kSeedPeers);
    // ...plus introducers sharing exactly `level` components.
    for (std::size_t level = 0; level + 1 < depth_; ++level) {
      add_from(by_prefix[paths_[i].Prefix(level).ToString()], 2);
    }
    agents_[i]->SetSeedPeers(std::move(seeds));
  }
}

Deployment::~Deployment() = default;

void Deployment::StartAll() {
  for (auto& agent : agents_) agent->Start();
}

void Deployment::WarmStart() {
  const double now = sim_.Now();

  // One shared Table object per zone, keyed by zone path.
  std::map<std::string, std::shared_ptr<Table>> tables;
  // Distinct zone paths per level, deepest first.
  std::vector<std::vector<ZonePath>> zones_by_level(depth_);

  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const ZonePath& path = paths_[i];
    const std::string parent = path.Prefix(depth_ - 1).ToString();
    auto [it, inserted] = tables.try_emplace(parent, nullptr);
    if (inserted) {
      it->second = std::make_shared<Table>();
      zones_by_level[depth_ - 1].push_back(path.Prefix(depth_ - 1));
    }
    RowEntry& row = it->second->Upsert(path.Leaf());
    // The agent's current MIB, with the membership defaults Start() would
    // have established.
    row.attrs = agents_[i]->LocalRow();
    if (!row.attrs.contains(kAttrContacts)) {
      row.attrs[kAttrContacts] =
          ValueList{AttrValue(std::int64_t{agents_[i]->id()})};
    }
    if (!row.attrs.contains(kAttrMembers)) {
      row.attrs[kAttrMembers] = std::int64_t{1};
    }
    if (!row.attrs.contains(kAttrLoad)) row.attrs[kAttrLoad] = 0.0;
    row.version = 1;
    row.content_version = 1;
    row.last_refresh = now;
  }

  // Aggregate bottom-up with the functions installed on the agents
  // (assumed uniform, as gossip would make them).
  const Agent& reference = *agents_.front();
  for (std::size_t level = depth_ - 1; level >= 1; --level) {
    for (const ZonePath& zone : zones_by_level[level]) {
      const std::string parent = zone.Prefix(level - 1).ToString();
      auto [it, inserted] = tables.try_emplace(parent, nullptr);
      if (inserted) {
        it->second = std::make_shared<Table>();
        zones_by_level[level - 1].push_back(zone.Prefix(level - 1));
      }
      RowEntry& row = it->second->Upsert(zone.Leaf());
      row.attrs = reference.AggregateOf(*tables.at(zone.ToString()));
      row.version = 1;
      row.content_version = 1;
      row.last_refresh = now;
    }
  }

  for (std::size_t i = 0; i < agents_.size(); ++i) {
    for (std::size_t j = 0; j < depth_; ++j) {
      agents_[i]->WarmStartTable(j, tables.at(paths_[i].Prefix(j).ToString()));
    }
  }
}

Certificate Deployment::InstallFunctionEverywhere(const std::string& name,
                                                  const std::string& code,
                                                  std::int64_t version) {
  Certificate cert = root_authority_.Issue(
      CertKind::kFunction, name, 0,
      {{"code", code}, {"version", std::to_string(version)}}, 0, 1e18);
  for (auto& agent : agents_) agent->InstallFunction(cert);
  return cert;
}

void Deployment::RunFor(double seconds) {
  sim_.RunUntil(sim_.Now() + seconds);
}

}  // namespace astrolabe


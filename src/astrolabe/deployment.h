// Deployment: builds a complete simulated Astrolabe system — a network, N
// agents arranged in a uniform zone hierarchy, a root certificate
// authority, and the default representative-election aggregation function —
// and offers a warm start that installs converged table replicas directly
// (used by experiments that measure dissemination rather than gossip
// convergence).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "astrolabe/agent.h"
#include "astrolabe/cert.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace nw::astrolabe {

// Every agent is built from this config's AgentTuning slice plus its own
// leaf path and the deployment's trust root.
struct DeploymentConfig : AgentTuning {
  std::size_t branching = 8;  // max children per zone (paper §3: "say, 64")
  // Optional human-readable names for the top-level zones (e.g. regions);
  // zones beyond the list keep their generated "z<i>" names.
  std::vector<std::string> top_level_names;
  sim::NetworkConfig net;
  std::uint64_t seed = 1;
  // Optional observability sinks, installed on the network before any
  // agent joins. Caller-owned; must outlive the deployment.
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventTracer* tracer = nullptr;
};

class Deployment {
 public:
  // Builds `num_agents` (>= 1) agents in a uniform zone tree.
  explicit Deployment(std::size_t num_agents, DeploymentConfig config = {});
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  std::size_t size() const { return agents_.size(); }
  Agent& agent(std::size_t i) { return *agents_[i]; }
  const Agent& agent(std::size_t i) const { return *agents_[i]; }

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  const DeploymentConfig& config() const { return config_; }

  const Authority& root_authority() const { return root_authority_; }
  PublicKey trust_root() const { return root_authority_.public_key(); }

  // Zone depth of every leaf (all agents share it in the uniform layout).
  std::size_t Depth() const { return depth_; }

  // The leaf path assigned to agent i.
  const ZonePath& PathFor(std::size_t i) const { return paths_[i]; }

  // Calls Agent::Start() on every agent (begin gossiping).
  void StartAll();

  // Installs converged replicas into every agent, as if gossip had run to
  // completion at time sim().Now().
  void WarmStart();

  // Issues and installs an additional aggregation function on every agent.
  // Returns the certificate so tests can tamper with copies of it.
  Certificate InstallFunctionEverywhere(const std::string& name,
                                        const std::string& code,
                                        std::int64_t version = 1);

  // Advances simulated time by `seconds`.
  void RunFor(double seconds);

 private:
  DeploymentConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  std::size_t depth_ = 1;
  std::vector<ZonePath> paths_;
  std::vector<std::unique_ptr<Agent>> agents_;
  Authority root_authority_;
  Certificate core_fn_cert_;
};

}  // namespace nw::astrolabe

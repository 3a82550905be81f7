// Astrolabe as an infrastructure-management service (paper §4): before it
// carries any news, the same substrate monitors the machines it runs on.
// Agents export load / bandwidth / free-disk attributes; signed
// aggregation functions compute fleet-wide summaries and "real-time
// guidance concerning which elements are in the min/max category, and
// hence represent targets for new operations".
//
//   ./examples/astrolabe_monitoring
#include <cstdio>

#include "astrolabe/deployment.h"
#include "util/rng.h"

using namespace nw;
using astrolabe::AttrValue;
using astrolabe::Deployment;
using astrolabe::DeploymentConfig;

namespace {

void PrintFleetSummary(Deployment& dep, std::size_t observer) {
  astrolabe::Row summary = dep.agent(observer).ZoneSummary(0);
  auto num = [&](const char* attr) {
    auto it = summary.find(attr);
    return it == summary.end() ? 0.0 : it->second.AsDouble();
  };
  std::printf(
      "  fleet summary (as seen by %s): machines=%lld avg_load=%.2f "
      "max_load=%.2f min_disk_gb=%.0f total_bw_mbps=%.0f\n",
      dep.agent(observer).path().ToString().c_str(),
      static_cast<long long>(num("nmembers")), num("load"),
      num("max_load"), num("min_disk"), num("total_bw"));
  if (auto it = summary.find("idle_targets"); it != summary.end()) {
    std::printf("  least-loaded targets for new work:");
    for (const AttrValue& v : it->second.AsList()) {
      std::printf(" node%lld", static_cast<long long>(v.AsInt()));
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  DeploymentConfig cfg;
  cfg.branching = 4;
  cfg.gossip_period = 2.0;
  cfg.seed = 3;
  Deployment dep(64, cfg);

  // Management aggregations, distributed as signed mobile code (§3/§4).
  // Note the self-composing shape: each output attribute re-aggregates
  // itself one level up (MAX of maxes, MIN of mins, SUM of sums), which is
  // what makes the computation correct at every depth of the tree.
  dep.InstallFunctionEverywhere(
      "mgmt.load",
      "SELECT MAX(max_load) AS max_load, "
      "MIN(min_disk) AS min_disk, SUM(total_bw) AS total_bw");
  dep.InstallFunctionEverywhere(
      "mgmt.targets", "SELECT TOP(3, contacts ORDER BY load ASC) AS idle_targets");

  // Each machine exports its vital signs.
  util::DeterministicRng rng(42);
  for (std::size_t i = 0; i < dep.size(); ++i) {
    const double load = rng.NextDouble();
    dep.agent(i).SetLocalAttr("load", load);      // drives the core election
    dep.agent(i).SetLocalAttr("max_load", load);  // MAX-composes upward
    dep.agent(i).SetLocalAttr("min_disk", double(20 + rng.NextBelow(200)));
    dep.agent(i).SetLocalAttr("total_bw", double(10 + rng.NextBelow(90)));
  }
  dep.StartAll();

  std::printf("gossiping management state across 64 machines...\n");
  dep.RunFor(60);
  PrintFleetSummary(dep, 0);

  // A hot spot develops on one machine; within a few gossip rounds every
  // zone sees the new max and steers new work elsewhere.
  std::printf("\nmachine 17 saturates (load -> 0.99)...\n");
  dep.agent(17).SetLocalAttr("load", 0.99);
  dep.agent(17).SetLocalAttr("max_load", 0.99);
  dep.RunFor(30);
  PrintFleetSummary(dep, 40);  // observed from a different zone

  // Machines fail; membership and aggregates adjust without any operator
  // action (§4: "guaranteed eventual consistency is essential to the
  // operation of a critical infrastructure").
  std::printf("\nmachines 5, 6, 7 crash...\n");
  dep.net().Kill(dep.agent(5).id());
  dep.net().Kill(dep.agent(6).id());
  dep.net().Kill(dep.agent(7).id());
  dep.RunFor(60);
  PrintFleetSummary(dep, 0);

  std::printf(
      "\nThe same zone tree, gossip, and aggregation machinery later routes "
      "news items — the management plane and the delivery plane are one "
      "system (paper §4).\n");
  return 0;
}

// E4 — Subscription propagation to the root (paper §6: "Eventually
// (within tens of seconds) the root zone will have all the information on
// whether there are leaf nodes ... that have subscribed to particular
// publications").
//
// A converged system gets one new subscription at a random leaf; we
// measure how long until an observer agent in a *different* top-level
// zone sees the subscription's bit in its aggregated root-table filters
// (which is exactly the state a forwarding decision consults).
#include <cstdio>
#include <memory>
#include <vector>

#include "astrolabe/deployment.h"
#include "bench_report.h"
#include "multicast/multicast.h"
#include "pubsub/pubsub.h"
#include "util/stats.h"
#include "util/table_printer.h"

using namespace nw;
using astrolabe::Deployment;
using astrolabe::DeploymentConfig;

namespace {

// Time until `observer`'s root table shows `bit` set for the subscriber's
// top-level zone, polling every 0.25 s up to `limit` seconds.
double MeasureConvergence(Deployment& dep, std::size_t subscriber_idx,
                          std::size_t observer_idx, std::size_t bit,
                          double limit) {
  const std::string target_zone = dep.PathFor(subscriber_idx).Component(0);
  const double start = dep.sim().Now();
  while (dep.sim().Now() - start < limit) {
    dep.RunFor(0.25);
    const auto* row = dep.agent(observer_idx).TableAt(0).Find(target_zone);
    if (row == nullptr) continue;
    auto it = row->attrs.find(pubsub::kAttrSubs);
    if (it == row->attrs.end() ||
        it->second.type() != astrolabe::AttrValue::Type::kBits) {
      continue;
    }
    const auto& bits = it->second.AsBits();
    if (bit < bits.size() && bits.Test(bit)) {
      return dep.sim().Now() - start;
    }
  }
  return -1;
}

}  // namespace

int main() {
  std::printf(
      "E4: time for a new subscription to reach the root aggregation, as "
      "seen from a different top-level zone (gossip period 2s)\n\n");
  util::TablePrinter table({"agents", "branching", "depth", "trials",
                            "mean_s", "min_s", "max_s"});
  bench::BenchReport report(
      "subscription_convergence",
      "Within tens of seconds the root zone has all the information on "
      "whether there are leaf nodes that subscribed to particular "
      "publications (paper §6)");
  report.Note("one new subscription at a random leaf; convergence observed "
              "from a different top-level zone; gossip period 2s");
  for (auto [n, b] : std::vector<std::pair<std::size_t, std::size_t>>{
           {64, 4}, {256, 8}, {1024, 16}, {1024, 8}}) {
    DeploymentConfig cfg;
    cfg.branching = b;
    cfg.gossip_period = 2.0;
    cfg.seed = 17;
    Deployment dep(n, cfg);
    dep.InstallFunctionEverywhere(pubsub::kSubsFunctionName,
                                  pubsub::SubsFunctionCode());
    std::vector<std::unique_ptr<multicast::MulticastService>> mc;
    std::vector<std::unique_ptr<pubsub::PubSubService>> ps;
    for (std::size_t i = 0; i < dep.size(); ++i) {
      mc.push_back(std::make_unique<multicast::MulticastService>(
          dep.agent(i), multicast::MulticastConfig{}));
      ps.push_back(std::make_unique<pubsub::PubSubService>(
          dep.agent(i), *mc[i], pubsub::BloomConfig{}));
    }
    dep.StartAll();
    dep.RunFor(60);  // membership convergence

    util::SampleStats times;
    const int kTrials = 5;
    pubsub::BloomFilter probe(pubsub::BloomConfig{});
    for (int t = 0; t < kTrials; ++t) {
      // Subscriber in the first top-level zone, observer in the last.
      const std::size_t subscriber = std::size_t(t);
      const std::size_t observer = dep.size() - 1 - std::size_t(t);
      const std::string subject = "probe.subject." + std::to_string(t);
      const std::size_t bit = probe.Positions(subject)[0];
      ps[subscriber]->Subscribe(subject);
      const double took =
          MeasureConvergence(dep, subscriber, observer, bit, 120);
      if (took >= 0) times.Add(took);
    }
    table.AddRow({util::TablePrinter::Int(long(n)),
                  util::TablePrinter::Int(long(b)),
                  util::TablePrinter::Int(long(dep.Depth())),
                  util::TablePrinter::Int(long(times.Count())),
                  util::TablePrinter::Num(times.Mean(), 1),
                  util::TablePrinter::Num(times.Min(), 1),
                  util::TablePrinter::Num(times.Max(), 1)});
    report.Samples("convergence_" + std::to_string(n) + "agents_b" +
                       std::to_string(b),
                   times, "s");
  }
  table.Print();
  report.WriteFile();
  std::printf(
      "\nReading: a new subscription climbs one aggregation level per few "
      "gossip rounds, landing in the 'tens of seconds' the paper promises; "
      "deeper hierarchies take proportionally longer (depth x O(rounds)), "
      "independent of total system size.\n");
  return 0;
}

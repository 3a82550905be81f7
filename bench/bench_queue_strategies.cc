// A1 (ablation) — Forwarding-queue fill strategies (paper §9: "The best
// strategy to fill queues is still under research. We are experimenting
// with weighted round-robin strategies, as well as some more aggressive
// techniques").
//
// A constrained forwarding plane carries a mix of routine items (urgency
// 8) and rare flash bulletins (urgency 1). We compare the §9 strategies
// by the latency each class experiences.
#include <cstdio>
#include <vector>

#include "bench_report.h"
#include "newswire/system.h"
#include "util/table_printer.h"

using namespace nw;

namespace {

struct Outcome {
  util::SampleStats flash;
  util::SampleStats routine;
  double delivered_pct = 0;
};

Outcome Run(multicast::QueueStrategy strategy) {
  newswire::SystemConfig cfg;
  cfg.num_subscribers = 255;
  cfg.branching = 4;
  cfg.catalog_size = 1;
  cfg.subjects_per_subscriber = 1;
  cfg.body_bytes = 8192;
  cfg.multicast.queue_strategy = strategy;
  cfg.multicast.forward_bytes_per_sec = 150e3;  // tight budget -> queueing
  cfg.multicast.forward_burst_bytes = 150e3;
  cfg.multicast.max_queue_items = 4096;
  cfg.warm_start = true;
  cfg.run_gossip = false;
  cfg.subscriber.repair_interval = 0;
  cfg.seed = 3;
  newswire::NewswireSystem sys(cfg);

  Outcome out;
  // Per-subscriber handler classifies latency by urgency.
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    sys.subscriber(i).AddNewsHandler(
        [&out](const newswire::NewsItem& item, double latency) {
          if (item.urgency <= 2) {
            out.flash.Add(latency);
          } else {
            out.routine.Add(latency);
          }
        });
  }
  // 120 routine items over 12 s, one flash bulletin every 3 s.
  int published = 0;
  for (int k = 0; k < 120; ++k) {
    sys.deployment().sim().At(k * 0.1, [&sys, &published] {
      newswire::NewsItem item;
      item.subject = sys.catalog()[0];
      item.urgency = 8;
      if (sys.publisher(0).Publish(item)) ++published;
    });
  }
  for (int f = 0; f < 4; ++f) {
    sys.deployment().sim().At(2.0 + f * 3.0, [&sys, &published] {
      newswire::NewsItem item;
      item.subject = sys.catalog()[0];
      item.urgency = 1;
      if (sys.publisher(0).Publish(item)) ++published;
    });
  }
  sys.RunFor(240);
  out.delivered_pct =
      100.0 * double(out.flash.Count() + out.routine.Count()) /
      double(sys.subscriber_count() * published);
  return out;
}

}  // namespace

int main() {
  std::printf(
      "A1 (ablation): queue-fill strategies under a congested forwarding "
      "plane — 120 routine items + 4 flash bulletins, 255 subscribers\n\n");
  util::TablePrinter table({"strategy", "flash_p50_s", "flash_p99_s",
                            "routine_p99_s", "delivered%"});
  bench::BenchReport report(
      "queue_strategies",
      "The best strategy to fill forwarding queues is still under research: "
      "weighted round-robin vs more aggressive techniques (paper §9)");
  report.Note("congested forwarding plane: 120 routine items + 4 flash "
              "bulletins, 255 subscribers");
  for (auto strategy : {multicast::QueueStrategy::kWeightedRoundRobin,
                        multicast::QueueStrategy::kRoundRobin,
                        multicast::QueueStrategy::kUrgencyFirst}) {
    Outcome out = Run(strategy);
    table.AddRow({multicast::QueueStrategyName(strategy),
                  util::TablePrinter::Num(out.flash.Percentile(50), 2),
                  util::TablePrinter::Num(out.flash.Percentile(99), 2),
                  util::TablePrinter::Num(out.routine.Percentile(99), 2),
                  util::TablePrinter::Num(out.delivered_pct, 1)});
    const std::string name = multicast::QueueStrategyName(strategy);
    report.Samples("flash_latency_" + name, out.flash, "s");
    report.Samples("routine_latency_" + name, out.routine, "s");
    report.Measure("delivered_pct_" + name, out.delivered_pct, "%");
  }
  table.Print();
  report.WriteFile();
  std::printf(
      "\nReading: round-robin variants treat the flash bulletin like any "
      "queued item, so it inherits the congestion backlog; the aggressive "
      "urgency-first strategy lets bulletins overtake the backlog at every "
      "hop at a small cost to routine tail latency — the trade-off the "
      "paper leaves open in §9.\n");
  return 0;
}

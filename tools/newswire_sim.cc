// newswire_sim — scenario driver for the NewsWire simulator.
//
// The paper (§10) envisions a downloadable application that inserts a
// machine into the collaborative delivery network; this tool is the
// operator-facing equivalent for the simulated system: describe a
// scenario on the command line, run it deterministically, read the
// delivery report.
//
// Examples (an indented line continues the command above it):
//   newswire_sim --subscribers 5000 --branching 16 --duration 120
//                --items-per-sec 2
//   newswire_sim --subscribers 300 --loss 0.1 --redundancy 2
//                --kill-frac 0.2 --kill-at 30 --repair-interval 5
//   newswire_sim --subscribers 200 --hierarchical --catalog 50
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "newswire/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table_printer.h"

using namespace nw;

namespace {

void PrintUsage() {
  std::printf(
      "newswire_sim — deterministic NewsWire scenario driver\n\n"
      "  --subscribers N       leaf subscribers (default 256)\n"
      "  --publishers P        publishers (default 1)\n"
      "  --branching B         zone fan-out (default 8)\n"
      "  --gossip-period S     epidemic period in seconds (default 2)\n"
      "  --gossip-wire M       gossip wire format: full | delta (default "
      "delta)\n"
      "  --loss F              per-message loss probability (default 0)\n"
      "  --duration S          publishing phase length (default 60)\n"
      "  --items-per-sec R     publication rate across publishers (default 1)\n"
      "  --body-bytes B        article body size (default 2048)\n"
      "  --catalog N           distinct subjects (default 16)\n"
      "  --subs-per-node K     subscriptions per subscriber (default 3)\n"
      "  --redundancy K        representatives per forward (default 1)\n"
      "  --reliable-forwarding hop-by-hop acks + retransmit/failover\n"
      "                        (default true; =false for fire-and-forget,\n"
      "                        i.e. an unacked-hop bound of 0)\n"
      "  --repair-interval S   cache anti-entropy period, 0=off (default 10)\n"
      "  --kill-frac F         fraction of subscribers to crash (default 0)\n"
      "  --kill-at S           crash time within the run (default 30)\n"
      "  --fault-plan P        fault plan: a file or an inline plan string,\n"
      "                        e.g. 'crash@5 node=3; restart@20 node=3'\n"
      "                        (times relative to publish start; see\n"
      "                        src/sim/fault_plan.h for the grammar)\n"
      "  --fault-cocktail      generate a random gray-failure cocktail\n"
      "                        (crashes + gray slowdowns + asymmetric cuts +\n"
      "                        corruption/duplication bursts) over the run\n"
      "  --chaos-seed N        seed for --fault-cocktail (default: --seed);\n"
      "                        the generated plan is printed and committable\n"
      "  --detector M          row-expiry failure detector: phi | fixed\n"
      "                        (default phi; fixed = every row on the 6-round\n"
      "                        timeout phi uses until a row has 3 samples)\n"
      "  --force-full-recompute  disable the dirty-tracked aggregation memo\n"
      "                        and re-evaluate every level every round\n"
      "                        (bit-identical output; DESIGN.md §11)\n"
      "  --hierarchical        subjects form a dot hierarchy (see §7)\n"
      "  --verify              publisher signature verification on\n"
      "  --bloom-bits N        subscription filter size (default 1024)\n"
      "  --seed N              replay seed (default 1)\n"
      "  --trace FILE          dump a JSONL event trace after the run\n"
      "  --trace-capacity N    trace ring-buffer size (default 262144)\n"
      "  --trace-categories L  comma list (gossip,send,drop,...; default all)\n"
      "  --metrics FILE        dump the metrics registry as JSON\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }

  newswire::SystemConfig cfg;
  cfg.num_subscribers = std::size_t(flags.GetInt("subscribers", 256));
  cfg.num_publishers = std::size_t(flags.GetInt("publishers", 1));
  cfg.branching = std::size_t(flags.GetInt("branching", 8));
  cfg.gossip_period = flags.GetDouble("gossip-period", 2.0);
  const std::string wire_name = flags.GetString("gossip-wire", "delta");
  if (const auto wire = astrolabe::GossipWireModeFromName(wire_name)) {
    cfg.gossip_wire = *wire;
  } else {
    std::fprintf(stderr, "--gossip-wire: expected full or delta, got \"%s\"\n",
                 wire_name.c_str());
    return 2;
  }
  const std::string detector_name = flags.GetString("detector", "phi");
  if (detector_name == "fixed") {
    cfg.phi.min_samples = SIZE_MAX;  // never leave the cold-start rule
  } else if (detector_name != "phi") {
    std::fprintf(stderr, "--detector: expected phi or fixed, got \"%s\"\n",
                 detector_name.c_str());
    return 2;
  }
  cfg.force_full_recompute = flags.GetBool("force-full-recompute", false);
  cfg.net.loss_prob = flags.GetDouble("loss", 0.0);
  cfg.body_bytes = std::size_t(flags.GetInt("body-bytes", 2048));
  cfg.catalog_size = std::size_t(flags.GetInt("catalog", 16));
  cfg.subjects_per_subscriber = std::size_t(flags.GetInt("subs-per-node", 3));
  cfg.multicast.redundancy = int(flags.GetInt("redundancy", 1));
  if (!flags.GetBool("reliable-forwarding", true)) {
    cfg.multicast.reliable.max_pending = 0;  // no custody: fire-and-forget
  }
  const bool reliable = cfg.multicast.reliable.max_pending > 0;
  cfg.subscriber.repair_interval = flags.GetDouble("repair-interval", 10.0);
  cfg.subscriber.repair_window = 3600.0;
  cfg.pubsub.hierarchical_subjects = flags.GetBool("hierarchical", false);
  cfg.subscriber.verify_publishers = flags.GetBool("verify", false);
  cfg.pubsub.bloom.bits = std::size_t(flags.GetInt("bloom-bits", 1024));
  cfg.seed = std::uint64_t(flags.GetInt("seed", 1));
  const double duration = flags.GetDouble("duration", 60.0);
  const double items_per_sec = flags.GetDouble("items-per-sec", 1.0);
  const double kill_frac = flags.GetDouble("kill-frac", 0.0);
  const double kill_at = flags.GetDouble("kill-at", 30.0);
  const std::string fault_plan_arg = flags.GetString("fault-plan", "");
  const bool fault_cocktail = flags.GetBool("fault-cocktail", false);
  const std::uint64_t chaos_seed =
      std::uint64_t(flags.GetInt("chaos-seed", long(cfg.seed)));
  const std::string trace_path = flags.GetString("trace", "");
  const std::size_t trace_capacity =
      std::size_t(flags.GetInt("trace-capacity", 1 << 18));
  const std::string trace_categories = flags.GetString("trace-categories", "all");
  const std::string metrics_path = flags.GetString("metrics", "");

  const auto unknown = flags.UnknownFlags();
  // Query all flags first (done above), then reject leftovers.
  if (!unknown.empty()) {
    for (const auto& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    PrintUsage();
    return 2;
  }
  if (!(kill_frac >= 0 && kill_frac <= 1)) {
    std::fprintf(stderr, "--kill-frac: expected a fraction in [0, 1], got %g\n",
                 kill_frac);
    return 2;
  }

  // --fault-plan: the argument names a file holding a plan, or is itself a
  // one-line plan string (the forms are unambiguous: plan text is never a
  // readable path).
  sim::FaultPlan fault_plan;
  if (!fault_plan_arg.empty()) {
    std::string text = fault_plan_arg;
    if (std::ifstream in(fault_plan_arg); in) {
      std::ostringstream contents;
      contents << in.rdbuf();
      text = contents.str();
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
        text.pop_back();
      }
    }
    auto parsed = sim::FaultPlan::Parse(text);
    if (!parsed) {
      std::fprintf(stderr, "--fault-plan: cannot parse \"%s\"\n", text.c_str());
      return 2;
    }
    fault_plan = *parsed;
  }

  // Observability sinks (caller-owned; must outlive the system).
  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(trace_capacity);
  if (const auto mask = obs::ParseCategoryMask(trace_categories); mask) {
    tracer.SetCategoryMask(*mask);
  } else {
    std::fprintf(stderr, "--trace-categories: unknown category in \"%s\"\n",
                 trace_categories.c_str());
    return 2;
  }
  const bool want_trace = !trace_path.empty();
  const bool want_metrics = !metrics_path.empty();
  if (want_trace) cfg.tracer = &tracer;
  if (want_metrics) cfg.metrics = &metrics;

  std::printf(
      "scenario: %zu subscribers, %zu publishers, branching %zu, loss %.0f%%, "
      "%.1f items/s for %.0fs%s%s\n",
      cfg.num_subscribers, cfg.num_publishers, cfg.branching,
      100 * cfg.net.loss_prob, items_per_sec, duration,
      kill_frac > 0 ? ", with crashes" : "",
      cfg.pubsub.hierarchical_subjects ? ", hierarchical subjects" : "");
  std::printf("forwarding: %s\n", reliable
                                      ? "reliable (ack/retransmit/failover)"
                                      : "fire-and-forget");

  newswire::NewswireSystem sys(cfg);
  std::printf("tree depth %zu; converging subscriptions...\n",
              sys.deployment().Depth());
  sys.RunFor(15);

  // Publishing schedule.
  const double t0 = sys.Now();
  if (!fault_plan.empty()) {
    if (fault_plan.MaxNode() != sim::kInvalidNode &&
        fault_plan.MaxNode() >= sys.node_count()) {
      std::fprintf(stderr, "--fault-plan targets node %u but only %zu exist\n",
                   fault_plan.MaxNode(), sys.node_count());
      return 2;
    }
    std::printf("fault plan: %s\n", fault_plan.ToString().c_str());
    fault_plan.ApplyTo(sys.deployment().net(), t0);
  }
  double fault_end = fault_plan.EndTime();
  if (fault_cocktail) {
    sim::FaultPlan::RandomOptions opt;
    opt.horizon = duration;
    // Short runs: shrink the quiescent tail so the chaos window [0,
    // horizon - quiescence) stays non-empty; the driver's +60 s settle
    // covers recovery regardless.
    opt.min_quiescence = std::min(opt.min_quiescence, duration / 2);
    opt.gray_slow = true;
    opt.asym_partitions = true;
    opt.corrupt_bursts = true;
    opt.dup_reorder = true;
    std::vector<sim::NodeId> victims;
    victims.reserve(sys.subscriber_count());
    for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
      victims.push_back(sys.subscriber_agent(i).id());
    }
    const sim::FaultPlan cocktail =
        sim::FaultPlan::Random(chaos_seed, victims, opt);
    // The plan text round-trips through Parse; paste it into --fault-plan
    // (or tests/chaos_test.cc) to pin a failing cocktail down.
    std::printf("fault cocktail (seed %llu): %s\n",
                (unsigned long long)chaos_seed, cocktail.ToString().c_str());
    cocktail.ApplyTo(sys.deployment().net(), t0);
    fault_end = std::max(fault_end, cocktail.EndTime());
  }
  const int total_items = int(duration * items_per_sec);
  for (int k = 0; k < total_items; ++k) {
    sys.deployment().sim().At(t0 + k / items_per_sec, [&sys, k] {
      sys.PublishArticle(std::size_t(k) % sys.publisher_count(),
                         sys.RandomSubject());
    });
  }
  if (kill_frac > 0) {
    sys.deployment().sim().At(t0 + kill_at, [&] {
      util::DeterministicRng kill_rng(cfg.seed ^ 0xDEAD);
      sim::Network& net = sys.deployment().net();
      std::size_t killed = 0, live = 0;
      for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
        live += net.IsAlive(sys.subscriber_agent(i).id()) ? 1 : 0;
      }
      // A fault plan may already have crashed some: stop once none is left.
      const std::size_t want = std::min(
          live, std::size_t(kill_frac * double(sys.subscriber_count())));
      while (killed < want) {
        const std::size_t i =
            std::size_t(kill_rng.NextBelow(sys.subscriber_count()));
        if (net.IsAlive(sys.subscriber_agent(i).id())) {
          net.Kill(sys.subscriber_agent(i).id());
          ++killed;
        }
      }
      std::printf("t=%.0fs: crashed %zu subscribers\n", sys.Now(), killed);
    });
  }
  // Stream + settle/repair time, covering the fault plan's recovery tail.
  sys.RunFor(std::max(duration, fault_end) + 60);

  // ---- report ----
  std::uint64_t published = 0, throttled = 0;
  double pub_bytes = 0;
  for (std::size_t j = 0; j < sys.publisher_count(); ++j) {
    published += sys.publisher(j).stats().published;
    throttled += sys.publisher(j).stats().throttled;
    pub_bytes += double(sys.PublisherTraffic(j).bytes_sent);
  }
  std::uint64_t repaired = 0, fp = 0, relays = 0;
  std::uint64_t integrity_drops = 0, rows_expired = 0;
  std::uint64_t agg_evals = 0, agg_memo_hits = 0;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    repaired += sys.subscriber(i).stats().repaired;
  }
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    fp += sys.pubsub_at(i).stats().false_positives;
    relays += sys.pubsub_at(i).stats().relay_discards;
    integrity_drops += sys.deployment().agent(i).gossip_stats().integrity_drops;
    rows_expired += sys.deployment().agent(i).gossip_stats().rows_expired;
    agg_evals += sys.deployment().agent(i).agg_stats().levels_evaluated;
    agg_memo_hits += sys.deployment().agent(i).agg_stats().cache_hits;
  }
  const multicast::MulticastStats mc = sys.MulticastTotals();
  const auto total = sys.deployment().net().TotalStats();
  const auto& lat = sys.latencies();

  util::TablePrinter report({"metric", "value"});
  report.AddRow({"items published", util::TablePrinter::Int(long(published))});
  report.AddRow({"items throttled", util::TablePrinter::Int(long(throttled))});
  report.AddRow({"deliveries", util::TablePrinter::Int(long(sys.total_delivered()))});
  report.AddRow({"latency p50 ms", util::TablePrinter::Num(lat.Percentile(50) * 1e3, 0)});
  report.AddRow({"latency p99 ms", util::TablePrinter::Num(lat.Percentile(99) * 1e3, 0)});
  report.AddRow({"latency max s", util::TablePrinter::Num(lat.Max(), 2)});
  report.AddRow({"anti-entropy repairs", util::TablePrinter::Int(long(repaired))});
  report.AddRow({"bloom false positives", util::TablePrinter::Int(long(fp))});
  report.AddRow({"relay-only discards", util::TablePrinter::Int(long(relays))});
  report.AddRow({"duplicate suppressions", util::TablePrinter::Int(long(mc.duplicates))});
  report.AddRow({"forwarding sends", util::TablePrinter::Int(long(mc.forwards))});
  if (reliable) {
    report.AddRow({"hop acks", util::TablePrinter::Int(long(mc.acks_received))});
    report.AddRow({"hop retransmits", util::TablePrinter::Int(long(mc.retransmits))});
    report.AddRow({"hop failovers", util::TablePrinter::Int(long(mc.failovers))});
    report.AddRow({"hops abandoned", util::TablePrinter::Int(long(mc.abandoned))});
  }
  report.AddRow({"queue overflow drops", util::TablePrinter::Int(long(mc.queue_drops))});
  report.AddRow({"  of which urgency-shed", util::TablePrinter::Int(long(mc.queue_shed))});
  report.AddRow({"corrupted frames", util::TablePrinter::Int(long(total.messages_corrupted))});
  report.AddRow({"integrity drops", util::TablePrinter::Int(long(integrity_drops))});
  report.AddRow({"rows expired (suspicions)", util::TablePrinter::Int(long(rows_expired))});
  report.AddRow({"aggregate evaluations", util::TablePrinter::Int(long(agg_evals))});
  report.AddRow({"aggregate memo hits", util::TablePrinter::Int(long(agg_memo_hits))});
  report.AddRow({"dup hops received", util::TablePrinter::Int(long(mc.dup_hops_received))});
  report.AddRow({"gray quarantines", util::TablePrinter::Int(long(mc.quarantines))});
  report.AddRow({"publisher egress MB", util::TablePrinter::Num(pub_bytes / 1e6, 2)});
  report.AddRow({"total network GB", util::TablePrinter::Num(double(total.bytes_sent) / 1e9, 3)});
  report.Print();

  if (want_trace) {
    FILE* out = std::fopen(trace_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "--trace: cannot open %s for writing\n",
                   trace_path.c_str());
      return 1;
    }
    tracer.DumpJsonl(out);
    std::fclose(out);
    std::printf(
        "trace: %zu events (%llu recorded, %llu overwritten) -> %s\n"
        "trace sequence hash: %016llx\n",
        tracer.size(), (unsigned long long)tracer.total_recorded(),
        (unsigned long long)tracer.overwritten(), trace_path.c_str(),
        (unsigned long long)tracer.SequenceHash());
  }
  if (want_metrics) {
    FILE* out = std::fopen(metrics_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "--metrics: cannot open %s for writing\n",
                   metrics_path.c_str());
      return 1;
    }
    metrics.Snap().WriteJson(out);
    std::fclose(out);
    std::printf("metrics: %zu series -> %s\n", metrics.Snap().metrics.size(),
                metrics_path.c_str());
  }
  return 0;
}

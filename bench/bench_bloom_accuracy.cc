// E5 — Bloom filter accuracy vs array size (paper §6: "the accuracy can
// be made as good as desired by varying the size of the bit array, and we
// believe that a relatively small array will be more than adequate" —
// suggesting ~1000 bits).
//
// Part 1 measures the false-positive probability of the aggregated
// (root-level) filter directly, for varying array sizes and subscription
// populations, with the paper's one-bit-per-subscription scheme and with
// k=4 hashes for comparison.
//
// Part 2 runs a small NewsWire system and counts the wasted forwarding
// caused by collisions (items that reach leaves nobody subscribed to).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_report.h"
#include "newswire/system.h"
#include "pubsub/bloom_filter.h"
#include "util/table_printer.h"

using namespace nw;

namespace {

double MeasureFalsePositiveRate(std::size_t bits, std::size_t hashes,
                                std::size_t subscriptions) {
  pubsub::BloomConfig cfg;
  cfg.bits = bits;
  cfg.hashes = hashes;
  pubsub::BloomFilter filter(cfg);
  for (std::size_t s = 0; s < subscriptions; ++s) {
    filter.Add("subscribed.subject." + std::to_string(s));
  }
  const int kProbes = 20000;
  int fp = 0;
  for (int p = 0; p < kProbes; ++p) {
    if (filter.MightContain("unrelated.subject." + std::to_string(p))) ++fp;
  }
  return double(fp) / kProbes;
}

}  // namespace

int main() {
  std::printf(
      "E5 part 1: false-positive probability of the aggregated "
      "subscription filter\n\n");
  util::TablePrinter t1({"bits", "distinct_subs", "fp%_k1(paper)", "fp%_k4"});
  bench::BenchReport report(
      "bloom_accuracy",
      "Filter accuracy can be made as good as desired by varying the bit "
      "array size; a relatively small (~1000-bit) array is more than "
      "adequate (paper §6)");
  report.Note("part 1: direct fp probability; part 2: wasted forwarding in "
              "a 512-subscriber system publishing 100 unpopular probes");
  for (std::size_t bits : {256u, 1024u, 4096u, 16384u}) {
    for (std::size_t subs : {50u, 200u, 1000u}) {
      const double fp_k1 = MeasureFalsePositiveRate(bits, 1, subs);
      const double fp_k4 = MeasureFalsePositiveRate(bits, 4, subs);
      t1.AddRow({util::TablePrinter::Int(long(bits)),
                 util::TablePrinter::Int(long(subs)),
                 util::TablePrinter::Num(100 * fp_k1, 2),
                 util::TablePrinter::Num(100 * fp_k4, 2)});
      if (subs == 200) {
        const std::string suffix = std::to_string(bits) + "bits_200subs";
        report.Measure("fp_pct_k1_" + suffix, 100 * fp_k1, "%");
        report.Measure("fp_pct_k4_" + suffix, 100 * fp_k4, "%");
      }
    }
  }
  t1.Print();

  std::printf(
      "\nE5 part 2: wasted forwarding in a live system (512 subscribers, "
      "200-subject catalog, publishing 100 unpopular probes)\n\n");
  util::TablePrinter t2({"bits", "forwards", "wasted_arrivals",
                         "wasted_forward%"});
  for (std::size_t bits : {64u, 256u, 1024u, 4096u}) {
    newswire::SystemConfig cfg;
    cfg.num_subscribers = 512;
    cfg.branching = 8;
    cfg.pubsub.bloom.bits = bits;
    cfg.catalog_size = 200;
    cfg.subjects_per_subscriber = 4;
    cfg.warm_start = true;
    cfg.run_gossip = false;
    cfg.subscriber.repair_interval = 0;
    cfg.seed = 23;
    newswire::NewswireSystem sys(cfg);
    // Publish probe subjects NOBODY subscribes to: all traffic they cause
    // is false-positive waste.
    for (int k = 0; k < 100; ++k) {
      sys.deployment().sim().At(k * 0.1, [&sys, k] {
        newswire::NewsItem item;
        item.subject = "noone.reads." + std::to_string(k);
        item.body_bytes = 1024;
        sys.publisher(0).Publish(item);
      });
    }
    sys.RunFor(60);
    std::uint64_t forwards = 0, fp = 0;
    for (std::size_t i = 0; i < sys.node_count(); ++i) {
      forwards += sys.multicast_at(i).stats().forwards;
      fp += sys.pubsub_at(i).stats().false_positives +
            sys.pubsub_at(i).stats().relay_discards;
    }
    // Every forward of these probes is waste; normalize per publication
    // against a full broadcast (which would be ~N forwards each).
    const double wasted =
        100.0 * double(forwards) / double(100 * sys.node_count());
    t2.AddRow({util::TablePrinter::Int(long(bits)),
               util::TablePrinter::Int(long(forwards)),
               util::TablePrinter::Int(long(fp)),
               util::TablePrinter::Num(wasted, 2)});
    report.Measure("wasted_forward_pct_" + std::to_string(bits) + "bits",
                   wasted, "%");
  }
  t2.Print();
  report.WriteFile();
  std::printf(
      "\nReading: with the paper's ~1000-bit array and a news-scale subject "
      "population, collision-driven waste is a small percent of a "
      "broadcast; shrinking the array degrades sharply, enlarging it buys "
      "accuracy linearly in MIB bytes (paper §6).\n");
  return 0;
}

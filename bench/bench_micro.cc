// E12 — Micro-costs of the building blocks (paper §3/§5): aggregation
// evaluation, gossip-table merging, certificate operations, Bloom
// operations, zone-path handling, the per-hop multicast decision, and the
// simulator's schedule, cancel and run cost per event.
#include <benchmark/benchmark.h>

#include <vector>

#include "astrolabe/cert.h"
#include "astrolabe/sql/eval.h"
#include "astrolabe/sql/parser.h"
#include "astrolabe/sql/plan.h"
#include "astrolabe/table.h"
#include "astrolabe/zone_path.h"
#include "astrolabe/agent.h"
#include "bench_report.h"
#include "pubsub/bloom_filter.h"
#include "sim/simulator.h"
#include "util/rng.h"

using namespace nw;
using astrolabe::AttrValue;
using astrolabe::RowEntry;
using astrolabe::Table;

namespace {

Table MakeTable(std::size_t rows) {
  Table t;
  util::DeterministicRng rng(3);
  for (std::size_t r = 0; r < rows; ++r) {
    RowEntry e;
    e.attrs[astrolabe::kAttrContacts] =
        astrolabe::ValueList{AttrValue(std::int64_t(r))};
    e.attrs[astrolabe::kAttrMembers] = std::int64_t(1 + rng.NextBelow(100));
    e.attrs[astrolabe::kAttrLoad] = rng.NextDouble();
    e.version = r + 1;
    t.MergeEntry("n" + std::to_string(r), e, 0.0);
  }
  return t;
}

void BM_ParseCoreAggregation(benchmark::State& state) {
  const std::string code = astrolabe::DefaultCoreFunctionCode(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(astrolabe::sql::ParseQuery(code));
  }
}
BENCHMARK(BM_ParseCoreAggregation);

void BM_EvalCoreAggregation(benchmark::State& state) {
  Table t = MakeTable(std::size_t(state.range(0)));
  const auto query =
      astrolabe::sql::ParseQuery(astrolabe::DefaultCoreFunctionCode(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(astrolabe::sql::EvalQuery(query, t));
  }
}
BENCHMARK(BM_EvalCoreAggregation)->Arg(8)->Arg(64)->Arg(256);

void BM_EvalCoreAggregationCompiled(benchmark::State& state) {
  Table t = MakeTable(std::size_t(state.range(0)));
  const auto plan = astrolabe::sql::CompiledQuery::Compile(
      astrolabe::sql::ParseQuery(astrolabe::DefaultCoreFunctionCode(3)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.Eval(t));
  }
}
BENCHMARK(BM_EvalCoreAggregationCompiled)->Arg(8)->Arg(64)->Arg(256);

void BM_TableMerge(benchmark::State& state) {
  Table incoming = MakeTable(std::size_t(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    Table local = MakeTable(std::size_t(state.range(0)) / 2);
    state.ResumeTiming();
    for (const auto& [key, entry] : incoming) {
      local.MergeEntry(key, entry, 1.0);
    }
    benchmark::DoNotOptimize(local);
  }
}
BENCHMARK(BM_TableMerge)->Arg(8)->Arg(64)->Arg(256);

void BM_TableWireBytes(benchmark::State& state) {
  Table t = MakeTable(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.WireBytes());
  }
}
BENCHMARK(BM_TableWireBytes);

void BM_CertIssue(benchmark::State& state) {
  util::DeterministicRng rng(1);
  astrolabe::Authority authority("root", astrolabe::GenerateKeyPair(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(authority.Issue(
        astrolabe::CertKind::kFunction, "fn", 0,
        {{"code", "SELECT MAX(load) AS load"}, {"version", "1"}}, 0, 1e18));
  }
}
BENCHMARK(BM_CertIssue);

void BM_CertValidateChain(benchmark::State& state) {
  util::DeterministicRng rng(1);
  astrolabe::Authority root("root", astrolabe::GenerateKeyPair(rng));
  const astrolabe::KeyPair zone_keys = astrolabe::GenerateKeyPair(rng);
  astrolabe::Authority zone("usa", zone_keys);
  const auto zone_cert = root.Issue(astrolabe::CertKind::kZoneAuthority,
                                    "usa", zone.public_key(), {}, 0, 1e18);
  const auto agent_cert =
      zone.Issue(astrolabe::CertKind::kAgent, "n1", 1, {}, 0, 1e18);
  const std::vector<astrolabe::Certificate> inter{zone_cert};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        astrolabe::ValidateChain(agent_cert, inter, root.public_key(), 10));
  }
}
BENCHMARK(BM_CertValidateChain);

void BM_BloomAddAndTest(benchmark::State& state) {
  pubsub::BloomConfig cfg;
  cfg.bits = 1024;
  pubsub::BloomFilter f(cfg);
  int i = 0;
  for (auto _ : state) {
    const std::string subject = "subject." + std::to_string(i++ % 1000);
    f.Add(subject);
    benchmark::DoNotOptimize(f.MightContain(subject));
  }
}
BENCHMARK(BM_BloomAddAndTest);

void BM_BitVectorOr(benchmark::State& state) {
  astrolabe::BitVector a(std::size_t(state.range(0)));
  astrolabe::BitVector b(std::size_t(state.range(0)));
  for (std::size_t i = 0; i < a.size(); i += 7) a.Set(i);
  for (std::size_t i = 0; i < b.size(); i += 11) b.Set(i);
  for (auto _ : state) {
    astrolabe::BitVector c = a;
    c |= b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BitVectorOr)->Arg(1024)->Arg(16384);

void BM_ZonePathParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        astrolabe::ZonePath::Parse("/usa/ny/ithaca/campus/n12345"));
  }
}
BENCHMARK(BM_ZonePathParse);

void BM_PredicateEval(benchmark::State& state) {
  const auto pred = astrolabe::sql::ParseExpression(
      "urgency <= 3 AND CONTAINS(headline, 'election') AND premium = 1");
  astrolabe::Row row;
  row["urgency"] = std::int64_t{2};
  row["headline"] = "election night special";
  row["premium"] = std::int64_t{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(astrolabe::sql::EvalPredicate(*pred, row));
  }
}
BENCHMARK(BM_PredicateEval);

// N timers at random times, run until idle: the per-event cost of the
// simulator core (schedule, heap, dispatch).
void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    util::DeterministicRng rng(5);
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.At(rng.NextDouble(), [&fired] { ++fired; });
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1 << 10)->Arg(1 << 16);

// The same with every other timer cancelled before it fires, as an acked
// hop cancels its retransmit timer.
void BM_SimulatorScheduleCancel(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  std::vector<sim::EventId> ids(n);
  for (auto _ : state) {
    sim::Simulator sim;
    util::DeterministicRng rng(5);
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = sim.At(rng.NextDouble(), [&fired] { ++fired; });
    }
    for (std::size_t i = 1; i < n; i += 2) sim.Cancel(ids[i]);
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleCancel)->Arg(1 << 10)->Arg(1 << 16);

// Console output plus a machine-readable record of every timed run.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(bench::BenchReport& report) : report_(report) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      report_.Measure(run.benchmark_name(), run.GetAdjustedRealTime(),
                      benchmark::GetTimeUnitString(run.time_unit));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report(
      "micro",
      "Micro-costs of the building blocks: aggregation evaluation, table "
      "merge, certificate operations, Bloom and zone-path handling, and "
      "the simulator's schedule/cancel/run cost per event (paper §3/§5)");
  RecordingReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.WriteFile();
  return 0;
}

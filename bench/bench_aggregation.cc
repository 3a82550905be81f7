// E18 — Incremental aggregation: dirty-tracked recomputation vs full
// re-evaluation at the paper's zone size ("say, 64" children, §3).
//
// Every gossip receipt and every gossip round ends in RecomputeAggregates,
// and the paper's sizing argument assumes that cost stays modest as zones
// fill out. A full recompute evaluates every installed SQL function over
// every level's table each time — at 64-row zone tables, almost always to
// reproduce the aggregate it computed moments ago, because between content
// changes gossip traffic is pure heartbeat (version/last_refresh churn).
// The incremental engine (DESIGN.md §11) keys a per-level memo on the
// input table's content epoch and skips levels whose content provably did
// not change; the memo must be behaviorally invisible (the equivalence
// suite asserts bit-identical runs), so the only thing left to measure is
// the work it avoids.
//
// Grid: engine {incremental, force-full} on a 128-agent deployment with
// branching 64 — two full 64-leaf zones, the paper's nominal zone size —
// measured over a 60 s steady-state window after convergence. The gate
// asserts the incremental engine performs at most 1/5 of the full
// engine's aggregate evaluations in steady state (EXPERIMENTS.md E18),
// and that both runs converge to the same replicated state.
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "astrolabe/agent.h"
#include "astrolabe/deployment.h"
#include "bench_report.h"
#include "testing/invariants.h"
#include "util/stats.h"
#include "util/table_printer.h"

using namespace nw;

namespace {

constexpr std::size_t kAgents = 128;
constexpr std::size_t kBranching = 64;  // the paper's nominal zone size
constexpr double kWarmupSeconds = 30;   // convergence + detector settle
constexpr double kMeasureSeconds = 60;
constexpr double kGatedRatio = 5.0;

struct RunResult {
  std::uint64_t recompute_calls = 0;  // during the measurement window
  std::uint64_t levels_evaluated = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t mib_hash = 0;  // replicated-state digest after the window
  // Wall-clock cost of one per-level recompute (ZoneSummary of the 64-row
  // leaf zone) in the post-window steady state: memo-served for the
  // incremental engine, a full evaluation when forced.
  util::SampleStats recompute_path;
};

RunResult Run(bool force_full) {
  astrolabe::DeploymentConfig cfg;
  cfg.branching = kBranching;
  cfg.gossip_period = 1.0;
  cfg.force_full_recompute = force_full;
  cfg.seed = 0xE18;
  astrolabe::Deployment dep(kAgents, cfg);
  dep.StartAll();
  dep.RunFor(kWarmupSeconds);

  std::uint64_t calls0 = 0, evals0 = 0, hits0 = 0;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    const auto& st = dep.agent(i).agg_stats();
    calls0 += st.recompute_calls;
    evals0 += st.levels_evaluated;
    hits0 += st.cache_hits;
  }
  dep.RunFor(kMeasureSeconds);

  RunResult out;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    const auto& st = dep.agent(i).agg_stats();
    out.recompute_calls += st.recompute_calls;
    out.levels_evaluated += st.levels_evaluated;
    out.cache_hits += st.cache_hits;
  }
  out.recompute_calls -= calls0;
  out.levels_evaluated -= evals0;
  out.cache_hits -= hits0;
  out.mib_hash = testing::MibContentHash(dep);

  // Time the per-level recompute path itself, post-window (steady state, no
  // further content changes): ZoneSummary(Depth - 1) is exactly what
  // RecomputeAggregates runs per level — served from the memo in the
  // incremental engine, a full SQL pass over the 64-row table when forced.
  for (std::size_t i = 0; i < dep.size(); ++i) {
    astrolabe::Agent& agent = dep.agent(i);
    const std::size_t level = agent.Depth() - 1;
    for (int rep = 0; rep < 16; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto row = agent.ZoneSummary(level);
      const auto t1 = std::chrono::steady_clock::now();
      if (row.empty()) std::printf("unexpected empty summary\n");
      out.recompute_path.Add(std::chrono::duration<double>(t1 - t0).count());
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf(
      "E18: incremental aggregation — dirty-tracked recomputation vs full "
      "re-evaluation\n(%zu agents, branching %zu: two full %zu-leaf zones; "
      "%.0fs steady-state window after %.0fs warmup; every recompute either "
      "evaluates a level's functions or serves the content-epoch memo)\n\n",
      kAgents, kBranching, kBranching, kMeasureSeconds, kWarmupSeconds);
  bench::BenchReport report(
      "aggregation",
      "Dirty-tracked incremental recomputation with compiled query plans "
      "cuts steady-state aggregate evaluation work by >=5x at the paper's "
      "nominal 64-child zone size, while remaining behaviorally invisible "
      "(bit-identical replicated state)");
  report.Note(
      "evals = levels actually re-evaluated during the measurement window, "
      "summed over all agents; memo_hits = levels served from the "
      "content-epoch memo. Steady-state gossip is heartbeat-dominated, so "
      "the full engine's evaluations are almost all redundant by "
      "construction — the equivalence suite (tests/aggregation_cache_test) "
      "proves the skipped work was unobservable");

  const RunResult incremental = Run(false);
  const RunResult full = Run(true);

  util::TablePrinter table({"engine", "recomputes", "evals", "memo hits",
                            "evals/recompute", "path p50 us"});
  for (const auto& [name, r] :
       {std::pair<const char*, const RunResult&>{"incremental", incremental},
        {"force-full", full}}) {
    table.AddRow({name, util::TablePrinter::Int(long(r.recompute_calls)),
                  util::TablePrinter::Int(long(r.levels_evaluated)),
                  util::TablePrinter::Int(long(r.cache_hits)),
                  util::TablePrinter::Num(
                      r.recompute_calls
                          ? double(r.levels_evaluated) / double(r.recompute_calls)
                          : 0.0,
                      4),
                  util::TablePrinter::Num(
                      r.recompute_path.Percentile(50) * 1e6, 2)});
    const std::string tag = name;
    report.Measure("recompute_calls_" + tag, double(r.recompute_calls));
    report.Measure("agg_evals_" + tag, double(r.levels_evaluated));
    report.Measure("memo_hits_" + tag, double(r.cache_hits));
    report.Samples("recompute_path_seconds_" + tag, r.recompute_path, "s");
  }
  table.Print();

  // p50 wall-clock speedup of one per-level recompute: memo-served vs a
  // full evaluation. Informational (wall time is host-dependent); the gate
  // below is on counted evaluation work.
  const double inc_p50 = incremental.recompute_path.Percentile(50);
  const double recompute_p50_speedup =
      inc_p50 > 0 ? full.recompute_path.Percentile(50) / inc_p50 : 0.0;
  report.Measure("recompute_p50_speedup", recompute_p50_speedup);

  const double ratio =
      incremental.levels_evaluated > 0
          ? double(full.levels_evaluated) / double(incremental.levels_evaluated)
          : double(full.levels_evaluated);
  report.Measure("eval_work_ratio_full_over_incremental", ratio);
  report.Measure("states_identical",
                 incremental.mib_hash == full.mib_hash ? 1.0 : 0.0);
  report.WriteFile();

  std::printf(
      "\nReading: in steady state the zone tables' content epochs only move "
      "when an attribute actually changes, and heartbeat traffic (the bulk "
      "of gossip after convergence) leaves them untouched — so the memo "
      "serves nearly every recompute and the eval-work ratio lands around "
      "%.1fx. The force-full column is the legacy cost: one full SQL pass "
      "over a %zu-row table per installed function, per level, per gossip "
      "event.\n",
      ratio, kBranching);

  const bool ok = full.levels_evaluated > 0 && ratio >= kGatedRatio &&
                  incremental.mib_hash == full.mib_hash;
  if (!ok) {
    std::printf(
        "GATE FAILED: want eval-work ratio >= %.1fx (got %.2fx over full=%llu "
        "incremental=%llu) with identical replicated state (hashes %016llx "
        "vs %016llx)\n",
        kGatedRatio, ratio, (unsigned long long)full.levels_evaluated,
        (unsigned long long)incremental.levels_evaluated,
        (unsigned long long)incremental.mib_hash,
        (unsigned long long)full.mib_hash);
  }
  return ok ? 0 : 1;
}

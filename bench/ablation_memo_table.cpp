//===-- bench/ablation_memo_table.cpp - Memo-table ablation (A1) ----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A1 (ours; motivated by Section 2.2's "auxiliary memo table"):
/// quantifies what the location-independent memo table M contributes on top
/// of DAIG cell reuse, by running the demand-driven-only configuration —
/// whose full-DAIG dirtying makes it maximally memo-dependent — with the
/// table enabled vs. disabled, over the Section 7.3 edit workload.
///
//===----------------------------------------------------------------------===//

#include "bench/flags.h"
#include "daig/daig.h"
#include "domain/octagon.h"
#include "interproc/engine.h"
#include "support/observe.h"
#include "workload/generator.h"

#include <chrono>
#include <cstdio>
#include <cstring>

using namespace dai;

namespace {

using Clock = std::chrono::steady_clock;

/// Runs the DD-only loop on `main`'s DAIG directly (single-function focus so
/// the memo effect is not diluted by engine bookkeeping).
double runTrial(bool UseMemo, unsigned Edits, uint64_t Seed,
                Statistics &Stats) {
  WorkloadOptions WOpts;
  WOpts.Seed = Seed;
  WOpts.PctCallStmt = 0; // intraprocedural focus
  WorkloadGenerator Gen(WOpts);
  Program P = Gen.makeInitialProgram();
  Function &Main = *P.find("main");

  MemoTable<OctagonDomain> Memo;
  Memo.attachStatistics(&Stats); // same lifetime: safe sink
  double TotalMs = 0;
  for (unsigned I = 0; I < Edits; ++I) {
    Gen.applyRandomEdit(P);
    std::vector<Loc> Queries = Gen.sampleQueryLocations(P, 5);
    Clock::time_point Start = Clock::now();
    // Full dirtying: fresh DAIG each edit; only the memo table persists.
    Daig<OctagonDomain> G(&Main.Body,
                          OctagonDomain::initialEntry(Main.Params), &Stats,
                          UseMemo ? &Memo : nullptr);
    for (Loc Q : Queries)
      (void)G.queryLocation(Q);
    TotalMs += std::chrono::duration<double, std::milli>(Clock::now() - Start)
                   .count();
  }
  return TotalMs;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Edits = 250;
  uint64_t Seed = 7;
  for (int I = 1; I < argc; ++I) {
    if (I + 1 >= argc ||
        (std::strcmp(argv[I], "--edits") && std::strcmp(argv[I], "--seed"))) {
      std::fprintf(stderr, "usage: %s [--edits N] [--seed S]\n", argv[0]);
      return 1;
    }
    if (!std::strcmp(argv[I], "--edits"))
      Edits = parseCount("--edits", argv[++I], 1);
    else
      Seed = parseCount<uint64_t>("--seed", argv[++I], 0);
  }

  std::printf("# Ablation A1: auxiliary memo table on/off, demand-driven-"
              "only configuration, octagon domain, %u edits\n\n",
              Edits);
  std::printf("%-12s %12s %14s %12s %12s %12s\n", "Memo", "total(ms)",
              "transfers", "memo hits", "memo misses", "evictions");

  Statistics WithStats, WithoutStats;
  double With = runTrial(true, Edits, Seed, WithStats);
  double Without = runTrial(false, Edits, Seed, WithoutStats);

  std::printf("%-12s %12.1f %14llu %12llu %12llu %12llu\n", "enabled", With,
              (unsigned long long)WithStats.Transfers,
              (unsigned long long)WithStats.MemoHits,
              (unsigned long long)WithStats.MemoMisses,
              (unsigned long long)WithStats.MemoEvictions);
  std::printf("%-12s %12.1f %14llu %12llu %12llu %12llu\n", "disabled",
              Without, (unsigned long long)WithoutStats.Transfers,
              (unsigned long long)WithoutStats.MemoHits,
              (unsigned long long)WithoutStats.MemoMisses,
              (unsigned long long)WithoutStats.MemoEvictions);
  std::printf("\n# speedup from memoization: %.2fx; transfers avoided: "
              "%.0f%%\n",
              Without / (With > 0 ? With : 1),
              100.0 *
                  (1.0 - double(WithStats.Transfers) /
                             double(WithoutStats.Transfers
                                        ? WithoutStats.Transfers
                                        : 1)));

  // Machine-readable tail: both configurations' Statistics published
  // through the MetricsRegistry export bridge, so the emitted field names
  // are exactly the bench-gate schema (memo_hits, memo_misses, ...) and
  // cannot drift from it.
  MetricsRegistry Reg;
  exportStatistics(WithStats, Reg, "memo_on_");
  exportStatistics(WithoutStats, Reg, "memo_off_");
  exportDomainCounters(Reg);
  exportTraceStats(Reg);
  std::printf("\nJSON: %s\n", Reg.toJson().c_str());
  return 0;
}

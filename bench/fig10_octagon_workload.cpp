//===-- bench/fig10_octagon_workload.cpp - Fig. 10 reproduction -----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces **Fig. 10** of "Demanded Abstract Interpretation" (PLDI 2021):
/// the scalability study comparing four analysis configurations — Batch,
/// Incremental-only, Demand-driven-only, and Incremental & Demand-driven —
/// on a synthetic workload of random program edits interleaved with
/// analysis queries, over a context-insensitive octagon domain.
///
/// Emits, per configuration:
///   - `SCATTER <config> <edit#> <edges> <ms>` rows (the four scatter plots:
///     per-edit analysis latency vs. program size),
///   - `CDF <config> <ms> <fraction>` rows (the cumulative latency plot),
///   - and a paper-style summary table (mean / p50 / p90 / p95 / p99).
///
/// Additionally writes machine-readable `BENCH_fig10.json` (override with
/// `--json PATH`, disable with `--no-json`): the per-config summary plus a
/// variable-count sweep (`--sizes 8,16,32,48`) of the incr+demand
/// configuration reporting wall time, DBM closure counters, and name-table
/// intern counters per size — cells stored and the peak single-matrix
/// footprint track the half-matrix layout; names_interned / intern_hits /
/// name_table_bytes track the hash-consed name layer — so successive PRs
/// can follow the perf trajectory and *why* it moved (full vs. incremental
/// closure mix; see support/statistics.h).
///
/// The relational domain is an axis: `--domain octagon|zone|staged|both`
/// (default both for the sweep; the Fig. 10 config table itself runs the
/// octagon unless `--domain zone` or `--domain staged`). The sweep emits
/// one sizes-entry per (domain, size) pair: octagon entries carry the
/// dense-DBM counters (cells touched ~n² per sweep size on this mostly-⊤
/// workload), zone entries carry the sparse-graph counters (edges stored,
/// potential repairs, closure vertices visited) — the headline claim being
/// that zone closure work tracks the number of LIVE constraints and grows
/// sub-quadratically in the variable pool where the octagon's cells
/// touched cannot.
///
/// Staged entries (domain/staged.h) run the SAME difference workload on
/// the zone tier (their wall time should track the zone's) and then a
/// SUM-CONSTRAINT QUERY PHASE: escalated queries at sampled locations,
/// with every x + y bound lockstep-compared against a fresh pure-octagon
/// engine on the final program — staged_sum_mismatches counts answers that
/// are not octagon-exact (expected 0; staged_sum_tighter counts sound
/// zone-side prunings, which only tighten). staged_escalated_transfers is
/// the staged gate metric: the octagon work the escalation actually paid.
///
/// Registry-era rows (PR 10) run after the historical sweep loop so every
/// pre-registry counter window closes first and the octagon/zone/staged
/// gate counters stay bit-identical to older baselines:
///   - `--domain dis_interval` sweep rows (domain/dis_interval.h) carry
///     ONLY dis_interval_-prefixed counters; dis_interval_partitions_collapsed
///     is the new gate metric (partition lists force-merged under the K
///     bound — deterministic, like the closure counters).
///   - `--domain arr_interval|arr_zone` rows verify the Section 7.2 array
///     corpus (bench/corpus/array_programs.h) under the array-smashing
///     functor (domain/array_smash.h) with the ArrayBounds check family,
///     reporting registry-reported names and arr_-prefixed verdict tallies.
///   - an ERASURE A/B: the identical largest-size workload through the
///     direct ZoneDomain template vs the type-erased AnyDomain bound to
///     "zone" (domain/registry.h), emitted as a top-level `erasure_ab`
///     object — overhead is measured, not assumed, and the zone counter
///     deltas must match exactly (erasure_counter_mismatches must be 0 or
///     the bench exits nonzero).
///
/// scripts/check_bench_regression.sh compares a fresh JSON against the
/// committed baseline, gating on the deterministic closure-cells-touched
/// (octagon), closure-vertices-visited (zone), escalated-transfers
/// (staged), and partitions-collapsed (dis_interval) counters.
///
/// Defaults are scaled down from the paper's 3,000 edits × 9 trials so the
/// whole suite runs in CI time; pass `--edits 3000 --trials 9` for paper
/// scale. Same-seed trials issue identical edit/query sequences to every
/// configuration, exactly as in Section 7.3.
///
//===----------------------------------------------------------------------===//

#include "analysis/batch_interpreter.h"
#include "analysis/checker.h"
#include "analysis/checks_db.h"
#include "bench/flags.h"
#include "bench/corpus/array_programs.h"
#include "cfg/lowering.h"
#include "domain/array_smash.h"
#include "domain/dis_interval.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "domain/registry.h"
#include "domain/staged.h"
#include "domain/zone.h"
#include "interproc/engine.h"
#include "support/observe.h"
#include "support/statistics.h"
#include "workload/generator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace dai;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

enum class Config { Batch, Incremental, DemandDriven, IncrementalAndDemand };

const char *configName(Config C) {
  switch (C) {
  case Config::Batch: return "batch";
  case Config::Incremental: return "incremental";
  case Config::DemandDriven: return "demand-driven";
  case Config::IncrementalAndDemand: return "incr+demand";
  }
  return "?";
}

struct Sample {
  unsigned EditIndex;
  size_t ProgramEdges;
  double Ms;
};

enum class DomainChoice {
  Octagon,
  Zone,
  Staged,
  DisInterval, ///< Disjunctive intervals (registry key dis_interval).
  ArrInterval, ///< Array smashing over intervals (corpus verification row).
  ArrZone,     ///< Array smashing over zones (corpus verification row).
  Both,        ///< Every row family (the committed-baseline default).
};

struct Options {
  unsigned Edits = 250;
  unsigned Trials = 3;
  unsigned Queries = 5;
  uint64_t Seed = 42;
  unsigned Vars = 12; ///< Variable pool (octagon closure is O((2v)^3)).
  unsigned ScatterPoints = 120; ///< Downsampling budget per config.
  bool RunBatch = true;
  DomainChoice Domain = DomainChoice::Both; ///< Sweep axis; table runs one.
  std::string JsonPath = "BENCH_fig10.json"; ///< Empty disables JSON.
  std::vector<unsigned> SweepSizes = {8, 16, 32, 48};
};

/// The incr+demand edit/query loop over a live engine: Opt.Edits random
/// edits with minimal dirtying, each followed by the per-edit query batch
/// (the paper's I&DD configuration). Shared by runTrial and the staged
/// sweep point — which additionally needs the engine alive afterwards for
/// its sum-constraint query phase — so the "identical seeded difference
/// workload" comparability across domains cannot drift between the two.
/// Appends per-edit samples to \p Samples when non-null; returns the
/// summed per-edit analysis latency.
template <typename D>
double runIncrDemandEdits(InterprocEngine<D> &Engine, WorkloadGenerator &Gen,
                          const Options &Opt, std::vector<Sample> *Samples) {
  double AnalysisMs = 0;
  for (unsigned EditIdx = 0; EditIdx < Opt.Edits; ++EditIdx) {
    Program &Current = Engine.program();
    EditRecord Rec = Gen.applyRandomEdit(Current);
    std::vector<Loc> Queries =
        Gen.sampleQueryLocations(Current, Opt.Queries);
    size_t Edges = Current.find("main")->Body.edges().size();
    Clock::time_point Start = Clock::now();
    if (Rec.Kind == EditKind::InsertStmt)
      Engine.applyInsertedStatementEdit("main", Rec.At, Rec.Splice);
    else
      Engine.applyStructuralEdit("main");
    for (Loc Q : Queries)
      (void)Engine.queryMain(Q);
    double Ms = msSince(Start);
    AnalysisMs += Ms;
    if (Samples)
      Samples->push_back(Sample{EditIdx, Edges, Ms});
  }
  return AnalysisMs;
}

/// Runs one trial of one configuration over domain \p D; every
/// configuration sees the identical (seeded) edit and query sequence.
template <typename D>
std::vector<Sample> runTrial(Config C, const Options &Opt, uint64_t Seed) {
  WorkloadOptions WOpts;
  WOpts.Seed = Seed;
  WOpts.QueriesPerEdit = Opt.Queries;
  WOpts.NumVars = Opt.Vars;
  WorkloadGenerator Gen(WOpts);
  Program Initial = Gen.makeInitialProgram();

  std::vector<Sample> Samples;
  Samples.reserve(Opt.Edits);

  // Persistent engine for the three demanded configurations.
  std::unique_ptr<InterprocEngine<D>> Engine;
  // Program evolved locally for the batch configuration.
  Program BatchProgram;
  if (C == Config::Batch)
    BatchProgram = Initial;
  else
    Engine = std::make_unique<InterprocEngine<D>>(std::move(Initial), "main",
                                                  /*K=*/0);

  if (C == Config::IncrementalAndDemand) {
    // Minimal dirtying and demand-driven evaluation (the paper's I&DD).
    runIncrDemandEdits(*Engine, Gen, Opt, &Samples);
    return Samples;
  }

  for (unsigned EditIdx = 0; EditIdx < Opt.Edits; ++EditIdx) {
    Program &Current =
        (C == Config::Batch) ? BatchProgram : Engine->program();
    EditRecord Rec = Gen.applyRandomEdit(Current);
    std::vector<Loc> Queries =
        Gen.sampleQueryLocations(Current, Opt.Queries);
    size_t Edges = Current.find("main")->Body.edges().size();

    Clock::time_point Start = Clock::now();
    switch (C) {
    case Config::Batch: {
      // Classical whole-program analysis from scratch on every edit.
      InterprocEngine<D> Fresh(Current, "main", 0);
      Fresh.analyzeAllFromMain();
      for (Loc Q : Queries)
        (void)Fresh.queryMain(Q);
      break;
    }
    case Config::Incremental:
      // Minimal dirtying, then eager recomputation of everything.
      if (Rec.Kind == EditKind::InsertStmt)
        Engine->applyInsertedStatementEdit("main", Rec.At, Rec.Splice);
      else
        Engine->applyStructuralEdit("main");
      Engine->analyzeAllFromMain();
      for (Loc Q : Queries)
        (void)Engine->queryMain(Q);
      break;
    case Config::DemandDriven:
      // Full dirtying, then compute only what the queries demand.
      Engine->resetAllInstances();
      for (Loc Q : Queries)
        (void)Engine->queryMain(Q);
      break;
    case Config::IncrementalAndDemand:
      break; // handled above (runIncrDemandEdits)
    }
    Samples.push_back(Sample{EditIdx, Edges, msSince(Start)});
  }
  return Samples;
}

/// One entry of the per-size sweep: the incr+demand configuration run at a
/// given variable-pool size over one relational domain, with wall time,
/// closure-counter deltas (dense DBM counters for the octagon, sparse graph
/// counters for the zone), and name-table intern activity.
struct SweepResult {
  const char *Domain;
  unsigned Vars;
  double WallMs;     ///< Total wall time of the trial (incl. bookkeeping).
  double AnalysisMs; ///< Sum of per-edit analysis latencies.
  ClosureCounters Closure;
  ZoneCounters Zone;
  NameTableCounters Names;
  StagedCounters Staged;        ///< Staged rows only (zero otherwise).
  DisIntervalCounters DisInt;   ///< dis_interval rows only (zero otherwise).
  uint64_t SumQueries = 0;      ///< Sum-phase bound comparisons performed.
  uint64_t SumMismatches = 0;   ///< Answers that were NOT octagon-exact.
  uint64_t SumTighter = 0;      ///< Sound zone-side prunings (⊥ collapse).
  uint64_t EscalatedLocs = 0;   ///< Query locations holding escalated values.
  double SumQueryMs = 0;        ///< Wall time of the sum-query phase.
};

/// Snapshot of every per-thread counter family a sweep point reports —
/// the shared take/delta boilerplate of runSweepPoint and the staged
/// sweep, so the two cannot drift in which counters they window.
struct CounterSnapshot {
  ClosureCounters Closure;
  ZoneCounters Zone;
  NameTableCounters Names;
  StagedCounters Staged;
  DisIntervalCounters DisInt;

  static CounterSnapshot take() {
    // PeakDbmBytes is a gauge; zero it so the region reports its own peak
    // rather than the largest matrix any earlier phase ever allocated.
    closureCounters().PeakDbmBytes = 0;
    return {closureCounters(), zoneCounters(), nameTableCounters(),
            stagedCounters(), disIntervalCounters()};
  }
  /// Writes (now − snapshot) into \p R. Call at the END of the measured
  /// region — anything that runs afterwards (e.g. the staged point's
  /// pure-octagon verification engine) stays out of the reported deltas.
  void deltaInto(SweepResult &R) const {
    R.Closure = closureCounters() - Closure;
    R.Zone = zoneCounters() - Zone;
    R.Names = nameTableCounters() - Names;
    R.Staged = stagedCounters() - Staged;
    R.DisInt = disIntervalCounters() - DisInt;
  }
};

template <typename D>
SweepResult runSweepPoint(const Options &Opt, unsigned Vars) {
  Options SizeOpt = Opt;
  SizeOpt.Vars = Vars;
  CounterSnapshot Before = CounterSnapshot::take();
  Clock::time_point Start = Clock::now();
  std::vector<Sample> Samples =
      runTrial<D>(Config::IncrementalAndDemand, SizeOpt, Opt.Seed);
  double WallMs = msSince(Start);
  SweepResult R;
  R.Domain = D::name();
  R.Vars = Vars;
  R.WallMs = WallMs;
  R.AnalysisMs = 0;
  for (const Sample &S : Samples)
    R.AnalysisMs += S.Ms;
  Before.deltaInto(R);
  return R;
}

/// The staged sweep point: the identical seeded difference workload (wall
/// time should track the zone's — escalation never triggers on it), then
/// the SUM-CONSTRAINT QUERY PHASE: escalated queries at freshly sampled
/// locations, each x + y answer lockstep-compared against a pure-octagon
/// engine analyzing the same final program. Timed separately — the phase
/// wall is the price of escalation, not of the incremental edit loop.
SweepResult runStagedSweepPoint(const Options &Opt, unsigned Vars) {
  Options SizeOpt = Opt;
  SizeOpt.Vars = Vars;
  CounterSnapshot Before = CounterSnapshot::take();

  WorkloadOptions WOpts;
  WOpts.Seed = Opt.Seed;
  WOpts.QueriesPerEdit = SizeOpt.Queries;
  WOpts.NumVars = Vars;
  WorkloadGenerator Gen(WOpts);
  Program Initial = Gen.makeInitialProgram();
  InterprocEngine<StagedDomain> Engine(std::move(Initial), "main", /*K=*/0);

  SweepResult R;
  R.Domain = StagedDomain::name();
  R.Vars = Vars;
  Clock::time_point Start = Clock::now();
  R.AnalysisMs = runIncrDemandEdits(Engine, Gen, SizeOpt, nullptr);
  R.WallMs = msSince(Start); // the difference workload only

  // Sum-constraint query phase. The escalation scope keeps escalated cells
  // warm across queries: the first zone-only hit resets the instances and
  // re-demands under full escalation; later queries reuse that slice.
  // Only the STAGED side is inside the timed window — staged_sum_query_ms
  // is the price of escalation, and the pure-octagon reference run below
  // is lockstep-verification overhead a production analysis never pays.
  std::vector<Loc> SumLocs =
      Gen.sampleQueryLocations(Engine.program(), SizeOpt.Queries);
  const std::vector<std::string> &Pool = Gen.varPool();
  std::vector<std::vector<Interval>> StagedAnswers(SumLocs.size());
  Clock::time_point SumStart = Clock::now();
  {
    StagedEscalationScope Scope;
    for (size_t LI = 0; LI < SumLocs.size(); ++LI) {
      Staged SV = queryEscalatedMain(Engine, SumLocs[LI]);
      if (SV.escalated())
        ++R.EscalatedLocs;
      for (size_t I = 0; I + 1 < Pool.size(); I += 2)
        StagedAnswers[LI].push_back(SV.sumBounds(
            internSymbol(Pool[I]), internSymbol(Pool[I + 1])));
    }
  }
  R.SumQueryMs = msSince(SumStart);
  // Close the counter window HERE: the verification engine below is
  // lockstep overhead, not staged analysis work.
  Before.deltaInto(R);

  // Untimed lockstep verification against a fresh pure-octagon engine.
  InterprocEngine<OctagonDomain> Ref(Engine.program(), "main", /*K=*/0);
  for (size_t LI = 0; LI < SumLocs.size(); ++LI) {
    Octagon OV = Ref.queryMain(SumLocs[LI]);
    for (size_t I = 0, P = 0; I + 1 < Pool.size(); I += 2, ++P) {
      const Interval &S1 = StagedAnswers[LI][P];
      Interval S2 = OV.isBottom() ? Interval::empty()
                                  : OV.closedView().sumBounds(
                                        internSymbol(Pool[I]),
                                        internSymbol(Pool[I + 1]));
      ++R.SumQueries;
      if (S1 == S2)
        continue;
      if (S2.subsumes(S1))
        ++R.SumTighter; // zone-side pruning: sound, strictly tighter
      else
        ++R.SumMismatches; // NOT octagon-exact: a real divergence
    }
  }

  return R;
}

//===----------------------------------------------------------------------===//
// Registry-era rows: array-smashing corpus verification & erasure A/B
//===----------------------------------------------------------------------===//

/// One corpus-verification row for an array-smashing functor domain: every
/// program of bench/corpus/array_programs.h is lowered, analyzed at k=2,
/// and checked with the ArrayBounds battery from PR 7 — the workload the
/// smashing functor exists for (one summary cell per array, weak updates).
/// All counter fields are emitted under the registry-reported domain name
/// (arr_interval / arr_zone) so the gate script never conflates them with
/// the unprefixed checker-bench fields.
struct ArrayRow {
  const char *Domain = "";
  unsigned Programs = 0;
  double WallMs = 0;
  uint64_t Checks = 0;
  uint64_t Safe = 0;
  uint64_t Warning = 0;
  uint64_t Error = 0;
  uint64_t Unreachable = 0;
  unsigned UnsafeExpected = 0; ///< Corpus programs marked ExpectSafe=false.
  unsigned UnsafeFlagged = 0;  ///< ...of those, flagged with ≥1 non-Safe
                               ///< verdict (soundness demands all of them).
};

template <typename D> ArrayRow runArrayCorpusRow() {
  constexpr uint32_t Mask = checkMask(CheckKind::UserAssertion) |
                            checkMask(CheckKind::DivByZero) |
                            checkMask(CheckKind::ArrayBounds);
  ArrayRow R;
  R.Domain = D::name();
  Statistics Stats;
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I < corpus::NumArrayPrograms; ++I) {
    const auto &Prog = corpus::ArrayPrograms[I];
    LowerResult LR = frontend(Prog.Source);
    if (!LR.ok()) {
      std::fprintf(stderr, "corpus program %s failed to lower: %s\n",
                   Prog.Name, LR.Error.c_str());
      continue;
    }
    InterprocEngine<D> Engine(std::move(LR.Prog), "main", /*K=*/2);
    if (!Engine.valid()) {
      std::fprintf(stderr, "%s: %s\n", Prog.Name, Engine.error().c_str());
      continue;
    }
    Engine.analyzeAllFromMain();
    ++R.Programs;
    if (!Prog.ExpectSafe)
      ++R.UnsafeExpected;

    std::map<SymbolId, std::vector<Obligation>> ObsByFn;
    for (const auto &[FnName, F] : Engine.program().Functions)
      ObsByFn[internSymbol(FnName)] = collectObligations(F.Body, Mask);

    ChecksDb Db;
    VerdictCounts Counts;
    Engine.forEachInstance([&](const auto &Key, Daig<D> &G) {
      const auto &Obs = ObsByFn[Key.Fn];
      if (Obs.empty())
        return;
      Counts += runChecks<D>(
          Obs, [&](Loc L) { return G.queryLocation(L); },
          [&](Loc L) { return G.locationDegraded(L); }, Db, &Stats);
    });
    R.Safe += Counts.Safe;
    R.Warning += Counts.Warning;
    R.Error += Counts.Error;
    R.Unreachable += Counts.Unreachable;
    if (!Prog.ExpectSafe && Counts.Warning + Counts.Error > 0)
      ++R.UnsafeFlagged;
  }
  R.Checks = Stats.ChecksEvaluated;
  R.WallMs = msSince(T0);
  return R;
}

/// The erasure-overhead A/B: the identical largest-size incr+demand
/// workload through the direct ZoneDomain template and through AnyDomain
/// bound to "zone". Dispatch cost is the only difference allowed — the
/// zone counter deltas of both runs must match exactly (the end-to-end
/// bit-identity lives in tests/domain_registry_test.cpp; the bench repeats
/// the cheap counter half as a production tripwire) — so overhead_pct is a
/// measured number, not an assumption.
struct ErasureAB {
  bool Ran = false;
  unsigned Vars = 0;
  double DirectWallMs = 0;
  double ErasedWallMs = 0;
  double OverheadPct = 0;
  uint64_t CounterMismatches = 0;
};

ErasureAB runErasureAB(const Options &Opt) {
  ErasureAB R;
  if (Opt.SweepSizes.empty())
    return R;
  R.Vars = Opt.SweepSizes.back();
  SweepResult Direct = runSweepPoint<ZoneDomain>(Opt, R.Vars);
  SweepResult Erased;
  {
    AnyDomainDefaultScope Scope("zone");
    Erased = runSweepPoint<AnyDomain>(Opt, R.Vars);
  }
  R.DirectWallMs = Direct.WallMs;
  R.ErasedWallMs = Erased.WallMs;
  R.OverheadPct =
      Direct.WallMs > 0 ? (Erased.WallMs / Direct.WallMs - 1) * 100 : 0;
  std::ostringstream A, B;
  A << Direct.Zone;
  B << Erased.Zone;
  R.CounterMismatches = A.str() == B.str() ? 0 : 1;
  R.Ran = true;
  return R;
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Idx = P / 100.0 * (static_cast<double>(Sorted.size()) - 1);
  size_t Lo = static_cast<size_t>(Idx);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Idx - static_cast<double>(Lo);
  return Sorted[Lo] * (1 - Frac) + Sorted[Hi] * Frac;
}

struct ConfigResult {
  Config C;
  std::vector<Sample> AllSamples;
};

/// The Fig. 10 configuration table over one domain.
template <typename D>
std::vector<ConfigResult> runConfigs(const std::vector<Config> &Configs,
                                     const Options &Opt) {
  std::vector<ConfigResult> Results;
  for (Config C : Configs) {
    ConfigResult R{C, {}};
    for (unsigned Trial = 0; Trial < Opt.Trials; ++Trial) {
      std::vector<Sample> S = runTrial<D>(C, Opt, Opt.Seed + Trial);
      R.AllSamples.insert(R.AllSamples.end(), S.begin(), S.end());
    }
    Results.push_back(std::move(R));
    std::fprintf(stderr, "finished %s (%s)\n", configName(C), D::name());
  }
  return Results;
}

/// Largest accepted --vars / --sizes entry: octagon closure is O((2v)^3)
/// and a DBM holds (2v)^2 bounds, so a typo must not ask for gigabytes.
constexpr unsigned kMaxVars = 1024;

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    auto next = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", Flag);
        std::exit(1);
      }
      return argv[++I];
    };
    if (!std::strcmp(argv[I], "--edits"))
      Opt.Edits = parseCount("--edits", next("--edits"), 1);
    else if (!std::strcmp(argv[I], "--trials"))
      Opt.Trials = parseCount("--trials", next("--trials"), 1);
    else if (!std::strcmp(argv[I], "--queries"))
      Opt.Queries = parseCount("--queries", next("--queries"), 1);
    else if (!std::strcmp(argv[I], "--seed"))
      Opt.Seed = parseCount<uint64_t>("--seed", next("--seed"), 0);
    else if (!std::strcmp(argv[I], "--vars"))
      Opt.Vars = parseCount("--vars", next("--vars"), 1, kMaxVars);
    else if (!std::strcmp(argv[I], "--no-batch"))
      Opt.RunBatch = false;
    else if (!std::strcmp(argv[I], "--domain")) {
      const char *V = next("--domain");
      if (!std::strcmp(V, "octagon"))
        Opt.Domain = DomainChoice::Octagon;
      else if (!std::strcmp(V, "zone"))
        Opt.Domain = DomainChoice::Zone;
      else if (!std::strcmp(V, "staged"))
        Opt.Domain = DomainChoice::Staged;
      else if (!std::strcmp(V, "dis_interval"))
        Opt.Domain = DomainChoice::DisInterval;
      else if (!std::strcmp(V, "arr_interval"))
        Opt.Domain = DomainChoice::ArrInterval;
      else if (!std::strcmp(V, "arr_zone"))
        Opt.Domain = DomainChoice::ArrZone;
      else if (!std::strcmp(V, "both"))
        Opt.Domain = DomainChoice::Both;
      else {
        std::fprintf(stderr, "--domain must be octagon, zone, staged, "
                             "dis_interval, arr_interval, arr_zone, or "
                             "both\n");
        return 1;
      }
    } else if (!std::strcmp(argv[I], "--json")) {
      Opt.JsonPath = next("--json");
    } else if (!std::strcmp(argv[I], "--no-json"))
      Opt.JsonPath.clear();
    else if (!std::strcmp(argv[I], "--sizes")) {
      Opt.SweepSizes = parseCounts("--sizes", next("--sizes"), 1, kMaxVars);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--edits N] [--trials N] [--queries N] "
                   "[--seed S] [--vars N] [--no-batch] "
                   "[--domain octagon|zone|staged|dis_interval|"
                   "arr_interval|arr_zone|both] [--json PATH] "
                   "[--no-json] [--sizes N,N,...]\n",
                   argv[0]);
      return 1;
    }
  }

  // The Fig. 10 config table reproduces the PAPER's study, which is an
  // octagon study — it runs the zone or staged domain instead only on
  // explicit request. --domain both (the default) affects the per-size
  // SWEEP below.
  const bool TableIsZone = Opt.Domain == DomainChoice::Zone;
  const bool TableIsStaged = Opt.Domain == DomainChoice::Staged;
  const bool TableIsDis = Opt.Domain == DomainChoice::DisInterval;
  std::printf("# Fig. 10 reproduction: %s domain, %u edits x %u trials, "
              "%u queries between edits, seed %llu\n",
              TableIsZone
                  ? "zone"
                  : (TableIsStaged ? "staged"
                                   : (TableIsDis ? "dis_interval"
                                                 : "octagon")),
              Opt.Edits, Opt.Trials, Opt.Queries,
              static_cast<unsigned long long>(Opt.Seed));
  std::printf("# Edit mix: 85%% statement / 10%% if / 5%% while insertions "
              "(Section 7.3)\n\n");

  std::vector<Config> Configs;
  if (Opt.RunBatch)
    Configs.push_back(Config::Batch);
  Configs.push_back(Config::Incremental);
  Configs.push_back(Config::DemandDriven);
  Configs.push_back(Config::IncrementalAndDemand);

  std::vector<ConfigResult> Results =
      TableIsZone
          ? runConfigs<ZoneDomain>(Configs, Opt)
          : (TableIsStaged
                 ? runConfigs<StagedDomain>(Configs, Opt)
                 : (TableIsDis ? runConfigs<DisIntervalDomain>(Configs, Opt)
                               : runConfigs<OctagonDomain>(Configs, Opt)));

  // Scatter series (Fig. 10's four per-configuration plots).
  for (const ConfigResult &R : Results) {
    size_t Stride = std::max<size_t>(1, R.AllSamples.size() / Opt.ScatterPoints);
    for (size_t I = 0; I < R.AllSamples.size(); I += Stride) {
      const Sample &S = R.AllSamples[I];
      std::printf("SCATTER %s %u %zu %.3f\n", configName(R.C), S.EditIndex,
                  S.ProgramEdges, S.Ms);
    }
  }
  std::printf("\n");

  // Cumulative distribution (Fig. 10's CDF plot).
  for (const ConfigResult &R : Results) {
    std::vector<double> Sorted;
    Sorted.reserve(R.AllSamples.size());
    for (const Sample &S : R.AllSamples)
      Sorted.push_back(S.Ms);
    std::sort(Sorted.begin(), Sorted.end());
    for (double Frac : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
                        0.99, 1.0})
      std::printf("CDF %s %.3f %.2f\n", configName(R.C),
                  percentile(Sorted, Frac * 100), Frac);
  }
  std::printf("\n");

  // Summary table (Fig. 10's table: mean / p50 / p90 / p95 / p99, in ms).
  std::printf("%-14s %10s %10s %10s %10s %10s\n", "Config", "mean", "p50",
              "p90", "p95", "p99");
  double IddP95 = 0, BestOtherP95 = -1;
  for (const ConfigResult &R : Results) {
    std::vector<double> Sorted;
    double Sum = 0;
    for (const Sample &S : R.AllSamples) {
      Sorted.push_back(S.Ms);
      Sum += S.Ms;
    }
    std::sort(Sorted.begin(), Sorted.end());
    double Mean = Sorted.empty() ? 0 : Sum / static_cast<double>(Sorted.size());
    double P95 = percentile(Sorted, 95);
    std::printf("%-14s %9.2f %9.2f %9.2f %9.2f %9.2f\n", configName(R.C),
                Mean, percentile(Sorted, 50), percentile(Sorted, 90), P95,
                percentile(Sorted, 99));
    if (R.C == Config::IncrementalAndDemand)
      IddP95 = P95;
    else if (BestOtherP95 < 0 || P95 < BestOtherP95)
      BestOtherP95 = P95;
  }
  if (BestOtherP95 > 0 && IddP95 > 0)
    std::printf("\n# I&DD p95 advantage over next-best configuration: %.1fx "
                "(paper reports >5x)\n",
                BestOtherP95 / IddP95);

  if (Opt.JsonPath.empty())
    return 0;

  // Per-size sweep of the incr+demand configuration, per domain: the perf
  // trajectory that future PRs regress against, with the closure mix
  // explaining it. The identical seeded workload runs through both domains,
  // so the counters are directly comparable per size.
  std::vector<SweepResult> Sweep;
  const bool WantOctagon = Opt.Domain == DomainChoice::Octagon ||
                           Opt.Domain == DomainChoice::Both;
  const bool WantZone =
      Opt.Domain == DomainChoice::Zone || Opt.Domain == DomainChoice::Both;
  const bool WantStaged = Opt.Domain == DomainChoice::Staged ||
                          Opt.Domain == DomainChoice::Both;
  const bool WantDis = Opt.Domain == DomainChoice::DisInterval ||
                       Opt.Domain == DomainChoice::Both;
  const bool WantArrInterval = Opt.Domain == DomainChoice::ArrInterval ||
                               Opt.Domain == DomainChoice::Both;
  const bool WantArrZone =
      Opt.Domain == DomainChoice::ArrZone || Opt.Domain == DomainChoice::Both;
  for (unsigned V : Opt.SweepSizes) {
    if (WantOctagon) {
      Sweep.push_back(runSweepPoint<OctagonDomain>(Opt, V));
      std::fprintf(stderr, "sweep octagon vars=%u done (%.1f ms)\n", V,
                   Sweep.back().WallMs);
    }
    if (WantZone) {
      Sweep.push_back(runSweepPoint<ZoneDomain>(Opt, V));
      std::fprintf(stderr, "sweep zone vars=%u done (%.1f ms)\n", V,
                   Sweep.back().WallMs);
    }
    if (WantStaged) {
      Sweep.push_back(runStagedSweepPoint(Opt, V));
      std::fprintf(stderr,
                   "sweep staged vars=%u done (%.1f ms + %.1f ms sum phase, "
                   "%llu mismatches)\n",
                   V, Sweep.back().WallMs, Sweep.back().SumQueryMs,
                   static_cast<unsigned long long>(Sweep.back().SumMismatches));
    }
  }

  // Registry-era rows run AFTER the historical sweep loop: every
  // pre-registry counter window above has closed, so the octagon / zone /
  // staged gate counters stay bit-identical to baselines that predate the
  // domain registry.
  if (WantDis) {
    for (unsigned V : Opt.SweepSizes) {
      Sweep.push_back(runSweepPoint<DisIntervalDomain>(Opt, V));
      std::fprintf(stderr, "sweep dis_interval vars=%u done (%.1f ms)\n", V,
                   Sweep.back().WallMs);
    }
  }
  std::vector<ArrayRow> ArrayRows;
  if (WantArrInterval) {
    ArrayRows.push_back(runArrayCorpusRow<ArraySmashDomain<IntervalDomain>>());
    std::fprintf(stderr, "corpus %s done (%.1f ms, %u programs)\n",
                 ArrayRows.back().Domain, ArrayRows.back().WallMs,
                 ArrayRows.back().Programs);
  }
  if (WantArrZone) {
    ArrayRows.push_back(runArrayCorpusRow<ArraySmashDomain<ZoneDomain>>());
    std::fprintf(stderr, "corpus %s done (%.1f ms, %u programs)\n",
                 ArrayRows.back().Domain, ArrayRows.back().WallMs,
                 ArrayRows.back().Programs);
  }

  // Erasure A/B (zone vs AnyDomain-bound-zone) at the largest sweep size;
  // runs under --domain zone or the default both.
  ErasureAB AB;
  if (Opt.Domain == DomainChoice::Zone || Opt.Domain == DomainChoice::Both)
    AB = runErasureAB(Opt);
  bool ErasureOk = true;
  if (AB.Ran) {
    std::printf("\n# erasure A/B (zone, vars=%u): direct %.1f ms vs erased "
                "%.1f ms (%+.1f%% overhead), counter mismatches %llu\n",
                AB.Vars, AB.DirectWallMs, AB.ErasedWallMs, AB.OverheadPct,
                static_cast<unsigned long long>(AB.CounterMismatches));
    if (AB.CounterMismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: erased zone counter deltas diverged from the "
                   "direct ZoneDomain run — erasure must be semantics-free\n");
      ErasureOk = false;
    }
  }

  FILE *F = std::fopen(Opt.JsonPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Opt.JsonPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"bench\": \"fig10_octagon_workload\",\n");
  std::fprintf(F,
               "  \"edits\": %u,\n  \"trials\": %u,\n  \"queries\": %u,\n"
               "  \"seed\": %llu,\n",
               Opt.Edits, Opt.Trials, Opt.Queries,
               static_cast<unsigned long long>(Opt.Seed));
  std::fprintf(F, "  \"configs\": [\n");
  for (size_t RI = 0; RI < Results.size(); ++RI) {
    const ConfigResult &R = Results[RI];
    std::vector<double> Sorted;
    double Sum = 0;
    for (const Sample &S : R.AllSamples) {
      Sorted.push_back(S.Ms);
      Sum += S.Ms;
    }
    std::sort(Sorted.begin(), Sorted.end());
    double Mean = Sorted.empty() ? 0 : Sum / static_cast<double>(Sorted.size());
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
                 "\"p90_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                 configName(R.C), Mean, percentile(Sorted, 50),
                 percentile(Sorted, 90), percentile(Sorted, 95),
                 percentile(Sorted, 99),
                 RI + 1 < Results.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n");
  // Tracing overhead audit: the default bench runs UN-traced, so the gate
  // zero-asserts both dai_trace_* fields — a nonzero value means a hook
  // recorded (or dropped) events on the measured counter paths.
  MetricsRegistry TraceReg;
  exportTraceStats(TraceReg);
  std::fprintf(F, "  \"trace\": %s,\n", TraceReg.toJson().c_str());
  // The measured cost of type erasure: same workload, direct template vs
  // AnyDomain dispatch. Field names avoid the bare "wall_ms"/zone_* keys so
  // the per-size gate scans never pick this object up.
  if (AB.Ran)
    std::fprintf(F,
                 "  \"erasure_ab\": {\"domain\": \"zone\", \"vars\": %u, "
                 "\"direct_wall_ms\": %.3f, \"erased_wall_ms\": %.3f, "
                 "\"erasure_overhead_pct\": %.2f, "
                 "\"erasure_counter_mismatches\": %llu},\n",
                 AB.Vars, AB.DirectWallMs, AB.ErasedWallMs, AB.OverheadPct,
                 static_cast<unsigned long long>(AB.CounterMismatches));
  std::fprintf(F, "  \"sizes\": [\n");
  for (size_t SI = 0; SI < Sweep.size(); ++SI) {
    const SweepResult &S = Sweep[SI];
    const char *Sep =
        SI + 1 < Sweep.size() || !ArrayRows.empty() ? "," : "";
    if (std::strcmp(S.Domain, "dis_interval") == 0) {
      // dis_interval rows carry ONLY dis_interval_-prefixed counters (plus
      // the shared vars/wall_ms/analysis_ms shape the gate script keys on);
      // dis_interval_partitions_collapsed is the gated family.
      std::fprintf(
          F,
          "    {\"domain\": \"dis_interval\", \"vars\": %u, "
          "\"wall_ms\": %.3f, \"analysis_ms\": %.3f, "
          "\"dis_interval_max_partitions\": %u, "
          "\"dis_interval_partitions_collapsed\": %llu, "
          "\"dis_interval_partition_splits\": %llu, "
          "\"dis_interval_disjunctive_joins\": %llu}%s\n",
          S.Vars, S.WallMs, S.AnalysisMs, disIntervalMaxPartitions(),
          static_cast<unsigned long long>(S.DisInt.PartitionsCollapsed),
          static_cast<unsigned long long>(S.DisInt.PartitionSplits),
          static_cast<unsigned long long>(S.DisInt.DisjunctiveJoins), Sep);
      continue;
    }
    if (std::strcmp(S.Domain, "staged") == 0) {
      // Staged rows carry ONLY staged_-prefixed counter fields so the gate
      // script's per-field largest-size scan never conflates them with the
      // octagon/zone rows at the same sweep size.
      std::fprintf(
          F,
          "    {\"domain\": \"staged\", \"vars\": %u, \"wall_ms\": %.3f, "
          "\"analysis_ms\": %.3f, \"staged_escalations\": %llu, "
          "\"staged_oct_seeds\": %llu, \"staged_escalated_transfers\": %llu, "
          "\"staged_zone_transfers\": %llu, \"staged_sum_queries\": %llu, "
          "\"staged_sum_query_ms\": %.3f, \"staged_sum_mismatches\": %llu, "
          "\"staged_sum_tighter\": %llu, \"staged_escalated_locations\": "
          "%llu, \"staged_budget_exhaustions\": %llu, "
          "\"staged_degraded_cells\": %llu, "
          "\"staged_cancellations_honored\": %llu}%s\n",
          S.Vars, S.WallMs, S.AnalysisMs,
          static_cast<unsigned long long>(S.Staged.Escalations),
          static_cast<unsigned long long>(S.Staged.OctSeeds),
          static_cast<unsigned long long>(S.Staged.EscalatedTransfers),
          static_cast<unsigned long long>(S.Staged.ZoneTransfers),
          static_cast<unsigned long long>(S.SumQueries), S.SumQueryMs,
          static_cast<unsigned long long>(S.SumMismatches),
          static_cast<unsigned long long>(S.SumTighter),
          static_cast<unsigned long long>(S.EscalatedLocs),
          static_cast<unsigned long long>(S.Staged.BudgetExhaustions),
          static_cast<unsigned long long>(S.Staged.DegradedCells),
          static_cast<unsigned long long>(S.Staged.CancellationsHonored),
          Sep);
      continue;
    }
    if (std::strcmp(S.Domain, "zone") == 0) {
      // Sparse-graph counters: closure_vertices_visited is the zone's
      // deterministic gate metric (the analogue of dbm_cells_touched).
      std::fprintf(
          F,
          "    {\"domain\": \"zone\", \"vars\": %u, \"wall_ms\": %.3f, "
          "\"analysis_ms\": %.3f, \"zone_full_closes\": %llu, "
          "\"zone_incremental_closes\": %llu, \"zone_closes_skipped\": %llu, "
          "\"zone_cached_closes\": %llu, \"zone_edges_stored\": %llu, "
          "\"zone_potential_repairs\": %llu, "
          "\"zone_closure_vertices_visited\": %llu, "
          "\"zone_budget_exhaustions\": %llu, "
          "\"zone_degraded_cells\": %llu, "
          "\"zone_cancellations_honored\": %llu, "
          "\"names_interned\": %llu, \"intern_hits\": %llu, "
          "\"name_table_bytes\": %llu}%s\n",
          S.Vars, S.WallMs, S.AnalysisMs,
          static_cast<unsigned long long>(S.Zone.FullCloses),
          static_cast<unsigned long long>(S.Zone.IncrementalCloses),
          static_cast<unsigned long long>(S.Zone.ClosesSkipped),
          static_cast<unsigned long long>(S.Zone.CachedCloses),
          static_cast<unsigned long long>(S.Zone.EdgesStored),
          static_cast<unsigned long long>(S.Zone.PotentialRepairs),
          static_cast<unsigned long long>(S.Zone.ClosureVerticesVisited),
          static_cast<unsigned long long>(S.Zone.BudgetExhaustions),
          static_cast<unsigned long long>(S.Zone.DegradedCells),
          static_cast<unsigned long long>(S.Zone.CancellationsHonored),
          static_cast<unsigned long long>(S.Names.NamesInterned),
          static_cast<unsigned long long>(S.Names.InternHits),
          static_cast<unsigned long long>(S.Names.NameTableBytes), Sep);
      continue;
    }
    // Octagon entries keep the historical field set (and no "domain" tag
    // changes their shape) so older tooling keyed on dbm_cells_touched
    // still parses them.
    std::fprintf(
        F,
        "    {\"domain\": \"octagon\", \"vars\": %u, \"wall_ms\": %.3f, "
        "\"analysis_ms\": %.3f, "
        "\"full_closes\": %llu, \"incremental_closes\": %llu, "
        "\"closes_skipped\": %llu, \"cached_closes\": %llu, "
        "\"dbm_cells_touched\": %llu, \"dbm_cells_stored\": %llu, "
        "\"dbm_peak_bytes\": %llu, \"names_interned\": %llu, "
        "\"intern_hits\": %llu, \"name_table_bytes\": %llu}%s\n",
        S.Vars, S.WallMs, S.AnalysisMs,
        static_cast<unsigned long long>(S.Closure.FullCloses),
        static_cast<unsigned long long>(S.Closure.IncrementalCloses),
        static_cast<unsigned long long>(S.Closure.ClosesSkipped),
        static_cast<unsigned long long>(S.Closure.CachedCloses),
        static_cast<unsigned long long>(S.Closure.CellsTouched),
        static_cast<unsigned long long>(S.Closure.CellsStored),
        static_cast<unsigned long long>(S.Closure.PeakDbmBytes),
        static_cast<unsigned long long>(S.Names.NamesInterned),
        static_cast<unsigned long long>(S.Names.InternHits),
        static_cast<unsigned long long>(S.Names.NameTableBytes), Sep);
  }
  // Array-smashing corpus rows (registry-reported domain names). Verdict
  // tallies carry the domain-name prefix so neither the checker-bench gate
  // (unprefixed checks_* fields) nor the per-size scans above match them;
  // "programs" replaces "vars" — the row is a corpus, not a sweep size.
  for (size_t AI = 0; AI < ArrayRows.size(); ++AI) {
    const ArrayRow &A = ArrayRows[AI];
    const char *P = A.Domain;
    std::fprintf(
        F,
        "    {\"domain\": \"%s\", \"programs\": %u, \"wall_ms\": %.3f, "
        "\"%s_checks_evaluated\": %llu, \"%s_safe\": %llu, "
        "\"%s_warning\": %llu, \"%s_error\": %llu, "
        "\"%s_unreachable\": %llu, \"%s_unsafe_expected\": %u, "
        "\"%s_unsafe_flagged\": %u}%s\n",
        P, A.Programs, A.WallMs, P,
        static_cast<unsigned long long>(A.Checks), P,
        static_cast<unsigned long long>(A.Safe), P,
        static_cast<unsigned long long>(A.Warning), P,
        static_cast<unsigned long long>(A.Error), P,
        static_cast<unsigned long long>(A.Unreachable), P, A.UnsafeExpected,
        P, A.UnsafeFlagged, AI + 1 < ArrayRows.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::fprintf(stderr, "wrote %s\n", Opt.JsonPath.c_str());
  return ErasureOk ? 0 : 1;
}

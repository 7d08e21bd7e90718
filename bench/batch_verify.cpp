//===-- bench/batch_verify.cpp - Checker throughput & incremental bench ---===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker subsystem's bench (analysis/checker.h, analysis/checks_db.h),
/// in two phases:
///
///  1. **Batch throughput** — verifies the whole bench/corpus program set
///     (2-call-site interval engine, every instance of every function) and
///     reports programs/sec plus aggregate verdict counts: the ebpf-verifier
///     style "how fast does CI chew the corpus" number.
///
///  1b. **Parallel corpus throughput** (`--threads N,N,...`) — the same
///     corpus verified as independent (program, round) tasks on a
///     work-stealing TaskPool per thread count, every task's verdict set
///     cross-checked against the serial reference (the
///     `parallel_result_mismatches` JSON field must stay 0; the gate
///     script hard-fails otherwise). `speedup` is relative to this phase's
///     own threads=1 row; `hardware_threads` records how many cores the
///     measurement actually had — on a single-core runner every speedup is
///     necessarily ~1x and the column is only a scheduling-overhead check.
///
///  2. **Incremental re-checking** — the DAIG-native claim: on the Section
///     7.3 edit workload (asserts enabled), after every edit the
///     IncrementalChecker re-verifies the whole assertion set, and the
///     deterministic ChecksRechecked counter proves the re-evaluated slice
///     stays small (< 25% of obligations per edit, averaged) while the
///     verdicts stay bit-identical to a from-scratch batch re-verification
///     (a fresh DAIG over the same program) after EVERY edit.
///
/// JSON rows go to BENCH_verify.json (one row per line — the regression
/// gate parses line-wise, see scripts/check_bench_regression.sh args 4/5):
/// `checks_rechecked` is the gated counter, `verdict_mismatches` must be 0.
///
/// Registry-era rows (PR 10, `--domain dis_interval|arr_interval|arr_zone`,
/// all emitted by the default `--domain all`) ride the same phases:
/// dis_interval re-runs the phase-2 incremental re-check sweep over the
/// disjunctive interval domain (counter fields dis_interval_-prefixed so
/// the checks_rechecked gate only ever reads the interval rows), and the
/// arr_* rows verify the corpus under the array-smashing functor over the
/// named base domain, cross-checking two independent verification passes
/// for determinism. Every row keeps `verdict_mismatches` UNPREFIXED — the
/// gate's baseline-independent zero-assert sums the field across the whole
/// file, so the new rows are covered by the existing check.
///
/// Exit status: nonzero on any verdict mismatch or on an average re-check
/// fraction >= 25% — the bench is itself the acceptance test.
///
//===----------------------------------------------------------------------===//

#include "analysis/checker.h"
#include "analysis/checks_db.h"
#include "bench/flags.h"
#include "bench/corpus/array_programs.h"
#include "cfg/lowering.h"
#include "daig/daig.h"
#include "domain/array_smash.h"
#include "domain/dis_interval.h"
#include "domain/interval.h"
#include "domain/zone.h"
#include "interproc/engine.h"
#include "support/observe.h"
#include "support/task_pool.h"
#include "workload/generator.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

using namespace dai;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Which "sizes" row families to emit. Phases 1/1b (interval corpus
/// throughput + parallel cross-check) always run — their JSON objects are
/// the historical shape older baselines gate on.
enum class DomainChoice {
  Interval,    ///< Phase-2 incremental re-check rows only.
  DisInterval, ///< Phase-2 rows over the disjunctive interval domain.
  ArrInterval, ///< Corpus verification under array-smashed intervals.
  ArrZone,     ///< Corpus verification under array-smashed zones.
  All,         ///< Every row family (the committed-baseline default).
};

struct Options {
  unsigned Edits = 250;
  uint64_t Seed = 42;
  unsigned Vars = 12; // unused placeholder kept for flag parity
  unsigned Repeats = 3;
  unsigned PctAssert = 12;
  DomainChoice Domain = DomainChoice::All;
  std::vector<unsigned> SweepSizes = {8, 16, 32, 48};
  std::vector<unsigned> Threads = {1, 2, 4};
  unsigned ParallelRounds = 8; ///< Corpus sweeps per parallel measurement.
  std::string JsonPath = "BENCH_verify.json";
  bool WriteJson = true;
};

//===----------------------------------------------------------------------===//
// Verdict flattening (shared by the incremental comparison of phase 2 and
// the serial-vs-parallel cross-check of phase 1b)
//===----------------------------------------------------------------------===//

/// Flattens a ChecksDb into (edge, sub-index) → (kind, verdict) for exact
/// comparison between two verification passes.
using FlatVerdicts =
    std::map<std::pair<EdgeId, uint32_t>, std::pair<CheckKind, Verdict>>;

FlatVerdicts flatten(const ChecksDb &Db) {
  FlatVerdicts Out;
  for (Loc L : Db.locations())
    for (const CheckResult &R : Db.at(L))
      Out[{R.Edge, R.SubIndex}] = {R.Kind, R.V};
  return Out;
}

uint64_t countFlatMismatches(const FlatVerdicts &FA, const FlatVerdicts &FB) {
  uint64_t Bad = 0;
  for (const auto &[K, V] : FA) {
    auto It = FB.find(K);
    if (It == FB.end() || It->second != V)
      ++Bad;
  }
  for (const auto &[K, V] : FB) {
    (void)V;
    if (!FA.count(K))
      ++Bad;
  }
  return Bad;
}

uint64_t countMismatches(const ChecksDb &A, const ChecksDb &B) {
  return countFlatMismatches(flatten(A), flatten(B));
}

//===----------------------------------------------------------------------===//
// Phase 1: corpus batch throughput
//===----------------------------------------------------------------------===//

// The corpus programs carry array manipulation, so the meaningful battery is
// assertions + div-by-zero + bounds; the overflow battery would only add a
// constant-rate WARNING stream to every arithmetic node.
constexpr uint32_t kCorpusMask = checkMask(CheckKind::UserAssertion) |
                                 checkMask(CheckKind::DivByZero) |
                                 checkMask(CheckKind::ArrayBounds);

struct CorpusResult {
  unsigned Programs = 0;
  double BestWallMs = 0; ///< Fastest of Repeats sweeps.
  double ProgramsPerSec = 0;
  VerdictCounts Counts;          ///< From the first sweep (deterministic).
  uint64_t ChecksEvaluated = 0;  ///< Likewise.
};

/// One full verification sweep over the corpus with domain \p D. Returns
/// per-sweep verdict tallies; obligations are evaluated once per analyzed
/// (function, context) instance containing them, like the Section 7.2
/// study. Phase 1 instantiates this with IntervalDomain (the historical
/// throughput row); the registry-era arr_* rows re-run it under the
/// array-smashing functor domains.
template <typename D>
VerdictCounts sweepCorpus(Statistics &Stats, unsigned &ProgramsOut) {
  VerdictCounts Counts;
  ProgramsOut = 0;
  for (int I = 0; I < corpus::NumArrayPrograms; ++I) {
    const auto &Prog = corpus::ArrayPrograms[I];
    LowerResult LR = frontend(Prog.Source);
    if (!LR.ok()) {
      std::fprintf(stderr, "corpus program %s failed to lower: %s\n",
                   Prog.Name, LR.Error.c_str());
      continue;
    }
    InterprocEngine<D> Engine(std::move(LR.Prog), "main",
                              /*K=*/2);
    if (!Engine.valid()) {
      std::fprintf(stderr, "%s: %s\n", Prog.Name, Engine.error().c_str());
      continue;
    }
    Engine.analyzeAllFromMain();
    ++ProgramsOut;

    // Obligation inventory per function, collected once.
    std::map<SymbolId, std::vector<Obligation>> ObsByFn;
    for (const auto &[FnName, F] : Engine.program().Functions)
      ObsByFn[internSymbol(FnName)] = collectObligations(F.Body, kCorpusMask);

    ChecksDb Db;
    Engine.forEachInstance([&](const auto &Key, Daig<D> &G) {
      const auto &Obs = ObsByFn[Key.Fn];
      if (Obs.empty())
        return;
      Counts += runChecks<D>(
          Obs, [&](Loc L) { return G.queryLocation(L); },
          [&](Loc L) { return G.locationDegraded(L); }, Db, &Stats);
    });
  }
  return Counts;
}

CorpusResult runCorpus(const Options &Opt) {
  CorpusResult R;
  for (unsigned Rep = 0; Rep < Opt.Repeats; ++Rep) {
    Statistics Stats;
    unsigned Programs = 0;
    Clock::time_point T0 = Clock::now();
    VerdictCounts Counts = sweepCorpus<IntervalDomain>(Stats, Programs);
    double Ms = msSince(T0);
    if (Rep == 0) {
      R.Counts = Counts;
      R.ChecksEvaluated = Stats.ChecksEvaluated;
      R.Programs = Programs;
      R.BestWallMs = Ms;
    } else if (Ms < R.BestWallMs) {
      R.BestWallMs = Ms;
    }
  }
  R.ProgramsPerSec =
      R.BestWallMs > 0 ? 1000.0 * R.Programs / R.BestWallMs : 0.0;
  return R;
}

//===----------------------------------------------------------------------===//
// Phase 1b: parallel corpus throughput (--threads)
//===----------------------------------------------------------------------===//

/// Lowers, analyzes, and verifies corpus program \p I with entirely private
/// state (engine, Statistics, ChecksDb) — the unit of parallel work (phase
/// 1b instantiates IntervalDomain) and of the arr_* rows' determinism
/// cross-check. Returns the flattened verdict set (empty on lowering
/// failure, which the serial phase already reported).
template <typename D> FlatVerdicts verifyOneProgram(int I) {
  const auto &Prog = corpus::ArrayPrograms[I];
  LowerResult LR = frontend(Prog.Source);
  if (!LR.ok())
    return {};
  InterprocEngine<D> Engine(std::move(LR.Prog), "main", /*K=*/2);
  if (!Engine.valid())
    return {};
  Engine.analyzeAllFromMain();
  std::map<SymbolId, std::vector<Obligation>> ObsByFn;
  for (const auto &[FnName, F] : Engine.program().Functions)
    ObsByFn[internSymbol(FnName)] = collectObligations(F.Body, kCorpusMask);
  ChecksDb Db;
  Statistics Stats;
  Engine.forEachInstance([&](const auto &Key, Daig<D> &G) {
    const auto &Obs = ObsByFn[Key.Fn];
    if (Obs.empty())
      return;
    runChecks<D>(
        Obs, [&](Loc L) { return G.queryLocation(L); },
        [&](Loc L) { return G.locationDegraded(L); }, Db, &Stats);
  });
  return flatten(Db);
}

struct ParallelResult {
  unsigned Threads = 0;
  double WallMs = 0;
  double ProgramsPerSec = 0;
  double Speedup = 1.0; ///< vs. the threads=1 row of this same phase.
  uint64_t Mismatches = 0; ///< Parallel verdicts differing from serial.
};

/// The parallel corpus phase: Rounds × NumArrayPrograms independent
/// verification tasks on a work-stealing pool per thread count, every
/// task's verdict set cross-checked against the serial reference. The
/// serial reference runs FIRST, so the measured runs see a fully interned
/// name/symbol vocabulary.
std::vector<ParallelResult> runParallelCorpus(const Options &Opt) {
  std::vector<FlatVerdicts> Ref(corpus::NumArrayPrograms);
  for (int I = 0; I < corpus::NumArrayPrograms; ++I)
    Ref[I] = verifyOneProgram<IntervalDomain>(I);

  std::vector<ParallelResult> Out;
  double BaseMs = 0;
  for (unsigned T : Opt.Threads) {
    TaskPool Pool(T);
    std::atomic<uint64_t> Mismatches{0};
    std::vector<TaskPool::Task> Tasks;
    Tasks.reserve(static_cast<size_t>(Opt.ParallelRounds) *
                  corpus::NumArrayPrograms);
    for (unsigned R = 0; R < Opt.ParallelRounds; ++R)
      for (int I = 0; I < corpus::NumArrayPrograms; ++I)
        Tasks.push_back([I, &Ref, &Mismatches] {
          uint64_t Bad = countFlatMismatches(verifyOneProgram<IntervalDomain>(I),
                                             Ref[I]);
          if (Bad)
            Mismatches.fetch_add(Bad, std::memory_order_relaxed);
        });
    size_t NumTasks = Tasks.size();
    Clock::time_point T0 = Clock::now();
    Pool.run(std::move(Tasks));
    double Ms = msSince(T0);

    ParallelResult P;
    P.Threads = T;
    P.WallMs = Ms;
    P.ProgramsPerSec =
        Ms > 0 ? 1000.0 * static_cast<double>(NumTasks) / Ms : 0.0;
    P.Mismatches = Mismatches.load();
    // Speedup is relative to this phase's threads=1 row (or the first row
    // when 1 is not in the list).
    if (BaseMs == 0 || T == 1)
      BaseMs = Ms;
    P.Speedup = P.WallMs > 0 ? BaseMs / P.WallMs : 0.0;
    Out.push_back(P);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Phase 2: incremental re-checking sweep
//===----------------------------------------------------------------------===//

struct SweepResult {
  const char *Domain = "interval";
  unsigned Vars = 0;
  double WallMs = 0; ///< Edit + incremental-recheck loop only (the batch
                     ///< comparison runs outside the timed region).
  uint64_t ChecksEvaluated = 0;
  uint64_t ChecksRechecked = 0;
  uint64_t ChecksTotal = 0; ///< Cumulative obligations over all re-passes.
  uint64_t AlarmsRaised = 0;
  uint64_t VerdictMismatches = 0;
  double AvgRecheckPct = 0;
  double MaxRecheckPct = 0;
};

/// The phase-2 edit/re-check loop over domain \p D. The incremental
/// checker and its DAIG dirtying are domain-generic, so the re-check
/// fraction claim (< 25%) and the incremental-vs-batch bit-identity hold
/// for every registered domain — the dis_interval rows prove it for a
/// disjunctive (non-convex) domain.
template <typename D> SweepResult runSweep(const Options &Opt, unsigned Vars) {
  SweepResult R;
  R.Domain = D::name();
  R.Vars = Vars;

  WorkloadOptions WOpts;
  WOpts.Seed = Opt.Seed;
  WOpts.NumVars = Vars;
  WOpts.PctAssertStmt = Opt.PctAssert;
  WorkloadGenerator Gen(WOpts);
  Program P = Gen.makeInitialProgram();
  Function *Main = P.find("main");

  Statistics Stats;
  Daig<D> G(&Main->Body, D::initialEntry(Main->Params), &Stats);
  IncrementalChecker<D> Checker(G, Main->Body, &Stats);
  Checker.recheck(); // initial full pass (not counted as re-checking)

  double SumPct = 0;
  unsigned PctSamples = 0;
  double WallMs = 0;

  for (unsigned E = 0; E < Opt.Edits; ++E) {
    EditRecord Rec = Gen.applyRandomEdit(P);
    uint64_t Before = Stats.ChecksRechecked;

    Clock::time_point T0 = Clock::now();
    if (Rec.Kind == EditKind::InsertStmt)
      G.applyInsertedStatement(Rec.At, Rec.Splice); // falls back internally
    else
      G.rebuild();
    VerdictCounts Counts = Checker.recheck();
    WallMs += msSince(T0);

    uint64_t Rechecked = Stats.ChecksRechecked - Before;
    uint64_t Total = Counts.total();
    R.ChecksTotal += Total;
    if (Total > 0) {
      double Pct = 100.0 * static_cast<double>(Rechecked) /
                   static_cast<double>(Total);
      SumPct += Pct;
      ++PctSamples;
      if (Pct > R.MaxRecheckPct)
        R.MaxRecheckPct = Pct;
    }

    // Batch re-verification from scratch: a fresh DAIG over the same
    // program must produce the identical verdict set.
    Statistics BatchStats;
    Daig<D> Fresh(&Main->Body, D::initialEntry(Main->Params), &BatchStats);
    ChecksDb BatchDb;
    std::vector<Obligation> Obs = collectObligations(Main->Body);
    runChecks<D>(
        Obs, [&](Loc L) { return Fresh.queryLocation(L); },
        [&](Loc L) { return Fresh.locationDegraded(L); }, BatchDb,
        &BatchStats);
    R.VerdictMismatches += countMismatches(Checker.db(), BatchDb);
  }

  R.WallMs = WallMs;
  R.ChecksEvaluated = Stats.ChecksEvaluated;
  R.ChecksRechecked = Stats.ChecksRechecked;
  R.AlarmsRaised = Stats.AlarmsRaised;
  R.AvgRecheckPct = PctSamples ? SumPct / PctSamples : 0.0;
  return R;
}

//===----------------------------------------------------------------------===//
// Registry-era arr_* rows: corpus verification under the smashing functor
//===----------------------------------------------------------------------===//

/// One corpus-verification row for an array-smashing functor domain
/// (domain/array_smash.h): the full corpus sweep for verdict tallies, then
/// two fully independent verification passes per program cross-checked
/// verdict-by-verdict — the determinism analogue of phase 2's
/// incremental-vs-batch comparison, reported in the same unprefixed
/// `verdict_mismatches` field the gate zero-asserts.
struct ArrRow {
  const char *Domain = "";
  unsigned Programs = 0;
  double WallMs = 0;
  uint64_t ChecksEvaluated = 0;
  VerdictCounts Counts;
  uint64_t VerdictMismatches = 0;
};

template <typename D> ArrRow runArrCorpusRow() {
  ArrRow R;
  R.Domain = D::name();
  Statistics Stats;
  Clock::time_point T0 = Clock::now();
  R.Counts = sweepCorpus<D>(Stats, R.Programs);
  R.WallMs = msSince(T0);
  R.ChecksEvaluated = Stats.ChecksEvaluated;
  for (int I = 0; I < corpus::NumArrayPrograms; ++I)
    R.VerdictMismatches +=
        countFlatMismatches(verifyOneProgram<D>(I), verifyOneProgram<D>(I));
  return R;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void writeJson(const Options &Opt, const CorpusResult &C,
               const std::vector<ParallelResult> &Parallel,
               const std::vector<SweepResult> &Sweeps,
               const std::vector<ArrRow> &ArrRows) {
  std::ofstream OS(Opt.JsonPath);
  if (!OS) {
    std::fprintf(stderr, "cannot write %s\n", Opt.JsonPath.c_str());
    return;
  }
  OS << "{\n";
  OS << "  \"bench\": \"batch_verify\",\n";
  OS << "  \"edits\": " << Opt.Edits << ",\n";
  OS << "  \"seed\": " << Opt.Seed << ",\n";
  OS << "  \"pct_assert\": " << Opt.PctAssert << ",\n";
  OS << "  \"corpus\": {\"programs\": " << C.Programs
     << ", \"programs_per_sec\": " << C.ProgramsPerSec
     << ", \"corpus_wall_ms\": " << C.BestWallMs
     << ", \"checks\": " << C.ChecksEvaluated
     << ", \"safe\": " << C.Counts.Safe
     << ", \"warning\": " << C.Counts.Warning
     << ", \"error\": " << C.Counts.Error
     << ", \"unreachable\": " << C.Counts.Unreachable << "},\n";
  OS << "  \"hardware_threads\": " << TaskPool::hardwareParallelism()
     << ",\n";
  // Tracing overhead audit: the gate zero-asserts both dai_trace_* fields
  // on this un-traced default run (see scripts/check_bench_regression.sh).
  MetricsRegistry TraceReg;
  exportTraceStats(TraceReg);
  OS << "  \"trace\": " << TraceReg.toJson() << ",\n";
  OS << "  \"parallel\": [\n";
  for (size_t I = 0; I < Parallel.size(); ++I) {
    const ParallelResult &P = Parallel[I];
    OS << "    {\"phase\": \"corpus\", \"threads\": " << P.Threads
       << ", \"wall_ms\": " << P.WallMs
       << ", \"programs_per_sec\": " << P.ProgramsPerSec
       << ", \"speedup\": " << P.Speedup
       << ", \"parallel_result_mismatches\": " << P.Mismatches << "}"
       << (I + 1 < Parallel.size() ? "," : "") << "\n";
  }
  OS << "  ],\n";
  OS << "  \"sizes\": [\n";
  for (size_t I = 0; I < Sweeps.size(); ++I) {
    const SweepResult &S = Sweeps[I];
    const char *Sep =
        I + 1 < Sweeps.size() || !ArrRows.empty() ? "," : "";
    if (std::strcmp(S.Domain, "interval") == 0) {
      // The historical row shape: unprefixed fields, gated by
      // checks_rechecked at the largest size.
      OS << "    {\"domain\": \"interval\", \"vars\": " << S.Vars
         << ", \"wall_ms\": " << S.WallMs
         << ", \"checks_evaluated\": " << S.ChecksEvaluated
         << ", \"checks_rechecked\": " << S.ChecksRechecked
         << ", \"checks_total\": " << S.ChecksTotal
         << ", \"alarms_raised\": " << S.AlarmsRaised
         << ", \"verdict_mismatches\": " << S.VerdictMismatches
         << ", \"avg_recheck_pct\": " << S.AvgRecheckPct
         << ", \"max_recheck_pct\": " << S.MaxRecheckPct << "}" << Sep
         << "\n";
      continue;
    }
    // Registry-era phase-2 rows: counter fields carry the registry name as
    // a prefix so the interval gate never reads them; verdict_mismatches
    // stays unprefixed on purpose (the gate's zero-assert sums it
    // file-wide).
    OS << "    {\"domain\": \"" << S.Domain << "\", \"vars\": " << S.Vars
       << ", \"wall_ms\": " << S.WallMs << ", \"" << S.Domain
       << "_checks_evaluated\": " << S.ChecksEvaluated << ", \"" << S.Domain
       << "_checks_rechecked\": " << S.ChecksRechecked << ", \"" << S.Domain
       << "_checks_total\": " << S.ChecksTotal << ", \"" << S.Domain
       << "_alarms_raised\": " << S.AlarmsRaised
       << ", \"verdict_mismatches\": " << S.VerdictMismatches << ", \""
       << S.Domain << "_avg_recheck_pct\": " << S.AvgRecheckPct << ", \""
       << S.Domain << "_max_recheck_pct\": " << S.MaxRecheckPct << "}" << Sep
       << "\n";
  }
  for (size_t I = 0; I < ArrRows.size(); ++I) {
    const ArrRow &A = ArrRows[I];
    OS << "    {\"domain\": \"" << A.Domain
       << "\", \"programs\": " << A.Programs << ", \"wall_ms\": " << A.WallMs
       << ", \"" << A.Domain << "_checks_evaluated\": " << A.ChecksEvaluated
       << ", \"" << A.Domain << "_safe\": " << A.Counts.Safe << ", \""
       << A.Domain << "_warning\": " << A.Counts.Warning << ", \"" << A.Domain
       << "_error\": " << A.Counts.Error << ", \"" << A.Domain
       << "_unreachable\": " << A.Counts.Unreachable
       << ", \"verdict_mismatches\": " << A.VerdictMismatches << "}"
       << (I + 1 < ArrRows.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
  std::printf("wrote %s\n", Opt.JsonPath.c_str());
}

/// Largest accepted --threads entry: a typo must not ask TaskPool for
/// thousands of workers.
constexpr unsigned kMaxThreads = 256;

void usage(const char *Argv0) {
  std::printf(
      "usage: %s [--edits N] [--seed S] [--repeats N] [--pct-assert N]\n"
      "          [--domain interval|dis_interval|arr_interval|arr_zone|all]\n"
      "          [--sizes N,N,...] [--threads N,N,...] [--rounds N]\n"
      "          [--json PATH] [--no-json]\n",
      Argv0);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    auto next = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s requires a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--edits")) {
      Opt.Edits = parseCount("--edits", next("--edits"), 1);
    } else if (!std::strcmp(Argv[I], "--seed")) {
      Opt.Seed = parseCount<uint64_t>("--seed", next("--seed"), 0);
    } else if (!std::strcmp(Argv[I], "--repeats")) {
      Opt.Repeats = parseCount("--repeats", next("--repeats"), 1);
    } else if (!std::strcmp(Argv[I], "--pct-assert")) {
      Opt.PctAssert = parseCount("--pct-assert", next("--pct-assert"), 0, 100);
    } else if (!std::strcmp(Argv[I], "--domain")) {
      const char *V = next("--domain");
      if (!std::strcmp(V, "interval"))
        Opt.Domain = DomainChoice::Interval;
      else if (!std::strcmp(V, "dis_interval"))
        Opt.Domain = DomainChoice::DisInterval;
      else if (!std::strcmp(V, "arr_interval"))
        Opt.Domain = DomainChoice::ArrInterval;
      else if (!std::strcmp(V, "arr_zone"))
        Opt.Domain = DomainChoice::ArrZone;
      else if (!std::strcmp(V, "all"))
        Opt.Domain = DomainChoice::All;
      else {
        std::fprintf(stderr, "--domain must be interval, dis_interval, "
                             "arr_interval, arr_zone, or all\n");
        return 2;
      }
    } else if (!std::strcmp(Argv[I], "--sizes")) {
      Opt.SweepSizes = parseCounts("--sizes", next("--sizes"), 1);
    } else if (!std::strcmp(Argv[I], "--threads")) {
      Opt.Threads = parseCounts("--threads", next("--threads"), 1, kMaxThreads);
    } else if (!std::strcmp(Argv[I], "--rounds")) {
      Opt.ParallelRounds = parseCount("--rounds", next("--rounds"), 1);
    } else if (!std::strcmp(Argv[I], "--json")) {
      Opt.JsonPath = next("--json");
    } else if (!std::strcmp(Argv[I], "--no-json")) {
      Opt.WriteJson = false;
    } else if (!std::strcmp(Argv[I], "--help")) {
      usage(Argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", Argv[I]);
      usage(Argv[0]);
      return 2;
    }
  }

  std::printf("# batch_verify: checker throughput + incremental re-check\n");

  // Phase 1: corpus throughput.
  CorpusResult C = runCorpus(Opt);
  std::printf("\n## corpus batch verification (interval, k=2, best of %u)\n",
              Opt.Repeats);
  std::printf("programs: %u  wall: %.1f ms  throughput: %.1f programs/sec\n",
              C.Programs, C.BestWallMs, C.ProgramsPerSec);
  std::printf("checks: %llu  safe: %llu  warning: %llu  error: %llu  "
              "unreachable: %llu\n",
              static_cast<unsigned long long>(C.ChecksEvaluated),
              static_cast<unsigned long long>(C.Counts.Safe),
              static_cast<unsigned long long>(C.Counts.Warning),
              static_cast<unsigned long long>(C.Counts.Error),
              static_cast<unsigned long long>(C.Counts.Unreachable));

  // Phase 1b: parallel corpus throughput. Each (program, round) is one
  // independent task on a work-stealing pool; verdicts are cross-checked
  // against the serial reference per task — mismatches fail the bench.
  std::vector<ParallelResult> Parallel = runParallelCorpus(Opt);
  std::printf("\n## parallel corpus verification (%u rounds x %u programs, "
              "hardware threads: %u)\n",
              Opt.ParallelRounds, C.Programs, TaskPool::hardwareParallelism());
  std::printf("%8s %10s %14s %9s %10s\n", "threads", "wall_ms",
              "programs/sec", "speedup", "mismatch");
  bool ParallelOk = true;
  for (const ParallelResult &P : Parallel) {
    std::printf("%8u %10.1f %14.1f %8.2fx %10llu\n", P.Threads, P.WallMs,
                P.ProgramsPerSec, P.Speedup,
                static_cast<unsigned long long>(P.Mismatches));
    if (P.Mismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu serial-vs-parallel verdict mismatches at "
                   "%u threads\n",
                   static_cast<unsigned long long>(P.Mismatches), P.Threads);
      ParallelOk = false;
    }
  }

  // Phase 2: incremental re-checking.
  std::printf("\n## incremental re-check sweep (%u edits, seed %llu, "
              "%u%% asserts)\n",
              Opt.Edits, static_cast<unsigned long long>(Opt.Seed),
              Opt.PctAssert);
  std::printf("%-13s %6s %10s %12s %12s %12s %10s %10s %10s\n", "domain",
              "vars", "wall_ms", "evaluated", "rechecked", "total", "avg_pct",
              "max_pct", "mismatch");
  std::vector<SweepResult> Sweeps;
  bool Ok = true;
  auto checkSweep = [&Ok](const SweepResult &S) {
    std::printf(
        "%-13s %6u %10.1f %12llu %12llu %12llu %9.2f%% %9.2f%% %10llu\n",
        S.Domain, S.Vars, S.WallMs,
        static_cast<unsigned long long>(S.ChecksEvaluated),
        static_cast<unsigned long long>(S.ChecksRechecked),
        static_cast<unsigned long long>(S.ChecksTotal), S.AvgRecheckPct,
        S.MaxRecheckPct, static_cast<unsigned long long>(S.VerdictMismatches));
    if (S.VerdictMismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu incremental-vs-batch verdict mismatches at "
                   "%u vars (%s)\n",
                   static_cast<unsigned long long>(S.VerdictMismatches),
                   S.Vars, S.Domain);
      Ok = false;
    }
    if (S.AvgRecheckPct >= 25.0) {
      std::fprintf(stderr,
                   "FAIL: average re-check fraction %.2f%% >= 25%% at %u "
                   "vars (%s)\n",
                   S.AvgRecheckPct, S.Vars, S.Domain);
      Ok = false;
    }
  };
  const bool WantInterval = Opt.Domain == DomainChoice::Interval ||
                            Opt.Domain == DomainChoice::All;
  const bool WantDis = Opt.Domain == DomainChoice::DisInterval ||
                       Opt.Domain == DomainChoice::All;
  const bool WantArrInterval = Opt.Domain == DomainChoice::ArrInterval ||
                               Opt.Domain == DomainChoice::All;
  const bool WantArrZone =
      Opt.Domain == DomainChoice::ArrZone || Opt.Domain == DomainChoice::All;
  if (WantInterval)
    for (unsigned Vars : Opt.SweepSizes) {
      Sweeps.push_back(runSweep<IntervalDomain>(Opt, Vars));
      checkSweep(Sweeps.back());
    }
  // Registry-era rows run AFTER the full interval sweep, so the historical
  // rows (and the checks_rechecked gate window) stay bit-identical to
  // pre-registry baselines.
  if (WantDis)
    for (unsigned Vars : Opt.SweepSizes) {
      Sweeps.push_back(runSweep<DisIntervalDomain>(Opt, Vars));
      checkSweep(Sweeps.back());
    }
  std::vector<ArrRow> ArrRows;
  auto checkArr = [&Ok](const ArrRow &A) {
    std::printf("%-13s corpus: %u programs, %.1f ms, checks %llu "
                "(safe %llu / warning %llu / error %llu / unreachable "
                "%llu), determinism mismatches %llu\n",
                A.Domain, A.Programs, A.WallMs,
                static_cast<unsigned long long>(A.ChecksEvaluated),
                static_cast<unsigned long long>(A.Counts.Safe),
                static_cast<unsigned long long>(A.Counts.Warning),
                static_cast<unsigned long long>(A.Counts.Error),
                static_cast<unsigned long long>(A.Counts.Unreachable),
                static_cast<unsigned long long>(A.VerdictMismatches));
    if (A.VerdictMismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu verdict mismatches between two independent "
                   "%s corpus verifications\n",
                   static_cast<unsigned long long>(A.VerdictMismatches),
                   A.Domain);
      Ok = false;
    }
  };
  if (WantArrInterval) {
    ArrRows.push_back(runArrCorpusRow<ArraySmashDomain<IntervalDomain>>());
    checkArr(ArrRows.back());
  }
  if (WantArrZone) {
    ArrRows.push_back(runArrCorpusRow<ArraySmashDomain<ZoneDomain>>());
    checkArr(ArrRows.back());
  }

  if (Opt.WriteJson)
    writeJson(Opt, C, Parallel, Sweeps, ArrRows);
  return (Ok && ParallelOk) ? 0 : 1;
}

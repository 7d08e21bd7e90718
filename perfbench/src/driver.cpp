//===-- perfbench/src/driver.cpp - End-to-end DAIG benchmark driver -------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload in this process, on one thread, and prints
/// one JSON object on the last line of standard output. See
/// perfbench/README.md for the workloads, metrics and the traced run.
///
///   perfbench_driver --workload edit_session|batch_verify
///                    --seed N [--seconds S | --steps N] [--trace 0|1]
///                    [--trace-out FILE]
///
/// Inputs are generated from the seed before any timer starts. A run loops
/// until --seconds of wall time have passed, or, with --steps N, for
/// exactly N steps (the untraced replay that the traced run is compared
/// against). The step sequence, the set-ups between sessions and the
/// sampled correctness checks depend only on the seed and the step count,
/// so a traced and an untraced run of N steps perform identical work.
///
//===----------------------------------------------------------------------===//

#include "programs.h"
#include "trace.h"

#include "analysis/checker.h"
#include "analysis/checks_db.h"
#include "bench/corpus/array_programs.h"
#include "cfg/cfg_analysis.h"
#include "cfg/edits.h"
#include "cfg/lowering.h"
#include "daig/daig.h"
#include "domain/array_smash.h"
#include "domain/octagon.h"
#include "domain/zone.h"
#include "interproc/engine.h"
#include "lang/parser.h"
#include "support/observe.h"
#include "support/statistics.h"
#include "workload/generator.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace dai;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Workload sizes (recorded in BENCHMARK.json and README.md)
//===----------------------------------------------------------------------===//

/// edit_session edits one of Bases pre-grown programs per session;
/// sessions take the bases in turn. The bases are the same in every run
/// (grown from kProjectSeed): they are the project being edited, and
/// --seed drives the edit traffic (edit kinds, sites, statements and
/// query locations). The cost of a generated program varies a lot with its
/// loop nesting, so drawing the bases from --seed would make run-to-run
/// figures measure which programs were drawn rather than the analyzer.
struct SessionSizes {
  unsigned Vars;        ///< Generator variable pool.
  unsigned Bases;       ///< Pre-grown programs per run.
  unsigned PreGrow;     ///< Seeded edits applied to each base's main.
  unsigned SessionLen;  ///< Steps per session (a set-up starts each one).
  unsigned CheckEvery;  ///< Correctness check after every N-th step.
  unsigned Queries;     ///< queryMain calls per step.
};

constexpr uint64_t kProjectSeed = 20210620;
constexpr SessionSizes kEditSession{12, 8, 600, 100, 25, 5};

constexpr unsigned kBatchPrograms = 320;   ///< Generated corpus programs.
constexpr unsigned kBatchSetupEvery = 100; ///< Steps per sampled set-up.
constexpr unsigned kBatchK = 1;            ///< Call-string depth.
constexpr CorpusShape kBatchShape{1, 12, 6, 2};

constexpr size_t kMaxSpanRecords = 100000;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  uint64_t FixedSteps = 0; ///< 0: run for Seconds.
  bool Trace = false;
  std::string TraceOut;
};

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + Stream);
  return R.next();
}

double msBetween(uint64_t A, uint64_t B) { return double(B - A) / 1e6; }

//===----------------------------------------------------------------------===//
// Deterministic work counts
//===----------------------------------------------------------------------===//

/// Work counts the library keeps outside Statistics: the process-wide name
/// table and DBM/zone closure counters.
struct GlobalCounts {
  uint64_t NamesInterned = 0, InternHits = 0, ClosureCellsTouched = 0;
};

/// Work counts, each a delta over the set-ups and timed steps of a run.
/// Traced and untraced runs of the same steps must agree on every field.
struct Counts {
  Statistics Stats;
  GlobalCounts Global;
};

/// Snapshot of the process-wide counters so that a region's delta can be
/// added to a Counts.
struct GlobalSnap {
  NameTableCounters Names = nameTableCounters();
  ClosureCounters Closure = closureCounters();
  ZoneCounters Zone = zoneCounters();

  void addDeltaTo(Counts &C) const {
    NameTableCounters N = nameTableCounters() - Names;
    C.Global.NamesInterned += N.NamesInterned;
    C.Global.InternHits += N.InternHits;
    C.Global.ClosureCellsTouched +=
        (closureCounters() - Closure).CellsTouched +
        (zoneCounters() - Zone).ClosureVerticesVisited;
  }
};

//===----------------------------------------------------------------------===//
// Run state shared by the workloads
//===----------------------------------------------------------------------===//

struct Run {
  Options Opt;
  uint64_t DeadlineNs = 0;

  std::vector<double> StepMs;
  std::vector<double> SetupS; ///< Sampled set-up times.
  uint64_t Setups = 0;        ///< Set-ups run, sampled or not.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;

  Counts All;  ///< Set-ups plus steps.
  Counts Step; ///< Steps only.
  uint64_t EditsStmt = 0, EditsStruct = 0;
  uint64_t InstancesSum = 0;  ///< instanceCount() summed at step ends.
  /// Peak RSS is read after a fixed number of steps, so that it does not
  /// grow with how many steps a fast machine fits into the run (the name
  /// table never shrinks).
  uint64_t RssAtSteps = 0;
  double PeakRssMb = 0;

  explicit Run(Options O) : Opt(std::move(O)) {}

  /// Starts the measured period; called once the inputs exist.
  void start() {
    DeadlineNs = nowNs() + static_cast<uint64_t>(Opt.Seconds * 1e9);
  }

  /// True while another step should start.
  bool more() {
    if (Attempted == RssAtSteps && PeakRssMb == 0)
      PeakRssMb = peakRssMb();
    if (Opt.FixedSteps)
      return Attempted < Opt.FixedSteps;
    return nowNs() < DeadlineNs;
  }

  static double peakRssMb() {
    struct rusage Use;
    getrusage(RUSAGE_SELF, &Use);
    return double(Use.ru_maxrss) / 1024.0;
  }

  void fail(const std::string &Why) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }
};

/// Reachable locations of \p G by the benchmark's own walk over the edge
/// list, so that drawing inputs never computes the CFG's cached facts.
std::vector<Loc> reachableLocs(const Cfg &G) {
  std::vector<std::vector<Loc>> Succ(G.numLocs());
  for (auto [Id, E] : G.edges())
    Succ[E.Src].push_back(E.Dst);
  std::vector<char> Seen(G.numLocs(), 0);
  std::vector<Loc> Work{G.entry()}, Out;
  Seen[G.entry()] = 1;
  while (!Work.empty()) {
    Loc L = Work.back();
    Work.pop_back();
    Out.push_back(L);
    for (Loc S : Succ[L])
      if (!Seen[S]) {
        Seen[S] = 1;
        Work.push_back(S);
      }
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// One planned edit of the Section 7.3 mix, drawn from a generator's
/// grammar without touching the CFG.
struct PlannedEdit {
  EditKind Kind = EditKind::InsertStmt;
  Loc At = InvalidLoc;
  Stmt S, Else;
  ExprPtr Cond;
  std::vector<Loc> Queries;
};

PlannedEdit planEdit(WorkloadGenerator &Gen, const WorkloadOptions &W,
                     const Cfg &G, unsigned Queries) {
  std::vector<Loc> Reach = reachableLocs(G);
  PlannedEdit E;
  for (unsigned I = 0; I < Queries; ++I)
    E.Queries.push_back(Reach[Gen.rng().below(Reach.size())]);
  std::vector<Loc> Sites;
  for (Loc L : Reach)
    if (L != G.exit())
      Sites.push_back(L);
  E.At = Sites[Gen.rng().below(Sites.size())];
  unsigned Pick = static_cast<unsigned>(Gen.rng().below(100));
  if (Pick < W.PctStmt) {
    E.Kind = EditKind::InsertStmt;
    E.S = Gen.randomStmt();
  } else if (Pick < W.PctStmt + W.PctIf) {
    E.Kind = EditKind::InsertIf;
    E.Cond = Gen.randomCondition();
    E.S = Gen.randomStmt();
    E.Else = Gen.randomStmt();
  } else {
    // The generator's bounded counting loop (workload/generator.cpp).
    E.Kind = EditKind::InsertWhile;
    const std::string &V =
        Gen.varPool()[Gen.rng().below(Gen.varPool().size())];
    E.Cond = Expr::mkBinary(BinaryOp::Lt, Expr::mkVar(V),
                            Expr::mkInt(Gen.rng().range(1, 30)));
    E.S = Stmt::mkAssign(V, Expr::mkBinary(BinaryOp::Add, Expr::mkVar(V),
                                           Expr::mkInt(Gen.rng().range(1, 3))));
  }
  return E;
}

/// Splices \p E into \p G (the user's edit of the program text).
InsertResult splice(Cfg &G, const PlannedEdit &E) {
  Span Sp("cfg.splice");
  switch (E.Kind) {
  case EditKind::InsertStmt:
    return insertStmtAt(G, E.At, E.S);
  case EditKind::InsertIf:
    return insertIfAt(G, E.At, E.Cond, E.S, E.Else);
  case EditKind::InsertWhile:
    return insertWhileAt(G, E.At, E.Cond, E.S);
  }
  return {};
}

/// Computes the edited CFG's structural facts inside the step, so the
/// engine call that follows finds them cached.
void cfgFacts(const Cfg &G) {
  Span Sp("cfg.facts");
  (void)G.info();
}

WorkloadOptions sessionOptions(const SessionSizes &Z, uint64_t Seed) {
  WorkloadOptions W; // Section 7.3 mix: 85/10/5, 8% calls, 10% arrays
  W.Seed = Seed;
  W.NumVars = Z.Vars;
  return W;
}

std::vector<Program> pregrownPrograms(const SessionSizes &Z) {
  std::vector<Program> Out;
  for (unsigned B = 0; B < Z.Bases; ++B) {
    WorkloadGenerator Gen(sessionOptions(Z, mixSeed(kProjectSeed, B)));
    Program P = Gen.makeInitialProgram();
    for (unsigned I = 0; I < Z.PreGrow; ++I)
      Gen.applyRandomEdit(P);
    Out.push_back(std::move(P));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// edit_session: I&DD interprocedural octagon analysis under edits
//===----------------------------------------------------------------------===//

/// Engine construction plus analyzeAllFromMain on \p P: the edit
/// session's set-up. Stores its time in \p Seconds.
template <typename D>
std::unique_ptr<InterprocEngine<D>> setUpEngine(Run &R, Program P,
                                                double &Seconds) {
  std::unique_ptr<InterprocEngine<D>> E;
  GlobalSnap G0;
  uint64_t T0 = cpuNs();
  {
    Span Sp("setup", Phase::Setup);
    ++R.Setups;
    Span Build("daig.build");
    E = std::make_unique<InterprocEngine<D>>(std::move(P), "main", 0);
    E->analyzeAllFromMain();
  }
  Seconds = double(cpuNs() - T0) / 1e9;
  G0.addDeltaTo(R.All);
  R.All.Stats.mergeFrom(E->statistics());
  return E;
}

template <typename D> void runEditSession(Run &R) {
  const SessionSizes &Z = kEditSession;
  const std::vector<Program> Bases = pregrownPrograms(Z);
  // Warm-up: the first set-ups find the name table cold.
  for (const Program &P : Bases) {
    double S = 0;
    setUpEngine<D>(R, P, S);
  }
  R.RssAtSteps = Z.Bases * Z.SessionLen;
  R.start();
  // setup_s: sessions take the bases in turn, so every Z.Bases consecutive
  // sessions set each base up once. Such a round's sample is its mean set-up
  // time per base. Sampling the sessions' own set-ups spreads the samples
  // over the whole run, so that setup_s sees the same machine as the steps.
  double RoundSum = 0;
  unsigned RoundN = 0;
  uint64_t StepNo = 0;
  for (uint64_t Session = 0; R.more(); ++Session) {
    WorkloadOptions W = sessionOptions(Z, mixSeed(R.Opt.Seed, Session + 1));
    WorkloadGenerator Gen(W);
    double SetupSeconds = 0;
    std::unique_ptr<InterprocEngine<D>> E =
        setUpEngine<D>(R, Bases[Session % Z.Bases], SetupSeconds);
    RoundSum += SetupSeconds;
    if (++RoundN == Z.Bases) {
      R.SetupS.push_back(RoundSum / RoundN);
      RoundSum = 0;
      RoundN = 0;
    }

    for (unsigned J = 0; J < Z.SessionLen && (J == 0 || R.more()); ++J) {
      Cfg &G = E->program().find("main")->Body;
      PlannedEdit Ed = planEdit(Gen, W, G, Z.Queries);
      std::vector<typename D::Elem> Answers;
      Statistics S0 = E->statistics();
      GlobalSnap G0;
      ++R.Attempted;
      Tracer::get().setStep(++StepNo);
      bool Threw = false;
      uint64_t T0 = cpuNs();
      try {
        Span Sp("step");
        InsertResult Res = splice(G, Ed);
        cfgFacts(G);
        if (Ed.Kind == EditKind::InsertStmt) {
          Span Ed2("daig.edit_stmt");
          E->applyInsertedStatementEdit("main", Ed.At, Res);
        } else {
          Span Ed2("daig.edit_struct");
          E->applyStructuralEdit("main");
        }
        for (Loc L : Ed.Queries) {
          Span Q("daig.query");
          Answers.push_back(E->queryMain(L));
        }
      } catch (const std::exception &Ex) {
        Threw = true;
        R.fail(std::string("edit_session step threw: ") + Ex.what());
      }
      uint64_t T1 = cpuNs();
      if (Threw)
        break; // engine state is suspect: start a fresh session
      R.StepMs.push_back(msBetween(T0, T1));
      Statistics Delta = E->statistics() - S0;
      R.Step.Stats.mergeFrom(Delta);
      R.All.Stats.mergeFrom(Delta);
      G0.addDeltaTo(R.Step);
      G0.addDeltaTo(R.All);
      (Ed.Kind == EditKind::InsertStmt ? R.EditsStmt : R.EditsStruct)++;
      R.InstancesSum += E->instanceCount();

      if (R.Attempted % Z.CheckEvery == 0) {
        // Callee entries only grow under edits, so the incremental answer
        // must cover a from-scratch engine's answer.
        InterprocEngine<D> Fresh(E->program(), "main", 0);
        for (size_t I = 0; I < Ed.Queries.size(); ++I)
          if (!D::leq(Fresh.queryMain(Ed.Queries[I]), Answers[I])) {
            R.fail("edit_session: incremental answer at loc " +
                   std::to_string(Ed.Queries[I]) + " of step " +
                   std::to_string(StepNo) + " misses the fresh answer");
            break;
          }
      }
    }
    std::string Audit = E->auditInvariants();
    if (!Audit.empty())
      R.fail("edit_session audit: " + Audit);
  }
  // A run too short for one whole round reports its partial round.
  if (R.SetupS.empty() && RoundN > 0)
    R.SetupS.push_back(RoundSum / RoundN);
}

//===----------------------------------------------------------------------===//
// batch_verify: from-source verification of a corpus, one program a step
//===----------------------------------------------------------------------===//

constexpr uint32_t kBatchMask = checkMask(CheckKind::UserAssertion) |
                                checkMask(CheckKind::DivByZero) |
                                checkMask(CheckKind::ArrayBounds);

struct CorpusEntry {
  std::string Name;
  std::string Source;
  bool HandLabelled = false;
  bool ExpectSafe = true; ///< Hand-labelled programs only.
  unsigned PlantedPerKind = 0; ///< Generated programs: planted checks of
                               ///< each answer (safe / unsafe).
  std::optional<Program> Lowered;
};

/// Returns "" when the verdicts of one program match what it was built to
/// show, else the reason.
std::string judge(const CorpusEntry &C, const ChecksDb &Db) {
  if (C.HandLabelled) {
    if (C.ExpectSafe)
      return "";
    for (Loc L : Db.locations())
      for (const CheckResult &Res : Db.at(L))
        if (Res.V == Verdict::Warning || Res.V == Verdict::Error)
          return "";
    return "expected-unsafe program " + C.Name + " not flagged";
  }
  // Planted check (its text is unique in the program) -> verdict over all
  // instances: planted-safe must be SAFE everywhere, planted-unsafe
  // WARNING or ERROR everywhere.
  std::map<std::string, bool> SafeOk, UnsafeOk;
  auto planted = [](const std::string &Text, const char *Prefix) {
    for (size_t P = Text.find(Prefix); P != std::string::npos;
         P = Text.find(Prefix, P + 1))
      if (P + 2 < Text.size() && std::isdigit((unsigned char)Text[P + 2]))
        return true;
    return false;
  };
  for (Loc L : Db.locations())
    for (const CheckResult &Res : Db.at(L)) {
      const std::string &Key = Res.Text;
      if (planted(Key, "ps")) {
        bool Ok = Res.V == Verdict::Safe;
        auto [It, New] = SafeOk.emplace(Key, Ok);
        if (!New)
          It->second = It->second && Ok;
      } else if (planted(Key, "pu")) {
        bool Ok = Res.V == Verdict::Warning || Res.V == Verdict::Error;
        auto [It, New] = UnsafeOk.emplace(Key, Ok);
        if (!New)
          It->second = It->second && Ok;
      }
    }
  if (SafeOk.size() != C.PlantedPerKind || UnsafeOk.size() != C.PlantedPerKind)
    return C.Name + ": " + std::to_string(SafeOk.size()) + "/" +
           std::to_string(UnsafeOk.size()) + " planted safe/unsafe checks "
           "evaluated, expected " + std::to_string(C.PlantedPerKind) + " each";
  for (const auto &[K, Ok] : SafeOk)
    if (!Ok)
      return C.Name + ": planted-safe check '" + K + "' not proved SAFE";
  for (const auto &[K, Ok] : UnsafeOk)
    if (!Ok)
      return C.Name + ": planted-unsafe check '" + K + "' not flagged";
  return "";
}

std::vector<CorpusEntry> makeCorpus(uint64_t Seed) {
  std::vector<CorpusEntry> Out;
  for (unsigned I = 0; I < kBatchPrograms; ++I) {
    CorpusEntry C;
    C.Name = "gen" + std::to_string(I);
    C.Source = ProgramWriter(mixSeed(Seed, I), kBatchShape).program();
    // Per function: two planted-safe and two planted-unsafe checks.
    C.PlantedPerKind = 2 * (kBatchShape.Helpers + 1);
    Out.push_back(std::move(C));
  }
  for (int I = 0; I < corpus::NumArrayPrograms; ++I) {
    CorpusEntry C;
    C.Name = corpus::ArrayPrograms[I].Name;
    C.Source = corpus::ArrayPrograms[I].Source;
    C.HandLabelled = true;
    C.ExpectSafe = corpus::ArrayPrograms[I].ExpectSafe;
    Out.push_back(std::move(C));
  }
  return Out;
}

template <typename D> void runBatchVerify(Run &R) {
  std::vector<CorpusEntry> Corpus = makeCorpus(R.Opt.Seed);

  // Set-up: parse and lower the whole corpus. The first round finds the
  // name table cold; its programs are the ones verified, and it is not
  // sampled. Sampled rounds run between the steps, every kBatchSetupEvery
  // steps, so that setup_s sees the same machine as the steps do.
  auto setUpCorpus = [&](bool Keep) {
    std::vector<std::optional<Program>> Lowered(Corpus.size());
    std::vector<std::string> Errors(Corpus.size());
    uint64_t T0 = cpuNs();
    {
      Span Sp("setup", Phase::Setup);
      ++R.Setups;
      for (size_t I = 0; I < Corpus.size(); ++I) {
        ParseResult PR = [&] {
          Span P("lang.parse");
          return parseProgram(Corpus[I].Source);
        }();
        if (!PR.ok()) {
          Errors[I] = "parse: " + PR.Error;
          continue;
        }
        Span L("cfg.lower");
        LowerResult LR = lowerProgram(PR.Program);
        if (!LR.ok())
          Errors[I] = "lower: " + LR.Error;
        else
          Lowered[I] = std::move(LR.Prog);
      }
    }
    double Seconds = double(cpuNs() - T0) / 1e9;
    if (!Keep)
      return Seconds;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      Corpus[I].Lowered = std::move(Lowered[I]);
      if (!Errors[I].empty())
        R.fail(Corpus[I].Name + ": " + Errors[I]);
    }
    return Seconds;
  };
  setUpCorpus(true);
  R.RssAtSteps = Corpus.size();
  R.start();

  uint64_t StepNo = 0;
  for (size_t I = 0; R.more(); I = (I + 1) % Corpus.size()) {
    if (R.Attempted % kBatchSetupEvery == 0)
      R.SetupS.push_back(setUpCorpus(false));
    const CorpusEntry &C = Corpus[I];
    ++R.Attempted;
    if (!C.Lowered) {
      ++R.Failed; // its parse failure, reported once at set-up
      continue;
    }
    Program P = *C.Lowered;
    Tracer::get().setStep(++StepNo);
    std::unique_ptr<InterprocEngine<D>> E;
    ChecksDb Db;
    GlobalSnap G0;
    bool Threw = false;
    uint64_t T0 = cpuNs();
    try {
      Span Sp("step");
      {
        Span F("cfg.facts");
        for (const auto &[Name, Fn] : P.Functions)
          (void)Fn.Body.info();
      }
      {
        Span B("daig.build");
        E = std::make_unique<InterprocEngine<D>>(std::move(P), "main",
                                                 kBatchK);
        if (!E->valid())
          throw std::runtime_error(E->error());
        E->analyzeAllFromMain();
      }
      std::map<SymbolId, std::vector<Obligation>> ObsByFn;
      {
        Span Co("analysis.collect");
        for (const auto &[FnName, F] : E->program().Functions)
          ObsByFn[internSymbol(FnName)] =
              collectObligations(F.Body, kBatchMask);
      }
      Span Pr("analysis.probe");
      E->forEachInstance([&](const auto &Key, Daig<D> &G) {
        const auto &Obs = ObsByFn[Key.Fn];
        if (Obs.empty())
          return;
        runChecks<D>(
            Obs,
            [&](Loc L) {
              Span Q("daig.query");
              return G.queryLocation(L);
            },
            [&](Loc L) { return G.locationDegraded(L); }, Db,
            &E->statistics());
      });
    } catch (const std::exception &Ex) {
      Threw = true;
      R.fail(C.Name + " threw: " + Ex.what());
    }
    uint64_t T1 = cpuNs();
    if (Threw)
      continue;
    R.StepMs.push_back(msBetween(T0, T1));
    R.Step.Stats.mergeFrom(E->statistics());
    R.All.Stats.mergeFrom(E->statistics());
    G0.addDeltaTo(R.Step);
    G0.addDeltaTo(R.All);
    R.InstancesSum += E->instanceCount();
    std::string Why = judge(C, Db);
    if (!Why.empty())
      R.fail(Why);
  }
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

class JsonObject {
public:
  void num(const std::string &K, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.9g", std::isfinite(V) ? V : 0.0);
    add(K, Buf);
  }
  void count(const std::string &K, uint64_t V) { add(K, std::to_string(V)); }
  void raw(const std::string &K, const std::string &V) { add(K, V); }
  std::string str() const { return "{" + Body + "}"; }

private:
  std::string Body;
  void add(const std::string &K, const std::string &V) {
    if (!Body.empty())
      Body += ", ";
    Body += jsonString(K) + ": " + V;
  }
};

/// Per-layer figures of a traced run: self times and counts per step
/// (set-up layers per set-up).
std::string layerJson(const Run &R) {
  const Tracer &T = Tracer::get();
  const Tracer::PhaseTotals &St = T.totals(Phase::Step);
  const Tracer::PhaseTotals &Su = T.totals(Phase::Setup);
  double Steps = double(std::max<size_t>(R.StepMs.size(), 1));
  double Setups = double(std::max<uint64_t>(R.Setups, 1));
  auto self = [](const Tracer::PhaseTotals &P, const char *Name) {
    auto It = P.SelfNs.find(Name);
    return It == P.SelfNs.end() ? 0.0 : double(It->second) / 1e6;
  };
  JsonObject J;
  J.num("lang.parse_ms", self(Su, "lang.parse") / Setups);
  J.num("cfg.lower_ms", self(Su, "cfg.lower") / Setups);
  J.num("cfg.splice_ms", self(St, "cfg.splice") / Steps);
  J.num("cfg.facts_ms", self(St, "cfg.facts") / Steps);
  J.num("daig.edit_stmt_ms", self(St, "daig.edit_stmt") / Steps);
  J.num("daig.edit_struct_ms", self(St, "daig.edit_struct") / Steps);
  J.num("daig.query_self_ms", self(St, "daig.query") / Steps);
  J.num("daig.build_self_ms", self(St, "daig.build") / Steps);
  J.num("analysis.collect_ms", self(St, "analysis.collect") / Steps);
  J.num("analysis.probe_self_ms", self(St, "analysis.probe") / Steps);
  double DomainMs = 0;
  for (size_t Op = 0; Op < kNumDomOps; ++Op) {
    double Ms = double(St.DomNs[Op]) / 1e6;
    DomainMs += Ms;
    J.num(std::string("domain.") + kDomOpNames[Op] + "_ms", Ms / Steps);
    J.num(std::string("domain.") + kDomOpNames[Op] + "_calls",
          double(St.DomCalls[Op]) / Steps);
  }
  J.num("trace.unattributed_ms", self(St, "step") / Steps);
  J.num("trace.step_ms", double(St.RootNs) / 1e6 / Steps);
  // Layer shares of traced step time, for the split each workload was
  // chosen to show.
  double RootMs = std::max(double(St.RootNs) / 1e6, 1e-9);
  J.num("share.cfg_edit_pct",
        100.0 *
            (self(St, "cfg.facts") + self(St, "daig.edit_stmt") +
             self(St, "daig.edit_struct")) /
            RootMs);
  J.num("share.domain_pct", 100.0 * DomainMs / RootMs);

  const Statistics &C = R.Step.Stats;
  const GlobalCounts &Gc = R.Step.Global;
  J.num("daig.edits_stmt", double(R.EditsStmt) / Steps);
  J.num("daig.edits_struct", double(R.EditsStruct) / Steps);
  J.num("daig.cells_dirtied", double(C.CellsDirtied) / Steps);
  J.num("daig.cell_reuses", double(C.CellReuses) / Steps);
  J.num("daig.memo_hits", double(C.MemoHits) / Steps);
  J.num("daig.memo_misses", double(C.MemoMisses) / Steps);
  uint64_t Memo = C.MemoHits + C.MemoMisses;
  J.num("daig.memo_hit_pct", Memo ? 100.0 * double(C.MemoHits) / Memo : 0);
  J.num("daig.unrollings", double(C.Unrollings) / Steps);
  J.num("daig.names_interned", double(Gc.NamesInterned) / Steps);
  J.num("daig.intern_hits", double(Gc.InternHits) / Steps);
  uint64_t Interns = Gc.NamesInterned + Gc.InternHits;
  J.num("daig.intern_hit_pct",
        Interns ? 100.0 * double(Gc.InternHits) / Interns : 0);
  J.num("domain.closure_cells_touched",
        double(Gc.ClosureCellsTouched) / Steps);
  J.num("interproc.call_summaries", double(C.CallSummaries) / Steps);
  J.num("interproc.instances", double(R.InstancesSum) / Steps);
  J.num("analysis.checks_evaluated", double(C.ChecksEvaluated) / Steps);
  J.count("trace.spans_kept", T.records().size());
  J.count("trace.spans_dropped", T.dropped());
  return J.str();
}

void report(const Run &R) {
  double TimedS = 0;
  for (double Ms : R.StepMs)
    TimedS += Ms / 1e3;

  JsonObject E2E;
  E2E.num("setup_s", quantile(R.SetupS, 0.5));
  E2E.num("step_p50_ms", quantile(R.StepMs, 0.5));
  E2E.num("step_p95_ms", quantile(R.StepMs, 0.95));
  E2E.num("steps_per_s", TimedS > 0 ? double(R.StepMs.size()) / TimedS : 0);
  E2E.num("peak_rss_mb", R.PeakRssMb > 0 ? R.PeakRssMb : Run::peakRssMb());

  MetricsRegistry Cnt;
  exportStatistics(R.All.Stats, Cnt);
  Cnt.add("names_interned", R.All.Global.NamesInterned);
  Cnt.add("intern_hits", R.All.Global.InternHits);
  Cnt.add("closure_cells_touched", R.All.Global.ClosureCellsTouched);
  Cnt.add("edits_stmt", R.EditsStmt);
  Cnt.add("edits_struct", R.EditsStruct);

  std::string Errs = "[";
  for (size_t I = 0; I < R.Errors.size(); ++I)
    Errs += (I ? ", " : "") + jsonString(R.Errors[I]);
  Errs += "]";

  JsonObject Out;
  Out.raw("workload", jsonString(R.Opt.Workload));
  Out.count("seed", R.Opt.Seed);
  Out.count("steps", R.StepMs.size());
  Out.count("setups", R.Setups);
  Out.count("attempted", R.Attempted);
  Out.count("failed", R.Failed);
  Out.raw("correct", R.Failed == 0 && R.Attempted > 0 ? "true" : "false");
  Out.raw("errors", Errs);
  Out.raw("end_to_end", E2E.str());
  Out.raw("counts", Cnt.toJson());
  if (R.Opt.Trace)
    Out.raw("per_layer", layerJson(R));
  std::printf("%s\n", Out.str().c_str());
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "missing value for %s\n", A.c_str());
      return false;
    }
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), &End);
    else if (A == "--steps")
      O.FixedSteps = std::strtoull(V.c_str(), &End, 10);
    else if (A == "--trace" && (V == "0" || V == "1"))
      O.Trace = V == "1";
    else if (A == "--trace-out")
      O.TraceOut = V;
    else {
      std::fprintf(stderr, "unknown flag or bad value: %s %s\n", A.c_str(),
                   V.c_str());
      return false;
    }
    if (End && *End) {
      std::fprintf(stderr, "bad value '%s' for %s\n", V.c_str(), A.c_str());
      return false;
    }
  }
  return O.Seconds > 0;
}

template <template <typename> class Wrap> bool dispatch(Run &R) {
  const std::string &W = R.Opt.Workload;
  if (W == "edit_session")
    runEditSession<Wrap<OctagonDomain>>(R);
  else if (W == "batch_verify")
    runBatchVerify<Wrap<ArraySmashDomain<ZoneDomain>>>(R);
  else
    return false;
  return true;
}

template <typename D> using Plain = D;

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  // The library's own trace hooks stay off in both runs.
  setTracingEnabled(false);
  if (O.Trace)
    Tracer::get().enable(kMaxSpanRecords);
  Run R(O);
  try {
    if (!(O.Trace ? dispatch<TimedDomain>(R) : dispatch<Plain>(R))) {
      std::fprintf(stderr, "unknown workload '%s'\n", O.Workload.c_str());
      return 2;
    }
  } catch (const std::exception &Ex) {
    // A set-up or a correctness check threw: the run failed, and counts as
    // at least one attempted operation.
    R.Attempted = std::max<uint64_t>(R.Attempted, 1);
    R.fail(std::string("uncaught: ") + Ex.what());
  }
  if (O.Trace && !O.TraceOut.empty() &&
      !Tracer::get().writeChromeTrace(O.TraceOut))
    std::fprintf(stderr, "cannot write %s\n", O.TraceOut.c_str());
  report(R);
  return 0;
}

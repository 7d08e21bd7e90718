//===-- daig/daig.h - Demanded abstract interpretation graphs --*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demanded abstract interpretation graph (DAIG) of Sections 4–5: a
/// directed acyclic hypergraph whose vertices are named reference cells
/// (program statements and abstract states) and whose edges are analysis
/// computations (⟦·⟧♯, ⊔, ∇, fix). Queries evaluate cells on demand with
/// maximal reuse (rules Q-Reuse / Q-Match / Q-Miss / Q-Loop-Converge /
/// Q-Loop-Unroll of Fig. 8); edits dirty minimal state (rules E-Commit /
/// E-Propagate / E-Loop of Fig. 9).
///
/// Loop handling follows the paper's demanded-unrolling scheme, generalized
/// to nested loops via per-loop iteration counts in names (daig/name.h):
/// each loop instance carries a fix edge over its two greatest abstract
/// iterates; unrolling builds the next abstract iteration of the loop body
/// (resetting directly nested loops to their initial two iterates) and
/// slides the fix edge forward; dirtying an iterate rolls the fix edge back
/// to iterates (0, 1) and deletes the unrolled region (a semantically
/// equivalent, memory-friendlier variant of E-Loop; see DESIGN.md).
///
/// Two kinds of program edits are supported:
///  - applyStatementEdit: in-place statement replacement — surgical dirtying
///    with no structural change;
///  - rebuild(): after arbitrary structural CFG edits — reconstructs the
///    DAIG skeleton, salvages every cell value whose name and defining
///    computation are unchanged (incremental computation with names),
///    re-adopts demanded unrollings of structurally untouched loops, and
///    then dirties forward from every changed cell.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DAIG_DAIG_H
#define DAI_DAIG_DAIG_H

#include "cfg/cfg_analysis.h"
#include "cfg/edits.h"
#include "daig/memo_table.h"
#include "daig/name.h"
#include "domain/abstract_domain.h"
#include "support/budget.h"
#include "support/fault_injection.h"
#include "support/observe.h"
#include "support/statistics.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <variant>

namespace dai {

/// How one demanded cell was resolved in a recorded query (see
/// Daig::explainQuery): the direct observables of the Fig. 8 rules —
/// Q-Reuse (Reused / DegradedReuse), Q-Match (MemoHit), Q-Miss
/// (Evaluated) — plus the budget layer's ⊤-substitution.
enum class DemandOutcome : uint8_t {
  Reused,        ///< Q-Reuse: the cell already held a value.
  Evaluated,     ///< Q-Miss: computed fresh by its defining computation.
  MemoHit,       ///< Q-Match: demand-miss answered by the memo table.
  TopBudget,     ///< ⊤-substituted by hard budget exhaustion.
  DegradedReuse, ///< Q-Reuse of a budget-degraded value.
};

inline const char *demandOutcomeName(DemandOutcome O) {
  switch (O) {
  case DemandOutcome::Reused:
    return "reused";
  case DemandOutcome::Evaluated:
    return "evaluated";
  case DemandOutcome::MemoHit:
    return "memo-hit";
  case DemandOutcome::TopBudget:
    return "top-budget";
  case DemandOutcome::DegradedReuse:
    return "degraded-reuse";
  }
  return "?";
}

/// The demand tree one explainQuery call records: which cells the query
/// traversed, in traversal order, and how each was resolved. Deterministic
/// for a fixed DAIG state: demand traversal follows the (deterministic)
/// computation-source order, so two runs over equal DAIG states record
/// equal trees.
struct DemandTree {
  static constexpr uint8_t kNoFn = 0xff;

  struct Node {
    Name N;
    DemandOutcome O = DemandOutcome::Evaluated;
    uint8_t FK = kNoFn; ///< FnKind of the defining computation; kNoFn = none
                        ///< (e.g. the entry cell).
    std::vector<size_t> Children;
  };

  std::vector<Node> Nodes;   ///< Preorder (record order).
  std::vector<size_t> Roots; ///< Top-level demands, in query order.

  size_t size() const { return Nodes.size(); }

  /// Indented text rendering, one cell per line:
  ///   <name> [<- <fn>] [outcome]
  std::string text() const {
    std::string Out;
    auto render = [&](auto &&Self, size_t Idx, unsigned Ind) -> void {
      const Node &Nd = Nodes[Idx];
      Out.append(size_t(Ind) * 2, ' ');
      Out += Nd.N.toString();
      if (Nd.FK != kNoFn) {
        Out += " <- ";
        Out += fnKindName(FnKind(Nd.FK));
      }
      Out += " [";
      Out += demandOutcomeName(Nd.O);
      Out += "]\n";
      for (size_t C : Nd.Children)
        Self(Self, C, Ind + 1);
    };
    for (size_t R : Roots)
      render(render, R, 0);
    return Out;
  }

  /// Graphviz DOT rendering; outcome encoded as node color.
  std::string dot() const {
    auto escape = [](const std::string &S) {
      std::string E;
      for (char C : S) {
        if (C == '"' || C == '\\')
          E += '\\';
        E += C;
      }
      return E;
    };
    auto color = [](DemandOutcome O) {
      switch (O) {
      case DemandOutcome::Reused:
        return "gray60";
      case DemandOutcome::Evaluated:
        return "black";
      case DemandOutcome::MemoHit:
        return "blue";
      case DemandOutcome::TopBudget:
        return "red";
      case DemandOutcome::DegradedReuse:
        return "orange";
      }
      return "black";
    };
    std::string Out = "digraph demand {\n"
                      "  node [shape=box, fontname=\"monospace\"];\n";
    for (size_t I = 0; I < Nodes.size(); ++I) {
      const Node &Nd = Nodes[I];
      Out += "  n" + std::to_string(I) + " [label=\"" +
             escape(Nd.N.toString()) + "\\n" + demandOutcomeName(Nd.O) +
             "\", color=" + color(Nd.O) + "];\n";
    }
    for (size_t I = 0; I < Nodes.size(); ++I)
      for (size_t C : Nodes[I].Children)
        Out += "  n" + std::to_string(I) + " -> n" + std::to_string(C) +
               ";\n";
    Out += "}\n";
    return Out;
  }
};

/// A DAIG over abstract domain \p D for a single control-flow graph.
template <typename D>
  requires AbstractDomain<D>
class Daig {
public:
  using Elem = typename D::Elem;
  /// Statement interpretation override used by the interprocedural engine to
  /// resolve Call statements by demanding callee summaries.
  using TransferFn = std::function<Elem(const Stmt &, const Elem &)>;
  /// Invalidation callback: fired for every cell emptied by an edit, letting
  /// the engine propagate dirtying across function DAIGs.
  using EmptiedFn = std::function<void(Name)>;

  /// Reference cell types (Fig. 6): τ ∈ {Stmt, Σ♯}.
  enum class CellType : uint8_t { StmtTy, StateTy };

  struct Cell {
    CellType T;
    std::optional<std::variant<Stmt, Elem>> V;

    bool hasValue() const { return V.has_value(); }
  };

  /// A computation edge n ← f(n1, ..., nk).
  struct Comp {
    FnKind F;
    std::vector<Name> Srcs;

    bool operator==(const Comp &O) const { return F == O.F && Srcs == O.Srcs; }
  };

  /// Note: the memo table counts its own hits/misses/evictions into the
  /// Statistics attached to IT (MemoTable::attachStatistics) — attachment
  /// is the table owner's decision, since the sink must outlive the table
  /// (this DAIG may be a short-lived rebuild temporary sharing the table).
  Daig(Cfg *G, Elem EntryValue, Statistics *Stats = nullptr,
       MemoTable<D> *Memo = nullptr)
      : G(G), EntryValue(std::move(EntryValue)), Stats(Stats), Memo(Memo) {
    construct();
  }

  void setTransferHook(TransferFn Fn) { Hook = std::move(Fn); }
  void setOnCellEmptied(EmptiedFn Fn) { OnCellEmptied = std::move(Fn); }

  const CfgInfo &info() const { return *Info; }
  bool valid() const { return Info->valid(); }

  //===--------------------------------------------------------------------===//
  // Names of interest
  //===--------------------------------------------------------------------===//

  /// The cell holding the final (post-fixed-point) abstract state at \p L.
  /// For loop heads this is the fix cell; for loop-body locations it is the
  /// body cell of the *converged* iteration, so it requires the enclosing
  /// fixed points to have been computed (queryLocation does this).
  Name exitCellName() const { return resultNameFor(G->exit()); }

  //===--------------------------------------------------------------------===//
  // Queries (Fig. 8)
  //===--------------------------------------------------------------------===//

  /// Demands the abstract state at location \p L, computing enclosing loop
  /// fixed points as needed. Returns ⊥ for unreachable locations.
  Elem queryLocation(Loc L) {
    if (L >= Info->Reachable.size() || !Info->Reachable[L])
      return D::bottom();
    CountCtx Ctx;
    for (Loc H : Info->LoopNestOf[L]) {
      if (H == L)
        break;
      Name FixDest = fixCellName(H, Ctx);
      Elem FV = queryState(FixDest);
      if (!Degraded.empty() && Degraded.count(FixDest)) {
        // The enclosing fixpoint was ⊤-degraded by a budget: its iterate
        // cells are intermediate (pre-convergence) states, NOT sound final
        // answers for body locations. The degraded fix value (⊤) is the
        // only sound answer for anything inside the loop.
        budgetState().TaintPending = true;
        return FV;
      }
      Ctx[H] = Loops.at(FixDest).K - 1;
    }
    if (Info->isLoopHead(L))
      return queryState(fixCellName(L, Ctx));
    return queryState(stateCellName(L, Ctx));
  }

  /// Demands every reachable location (the eager, incremental-only mode).
  void queryAllLocations() {
    for (Loc L : Info->Rpo)
      (void)queryLocation(L);
  }

  /// Low-level query by cell name (Fig. 8 semantics), plus the resource
  /// governance of support/budget.h: the demand-miss path is the analysis's
  /// unit of work, so it checkpoints the budget (which may throw
  /// AnalysisCancelled — before any mutation, so unwinding is clean),
  /// resolves to ⊤ under hard exhaustion, and tracks degraded provenance
  /// through a per-evaluation taint frame.
  Elem queryState(Name N) {
    auto It = Cells.find(N);
    assert(It != Cells.end() && "query for a name outside the DAIG");
    assert(It->second.T == CellType::StateTy && "queryState on a Stmt cell");
    if (It->second.hasValue()) {
      if (Stats)
        ++Stats->CellReuses; // Q-Reuse
      bool Deg = !Degraded.empty() && Degraded.count(N);
      if (Deg)
        budgetState().TaintPending = true; // consumer inherits the flag
      if (Prov)
        provEnter(N, Deg ? DemandOutcome::DegradedReuse
                         : DemandOutcome::Reused);
      return std::get<Elem>(*It->second.V);
    }
    ProvFrame PF(*this, N);
    TraceSpan Sp("daig.cell_eval", N.id());
    budgetCheckpoint("DAIG cell evaluation");
    DAI_FAULT_POINT(CellEval);
    if (budgetExhausted())
      return degradeToTop(N);
    auto CompIt = CompOf.find(N);
    assert(CompIt != CompOf.end() &&
           "empty cell without a computation (wf condition 5)");
    BudgetTaintScope Taint;
    Elem Result;
    if (CompIt->second.F == FnKind::Fix) {
      Result = queryFix(N); // stores internally
    } else {
      Comp C = CompIt->second; // copy: recursive queries may rehash maps
      Result = evaluateComp(C);
      storeValue(N, Result);
    }
    if (Taint.consumed())
      markDegraded(N);
    return Result;
  }

  /// Runs queryLocation(\p L) with demand-provenance recording enabled and
  /// returns the recorded demand tree: every cell the query traversed,
  /// tagged reused / evaluated / memo-hit / ⊤-substituted-by-budget. The
  /// query itself is a REAL query (values computed are stored, counters
  /// count), so a second explainQuery of the same location shows the
  /// from-scratch-consistent steady state: all reuses. Deterministic: for
  /// equal DAIG states the tree is bit-identical across runs.
  DemandTree explainQuery(Loc L) {
    assert(!Prov && "explainQuery does not nest");
    ProvRecorder Rec;
    Prov = &Rec;
    try {
      (void)queryLocation(L);
    } catch (...) {
      Prov = nullptr;
      throw;
    }
    Prov = nullptr;
    return std::move(Rec.T);
  }

  //===--------------------------------------------------------------------===//
  // Edits (Fig. 9)
  //===--------------------------------------------------------------------===//

  /// In-place statement replacement on edge \p Id: updates the CFG and the
  /// statement cell, then dirties forward. Structural shape is unchanged.
  bool applyStatementEdit(EdgeId Id, Stmt NewStmt) {
    const CfgEdge *E = G->findEdge(Id);
    if (!E)
      return false;
    Name SC = stmtCellName(Id);
    auto It = Cells.find(SC);
    assert(It != Cells.end() && "statement cell missing for live edge");
    if (std::get<Stmt>(*It->second.V) == NewStmt)
      return true; // no-op edit
    G->replaceStmt(Id, NewStmt);
    It->second.V = std::variant<Stmt, Elem>(std::move(NewStmt));
    dirtyDependentsOf(SC);
    return true;
  }

  /// Surgically splices an inserted statement into the DAIG — the common
  /// 85% case of the paper's edit workload — with NO reconstruction. The
  /// cost is O(cells at L + out-degree · iteration copies) structural work
  /// (L's cells come from the per-location index, not a scan of the DAIG)
  /// plus forward dirtying, plus the post-edit CfgInfo, which the caller
  /// has normally already derived through the shared Cfg::info() cache.
  ///
  /// Preconditions: the CFG already contains the insertion performed by
  /// cfg/edits.h insertStmtAt(L, S), whose result is \p R, and this DAIG
  /// still reflects the *pre-edit* CFG. Two shapes exist (see edits.cpp):
  ///  - after-splice (L not a loop header): L's old out-edges now originate
  ///    at the fresh location M = R.HammockExit; the statement runs L → M;
  ///  - before-splice (L a loop header, R.HammockExit == L): L's forward
  ///    in-edges now target a fresh predecessor M; the statement runs M → L.
  ///
  /// Falls back to rebuild() (returning false) when the local patch does not
  /// apply (e.g. the edit made previously unreachable code reachable).
  bool applyInsertedStatement(Loc L, const InsertResult &R) {
    const CfgEdge *NewEdge = G->findEdge(R.FirstNewEdge);
    assert(NewEdge && "insertion must have created an edge");
    bool BeforeHeader = R.HammockExit == L;
    Loc M = BeforeHeader ? NewEdge->Src : R.HammockExit;
    if (L >= Info->Reachable.size() || !Info->Reachable[L]) {
      rebuild();
      return false;
    }

    // Enumerate this DAIG's state cells at L across all iteration copies
    // (and, for the before-header shape, only the 0th own-iterates).
    std::vector<std::pair<Name, std::vector<uint32_t>>> LCells;
    if (L < StateCellsAt.size()) {
      Loc DL;
      std::vector<uint32_t> Counts;
      for (Name N : StateCellsAt[L]) {
        if (!decodeState(N, DL, Counts))
          continue; // pre-join / pre-widen cells at L
        if (BeforeHeader &&
            (Counts.size() != Info->LoopNestOf[L].size() ||
             Counts.back() != 0))
          continue; // only full entry iterates (own count 0) are re-sourced
        LCells.emplace_back(N, Counts);
      }
    }

    Name NewStmtCell = BeforeHeader
                           ? Name::pair(Name::loc(M), Name::loc(L))
                           : Name::pair(Name::loc(L), Name::loc(M));
    addStmtCell(NewStmtCell, NewEdge->Label);

    std::vector<Name> DirtySeeds;
    std::vector<Name> StmtCellsToDrop;

    auto renameStmtSrc = [&](Name Old, Loc From, Loc To) -> Name {
      // pair(a,b) → pair(a',b') with From ↦ To on the changed side; the
      // join-indexed form wraps the plain pair in pair(num i, ·).
      if (Old.kind() == Name::Kind::Pair &&
          Old.left().kind() == Name::Kind::Num) {
        Name Inner = Old.right();
        Name NewInner =
            Name::pair(Inner.left().locId() == From ? Name::loc(To)
                                                    : Inner.left(),
                       Inner.right().locId() == From ? Name::loc(To)
                                                     : Inner.right());
        return Name::pair(Old.left(), NewInner);
      }
      return Name::pair(Old.left().kind() == Name::Kind::Loc &&
                                Old.left().locId() == From
                            ? Name::loc(To)
                            : Old.left(),
                        Old.right().kind() == Name::Kind::Loc &&
                                Old.right().locId() == From
                            ? Name::loc(To)
                            : Old.right());
    };

    if (!BeforeHeader) {
      // After-splice: for each iteration copy SL of L's state, introduce
      // M's state cell fed by the new statement, and re-source every
      // consumer transfer from M with a renamed statement cell.
      for (const auto &[SL, Counts] : LCells) {
        Name NM = SL; // same counts: M inherits L's loop nest exactly
        {
          Name Base = Name::loc(M);
          for (uint32_t C : Counts)
            Base = Name::iter(Base, C);
          NM = Base;
        }
        addStateCell(NM);
        addComp(NM, FnKind::Transfer, {NewStmtCell, SL});
        auto DepIt = Dependents.find(SL);
        std::vector<Name> Consumers;
        if (DepIt != Dependents.end())
          Consumers.assign(DepIt->second.begin(), DepIt->second.end());
        for (Name Dest : Consumers) {
          if (Dest == NM)
            continue;
          auto CIt = CompOf.find(Dest);
          if (CIt == CompOf.end() || CIt->second.F != FnKind::Transfer)
            return rebuildFallback();
          Comp C = CIt->second;
          if (!(C.Srcs[1] == SL))
            return rebuildFallback();
          Name OldStmt = C.Srcs[0];
          Name NewStmt = renameStmtSrc(OldStmt, L, M);
          auto OldStmtIt = Cells.find(OldStmt);
          if (OldStmtIt == Cells.end())
            return rebuildFallback();
          addStmtCell(NewStmt, std::get<Stmt>(*OldStmtIt->second.V));
          StmtCellsToDrop.push_back(OldStmt);
          addComp(Dest, FnKind::Transfer, {NewStmt, NM});
          DirtySeeds.push_back(Dest);
        }
      }
    } else {
      // Before-splice: L's entry iterates S0 now read the new statement
      // from M, whose cell takes over S0's former computation with the
      // entry edges re-targeted.
      for (const auto &[S0, Counts] : LCells) {
        Name NM;
        {
          Name Base = Name::loc(M);
          for (size_t I = 0; I + 1 < Counts.size(); ++I)
            Base = Name::iter(Base, Counts[I]); // M sits outside L's loop
          NM = Base;
        }
        addStateCell(NM);
        auto CIt = CompOf.find(S0);
        if (CIt == CompOf.end())
          return rebuildFallback();
        Comp C = CIt->second;
        if (C.F == FnKind::Transfer) {
          Name NewStmt = renameStmtSrc(C.Srcs[0], L, M);
          auto OldStmtIt = Cells.find(C.Srcs[0]);
          if (OldStmtIt == Cells.end())
            return rebuildFallback();
          addStmtCell(NewStmt, std::get<Stmt>(*OldStmtIt->second.V));
          StmtCellsToDrop.push_back(C.Srcs[0]);
          addComp(NM, FnKind::Transfer, {NewStmt, C.Srcs[1]});
        } else if (C.F == FnKind::Join) {
          std::vector<Name> NewPreJoins;
          for (Name PJ : C.Srcs) {
            auto PJComp = CompOf.find(PJ);
            if (PJComp == CompOf.end() ||
                PJComp->second.F != FnKind::Transfer)
              return rebuildFallback();
            Name NewPJ = Name::pair(PJ.left(), NM);
            Name NewStmt = renameStmtSrc(PJComp->second.Srcs[0], L, M);
            auto OldStmtIt = Cells.find(PJComp->second.Srcs[0]);
            if (OldStmtIt == Cells.end())
              return rebuildFallback();
            addStmtCell(NewStmt, std::get<Stmt>(*OldStmtIt->second.V));
            StmtCellsToDrop.push_back(PJComp->second.Srcs[0]);
            addStateCell(NewPJ);
            addComp(NewPJ, FnKind::Transfer,
                    {NewStmt, PJComp->second.Srcs[1]});
            NewPreJoins.push_back(NewPJ);
            removeCell(PJ);
          }
          addComp(NM, FnKind::Join, std::move(NewPreJoins));
        } else {
          return rebuildFallback();
        }
        addComp(S0, FnKind::Transfer, {NewStmtCell, NM});
        DirtySeeds.push_back(S0);
      }
    }

    for (Name SC : StmtCellsToDrop)
      if (!Dependents.count(SC) || Dependents[SC].empty())
        Cells.erase(SC);

    // Refresh structural facts (the CFG gained a location) and dirty
    // forward from every re-sourced consumer.
    Info = G->infoShared();
    assert(Info->valid() && "insertion must preserve well-formedness");
    std::set<Name> Visited;
    std::vector<Name> Work;
    for (Name Seed : DirtySeeds)
      Work.push_back(Seed);
    propagateDirty(Work, Visited);
    return true;
  }

  /// Reconstructs the DAIG after structural CFG edits, salvaging values by
  /// name and re-adopting unrollings of untouched loops, then dirtying
  /// forward from every changed cell.
  void rebuild() {
    Daig Fresh(G, EntryValue, Stats, Memo);
    Fresh.Hook = Hook;
    Fresh.OnCellEmptied = OnCellEmptied;

    // Pass 1 — salvage: copy values into fresh cells whose defining
    // computation is unchanged (incremental computation with names).
    for (auto &[N, FreshCell] : Fresh.Cells) {
      auto OldIt = Cells.find(N);
      if (OldIt == Cells.end() || FreshCell.T != OldIt->second.T ||
          FreshCell.T != CellType::StateTy)
        continue;
      auto FreshComp = Fresh.CompOf.find(N);
      auto OldComp = CompOf.find(N);
      bool FreshHas = FreshComp != Fresh.CompOf.end();
      bool OldHas = OldComp != CompOf.end();
      if (FreshHas != OldHas ||
          (FreshHas && !(FreshComp->second == OldComp->second)))
        continue;
      if (OldIt->second.hasValue() && !FreshCell.hasValue())
        FreshCell.V = OldIt->second.V;
    }

    // Pass 2 — re-adopt demanded unrollings for loop instances whose
    // iteration-0 structure (cells, computations, statements) is unchanged.
    // Cells are bucketed by instance once so this pass is O(cells · depth)
    // rather than O(cells · loops).
    bool AnyUnrolled = false;
    for (const auto &[FixDest, Inst] : Loops)
      if (Inst.K > 1)
        AnyUnrolled = true;
    if (AnyUnrolled) {
      InstanceBuckets FreshBuckets = Fresh.groupCellsByInstance();
      InstanceBuckets OldBuckets = groupCellsByInstance();
      static const std::vector<std::pair<Name, uint32_t>> Empty;
      for (const auto &[FixDest, Inst] : Loops) {
        if (Inst.K <= 1)
          continue;
        if (!Fresh.Loops.count(FixDest))
          continue;
        auto FB = FreshBuckets.find(FixDest);
        if (FB == FreshBuckets.end())
          continue;
        if (!iterationZeroUnchanged(Fresh, Inst, FB->second))
          continue;
        auto OB = OldBuckets.find(FixDest);
        adoptUnrollings(Fresh, FixDest, Inst,
                        OB == OldBuckets.end() ? Empty : OB->second);
      }
    }

    // Pass 3 — change detection against the post-adoption structure, then
    // forward dirtying from every changed cell.
    std::vector<Name> Changed;
    for (auto &[N, FreshCell] : Fresh.Cells) {
      auto OldIt = Cells.find(N);
      if (OldIt == Cells.end()) {
        Changed.push_back(N);
        continue;
      }
      const Cell &Old = OldIt->second;
      if (FreshCell.T != Old.T) {
        Changed.push_back(N);
        continue;
      }
      if (FreshCell.T == CellType::StmtTy) {
        if (!(std::get<Stmt>(*FreshCell.V) == std::get<Stmt>(*Old.V)))
          Changed.push_back(N);
        continue;
      }
      auto FreshComp = Fresh.CompOf.find(N);
      auto OldComp = CompOf.find(N);
      bool FreshHas = FreshComp != Fresh.CompOf.end();
      bool OldHas = OldComp != CompOf.end();
      if (FreshHas != OldHas ||
          (FreshHas && !(FreshComp->second == OldComp->second)))
        Changed.push_back(N);
    }
    for (Name N : Changed)
      Fresh.dirtyDependentsOf(N);

    swapWith(Fresh);
  }

  /// Empties every abstract-state cell and resets all loops (the
  /// demand-driven-only configuration: "dirty the full DAIG").
  void dirtyEverything() {
    Daig Fresh(G, EntryValue, Stats, Memo);
    Fresh.Hook = Hook;
    Fresh.OnCellEmptied = OnCellEmptied;
    swapWith(Fresh);
  }

  /// Replaces the entry abstract state φ0 (used by the interprocedural
  /// engine when callee entry contributions change) and dirties forward.
  void updateEntry(Elem NewEntry) {
    EntryValue = std::move(NewEntry);
    CountCtx Ctx;
    Name N = stateCellName(G->entry(), Ctx);
    auto It = Cells.find(N);
    assert(It != Cells.end() && "entry cell must exist");
    It->second.V = std::variant<Stmt, Elem>(EntryValue);
    Degraded.erase(N); // a fresh entry value clears entry provenance
    dirtyDependentsOf(N);
  }

  /// Marks the entry cell degraded (interprocedural engine: the entry was
  /// coarsened by a budget-tightened widening, so everything computed from
  /// it carries degraded provenance via the taint frames).
  void markEntryDegraded() {
    CountCtx Ctx;
    markDegraded(stateCellName(G->entry(), Ctx));
  }

  /// Current entry abstract state.
  const Elem &entryValue() const { return EntryValue; }

  /// Dirties every cell computed from edge \p Id's statement (used by the
  /// engine when a callee summary feeding this edge changes).
  void invalidateEdgeOutputs(EdgeId Id) { dirtyDependentsOf(stmtCellName(Id)); }

  /// Externally-driven invalidation (interprocedural engine): empties the
  /// cell named \p N (if present and non-empty) and dirties forward.
  void invalidateCell(Name N) {
    auto It = Cells.find(N);
    if (It == Cells.end() || It->second.T != CellType::StateTy)
      return;
    std::set<Name> Visited;
    std::vector<Name> Work = {N};
    propagateDirty(Work, Visited);
  }

  //===--------------------------------------------------------------------===//
  // Introspection (tests, statistics, debugging)
  //===--------------------------------------------------------------------===//

  size_t cellCount() const { return Cells.size(); }
  size_t compCount() const { return CompOf.size(); }
  size_t unrolledLoopCount() const {
    size_t N = 0;
    for (const auto &[Dest, Inst] : Loops)
      if (Inst.K > 1)
        ++N;
    return N;
  }

  bool hasCell(Name N) const { return Cells.count(N) != 0; }
  bool cellHasValue(Name N) const {
    auto It = Cells.find(N);
    return It != Cells.end() && It->second.hasValue();
  }

  /// True when queryLocation(\p L) would be answered entirely from filled
  /// cells — no evaluation, no fills. This is the incremental checker's
  /// reuse test (analysis/checker.h): an edit dirties exactly the cells of
  /// the affected slice (Fig. 9), so a location whose answer is still
  /// materialized was provably untouched and its cached verdicts stand.
  /// Conservative in one direction only: a false result may merely mean the
  /// location was never demanded.
  bool locationValueReady(Loc L) const {
    if (L >= Info->Reachable.size() || !Info->Reachable[L])
      return true; // unreachable: queryLocation answers ⊥ without evaluation
    CountCtx Ctx;
    for (Loc H : Info->LoopNestOf[L]) {
      if (H == L)
        break;
      Name FixDest = fixCellName(H, Ctx);
      if (!cellHasValue(FixDest))
        return false;
      if (!Degraded.empty() && Degraded.count(FixDest))
        return true; // queryLocation answers with the (filled) fix value
      auto LIt = Loops.find(FixDest);
      Ctx[H] = LIt == Loops.end() ? 0u : LIt->second.K - 1;
    }
    Name N = Info->isLoopHead(L) ? fixCellName(L, Ctx)
                                 : stateCellName(L, Ctx);
    return cellHasValue(N);
  }

  //===--------------------------------------------------------------------===//
  // Degraded provenance (support/budget.h)
  //===--------------------------------------------------------------------===//

  /// True when cell \p N holds a budget-degraded value (⊤-substituted, or
  /// computed from a degraded input).
  bool cellDegraded(Name N) const {
    return !Degraded.empty() && Degraded.count(N) != 0;
  }

  /// True when the answer queryLocation(\p L) returns carries degraded
  /// provenance. Meaningful once \p L has been demanded: the flags are
  /// recorded during evaluation.
  bool locationDegraded(Loc L) const {
    if (Degraded.empty())
      return false;
    if (L >= Info->Reachable.size() || !Info->Reachable[L])
      return false;
    CountCtx Ctx;
    for (Loc H : Info->LoopNestOf[L]) {
      if (H == L)
        break;
      Name FixDest = fixCellName(H, Ctx);
      if (Degraded.count(FixDest))
        return true; // queryLocation answers with the degraded fix value
      auto LIt = Loops.find(FixDest);
      Ctx[H] = LIt == Loops.end() ? 0u : LIt->second.K - 1;
    }
    Name N = Info->isLoopHead(L) ? fixCellName(L, Ctx)
                                 : stateCellName(L, Ctx);
    return Degraded.count(N) != 0;
  }

  size_t degradedCellCount() const { return Degraded.size(); }

  /// Empties every degraded cell (and its transitive dependents), clearing
  /// all provenance marks — re-demanding afterwards, outside the exhausted
  /// budget, restores full precision. Returns the number of cells that
  /// carried marks.
  size_t invalidateDegraded() {
    if (Degraded.empty())
      return 0;
    size_t Count = Degraded.size();
    CountCtx Ctx;
    Name Entry = stateCellName(G->entry(), Ctx);
    std::vector<Name> Work;
    for (const Name &N : Degraded) {
      if (N == Entry) {
        // The entry cell always holds φ0 and has no computation; dirty its
        // consumers instead (the engine re-refreshes coarsened entries).
        auto DIt = Dependents.find(N);
        if (DIt != Dependents.end())
          Work.insert(Work.end(), DIt->second.begin(), DIt->second.end());
        continue;
      }
      Work.push_back(N);
    }
    std::set<Name> Visited;
    propagateDirty(Work, Visited); // also erases each emptied cell's mark
    Degraded.clear();              // incl. the (unemptied) entry mark
    return Count;
  }

  /// Structural self-audit beyond Definition 4.1: checkWellFormed plus
  /// Dependents↔CompOf index consistency, the per-location state-cell
  /// index, loop-instance metadata sanity, and degraded-set honesty. Cheap
  /// (no domain operations) — safe to run on a mid-cancelled DAIG. Returns
  /// "" when clean.
  std::string auditInvariants() const {
    std::string W = checkWellFormed();
    if (!W.empty())
      return W;
    // Dependents must be exactly the inverse of CompOf's source lists.
    for (const auto &[Dest, C] : CompOf)
      for (const Name &S : C.Srcs) {
        auto DIt = Dependents.find(S);
        if (DIt == Dependents.end() || !DIt->second.count(Dest))
          return "missing dependent edge " + S.toString() + " → " +
                 Dest.toString();
      }
    for (const auto &[S, Deps] : Dependents) {
      if (Deps.empty())
        return "empty dependent set retained for " + S.toString();
      for (const Name &Dest : Deps) {
        auto CIt = CompOf.find(Dest);
        if (CIt == CompOf.end())
          return "dangling dependent " + Dest.toString() + " of " +
                 S.toString();
        if (std::find(CIt->second.Srcs.begin(), CIt->second.Srcs.end(), S) ==
            CIt->second.Srcs.end())
          return "dependent " + Dest.toString() +
                 " does not list source " + S.toString();
      }
    }
    // The per-location index holds exactly the state-like cells, each once,
    // under the location decodeCellState gives it.
    Loc L;
    std::vector<uint32_t> Counts;
    std::unordered_set<Name, NameHash> Indexed;
    for (Loc At = 0; At < StateCellsAt.size(); ++At)
      for (const Name &N : StateCellsAt[At]) {
        if (!Cells.count(N))
          return "location index names a missing cell: " + N.toString();
        if (!decodeCellState(N, L, Counts) || L != At)
          return "cell indexed under the wrong location: " + N.toString();
        if (!Indexed.insert(N).second)
          return "cell indexed twice: " + N.toString();
      }
    for (const auto &[N, C] : Cells)
      if (decodeCellState(N, L, Counts) && !Indexed.count(N))
        return "state cell missing from the location index: " + N.toString();
    // Loop metadata: every instance's fix edge exists with two iterate
    // sources of its head at counts (K−1, K).
    for (const auto &[FixDest, Inst] : Loops) {
      auto CIt = CompOf.find(FixDest);
      if (CIt == CompOf.end() || CIt->second.F != FnKind::Fix)
        return "loop instance without a fix edge: " + FixDest.toString();
      if (CIt->second.Srcs.size() != 2)
        return "fix edge arity violated: " + FixDest.toString();
      for (unsigned I = 0; I < 2; ++I) {
        if (!decodeState(CIt->second.Srcs[I], L, Counts) || L != Inst.Head ||
            Counts.empty() || Counts.back() != Inst.K - 1 + I)
          return "fix sources disagree with instance metadata: " +
                 FixDest.toString();
      }
    }
    // Degraded honesty: every mark names a live, filled state cell (marks
    // are erased whenever a cell is emptied or removed).
    for (const Name &N : Degraded) {
      auto It = Cells.find(N);
      if (It == Cells.end())
        return "degraded mark on a missing cell: " + N.toString();
      if (It->second.T != CellType::StateTy || !It->second.hasValue())
        return "degraded mark on an empty/statement cell: " + N.toString();
    }
    return "";
  }

  /// Name of the statement cell for edge \p Id (depends on join indexing).
  Name stmtCellName(EdgeId Id) const {
    const CfgEdge *E = G->findEdge(Id);
    assert(E && "no such edge");
    Name Plain = Name::pair(Name::loc(E->Src), Name::loc(E->Dst));
    unsigned Idx = Info->fwdIndexOf(*G, Id);
    if (Idx == 0 || Info->FwdEdgesTo.at(E->Dst).size() < 2)
      return Plain; // back edge or unique forward edge
    return Name::pair(Name::num(Idx), Plain);
  }

  /// Checks Definition 4.1 well-formedness plus internal index consistency.
  /// Returns an empty string when everything holds.
  std::string checkWellFormed() const;

  /// Checks Definition 4.3 (DAIG–AI consistency): every filled cell agrees
  /// with re-evaluating its computation from filled inputs. Expensive;
  /// intended for tests. Returns an empty string when consistent.
  std::string checkAiConsistency();

private:
  //===--------------------------------------------------------------------===//
  // Core state
  //===--------------------------------------------------------------------===//

  Cfg *G;
  std::shared_ptr<const CfgInfo> Info; ///< Pinned snapshot (see Cfg::infoShared).
  Elem EntryValue;
  Statistics *Stats;
  MemoTable<D> *Memo;
  TransferFn Hook;
  EmptiedFn OnCellEmptied;

  std::unordered_map<Name, Cell, NameHash> Cells;
  /// Loc → the state-like cells at it (every cell decodeCellState maps to
  /// that location: states, pre-joins, pre-widens, fix cells), so that
  /// rollback and statement splices visit one location's cells instead of
  /// the whole DAIG. Kept exact by addStateCell/removeCell/construct/
  /// swapWith/adoptUnrollings; auditInvariants checks it.
  std::vector<std::vector<Name>> StateCellsAt;
  std::unordered_map<Name, Comp, NameHash> CompOf; ///< Keyed by destination.
  /// Source name → set of computation destinations depending on it.
  std::unordered_map<Name, std::set<Name>, NameHash> Dependents;
  /// Cells holding budget-degraded values (support/budget.h): ⊤-substituted
  /// on hard exhaustion, or computed from a degraded input (taint). Marks
  /// are erased whenever the cell is emptied or removed — a mark always
  /// describes the value currently stored.
  std::unordered_set<Name, NameHash> Degraded;

  /// Iteration-count context: loop head → current iteration index.
  using CountCtx = std::map<Loc, uint32_t>;

  /// Live metadata per loop instance, keyed by fix-cell name.
  struct LoopInstance {
    Loc Head;
    std::vector<std::pair<Loc, uint32_t>> Ctx; ///< Enclosing counts, outer-first.
    uint32_t K; ///< Fix sources are iterates (K−1, K); K = 1 initially.
  };
  std::unordered_map<Name, LoopInstance, NameHash> Loops;

  /// rebuild() wrapped for use in surgical fallbacks (returns false so the
  /// caller can report that the fast path did not apply).
  bool rebuildFallback() {
    rebuild();
    return false;
  }

  void swapWith(Daig &O) {
    std::swap(Info, O.Info);
    std::swap(Cells, O.Cells);
    std::swap(StateCellsAt, O.StateCellsAt);
    std::swap(CompOf, O.CompOf);
    std::swap(Dependents, O.Dependents);
    std::swap(Loops, O.Loops);
    std::swap(Degraded, O.Degraded);
  }

  //===--------------------------------------------------------------------===//
  // Naming
  //===--------------------------------------------------------------------===//

  /// State-cell name for \p L under iteration context \p Ctx: the location
  /// wrapped by one iteration count per enclosing loop, outermost first
  /// (for a loop head, the final count is its own iterate index).
  Name stateCellName(Loc L, const CountCtx &Ctx) const {
    Name N = Name::loc(L);
    for (Loc H : Info->LoopNestOf[L]) {
      auto It = Ctx.find(H);
      N = Name::iter(N, It == Ctx.end() ? 0u : It->second);
    }
    return N;
  }

  /// Fix-cell (fixed point) name for head \p H: the location wrapped by the
  /// counts of strictly enclosing loops only.
  Name fixCellName(Loc H, const CountCtx &Ctx) const {
    Name N = Name::loc(H);
    const auto &Nest = Info->LoopNestOf[H];
    for (size_t I = 0; I + 1 < Nest.size(); ++I) {
      auto It = Ctx.find(Nest[I]);
      N = Name::iter(N, It == Ctx.end() ? 0u : It->second);
    }
    return N;
  }

  /// Pre-join cell i·n for join input \p Idx at \p L.
  Name preJoinCellName(Loc L, const CountCtx &Ctx, unsigned Idx) const {
    return Name::pair(Name::num(Idx), stateCellName(L, Ctx));
  }

  /// Decodes a state-like name into (location, counts). Returns false for
  /// product/statement names.
  static bool decodeState(Name N, Loc &L, std::vector<uint32_t> &Counts) {
    Counts.clear();
    Name Cur = N;
    while (Cur.valid() && Cur.kind() == Name::Kind::Iter) {
      Counts.push_back(Cur.iterCount());
      Cur = Cur.iterBase();
    }
    if (!Cur.valid() || Cur.kind() != Name::Kind::Loc)
      return false;
    std::reverse(Counts.begin(), Counts.end()); // outermost first
    L = Cur.locId();
    return true;
  }

  /// Extracts the "state part" of any cell name (pre-join and pre-widen
  /// names wrap state names). Returns false for statement cells.
  static bool decodeCellState(Name N, Loc &L,
                              std::vector<uint32_t> &Counts) {
    if (decodeState(N, L, Counts))
      return true;
    if (N.kind() == Name::Kind::Pair) {
      Name Left = N.left();
      if (Left.kind() == Name::Kind::Num)
        return decodeState(N.right(), L, Counts); // pre-join i·n
      if (Left.kind() == Name::Kind::Iter)
        return decodeState(Left, L, Counts); // pre-widen (it_k, it_{k+1})
    }
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Structure mutation helpers
  //===--------------------------------------------------------------------===//

  void addStateCell(Name N) {
    if (Cells.emplace(N, Cell{CellType::StateTy, std::nullopt}).second)
      indexStateCell(N);
  }

  void indexStateCell(Name N) {
    Loc L;
    std::vector<uint32_t> Counts;
    if (!decodeCellState(N, L, Counts))
      return;
    if (L >= StateCellsAt.size())
      StateCellsAt.resize(L + 1);
    StateCellsAt[L].push_back(N);
  }

  void unindexStateCell(Name N) {
    Loc L;
    std::vector<uint32_t> Counts;
    if (!decodeCellState(N, L, Counts) || L >= StateCellsAt.size())
      return;
    std::vector<Name> &At = StateCellsAt[L];
    auto It = std::find(At.begin(), At.end(), N);
    if (It == At.end())
      return;
    *It = At.back();
    At.pop_back();
  }

  void addStmtCell(Name N, const Stmt &S) {
    auto [It, Inserted] = Cells.emplace(
        N, Cell{CellType::StmtTy, std::variant<Stmt, Elem>(S)});
    if (!Inserted)
      It->second.V = std::variant<Stmt, Elem>(S);
  }

  void addComp(Name Dest, FnKind F, std::vector<Name> Srcs) {
    removeComp(Dest);
    for (Name S : Srcs)
      Dependents[S].insert(Dest);
    CompOf[Dest] = Comp{F, std::move(Srcs)};
  }

  void removeComp(Name Dest) {
    auto It = CompOf.find(Dest);
    if (It == CompOf.end())
      return;
    for (Name S : It->second.Srcs) {
      auto DIt = Dependents.find(S);
      if (DIt != Dependents.end()) {
        DIt->second.erase(Dest);
        if (DIt->second.empty())
          Dependents.erase(DIt);
      }
    }
    CompOf.erase(It);
  }

  void removeCell(Name N) {
    removeComp(N);
    if (Cells.erase(N))
      unindexStateCell(N);
    Loops.erase(N);
    if (!Degraded.empty())
      Degraded.erase(N);
  }

  //===--------------------------------------------------------------------===//
  // Construction (Definition A.2, generalized to nested loops)
  //===--------------------------------------------------------------------===//

  void construct() {
    Cells.clear();
    StateCellsAt.clear();
    CompOf.clear();
    Dependents.clear();
    Loops.clear();
    Info = G->infoShared();
    if (!Info->valid())
      return;
    // The entry cell holds φ0 and must have no forward in-edges.
    assert(Info->FwdEdgesTo.count(G->entry()) == 0 &&
           "the entry location cannot be a forward-edge target");
    CountCtx Ctx;
    Name EntryName = stateCellName(G->entry(), Ctx);
    addStateCell(EntryName);
    Cells.at(EntryName).V = std::variant<Stmt, Elem>(EntryValue);

    for (Loc L : Info->Rpo) {
      if (L == G->entry())
        continue;
      if (Info->inAnyLoop(L)) {
        const auto &Nest = Info->LoopNestOf[L];
        if (Nest.size() == 1 && Nest[0] == L) {
          // Outermost loop head: entry edges target iterate 0.
          buildEdgesInto(L, Ctx);
          buildIteration(L, Ctx, 0);
        }
        continue; // body locations are built inside buildIteration
      }
      buildEdgesInto(L, Ctx);
    }
  }

  /// Builds the state cell for \p L under \p Ctx plus the transfer (and, at
  /// join points, pre-join and join) computations over its forward in-edges.
  void buildEdgesInto(Loc L, const CountCtx &Ctx) {
    Name Dest = stateCellName(L, Ctx);
    addStateCell(Dest);
    auto It = Info->FwdEdgesTo.find(L);
    if (It == Info->FwdEdgesTo.end())
      return; // head reachable only through its back edge: entry via loop
    const std::vector<EdgeId> &Ids = It->second;
    if (Ids.size() == 1) {
      const CfgEdge *E = G->findEdge(Ids[0]);
      Name SC = Name::pair(Name::loc(E->Src), Name::loc(E->Dst));
      addStmtCell(SC, E->Label);
      addComp(Dest, FnKind::Transfer, {SC, srcStateName(E->Src, L, Ctx)});
      return;
    }
    std::vector<Name> PreJoins;
    for (unsigned I = 0; I < Ids.size(); ++I) {
      const CfgEdge *E = G->findEdge(Ids[I]);
      Name Plain = Name::pair(Name::loc(E->Src), Name::loc(E->Dst));
      Name SC = Name::pair(Name::num(I + 1), Plain);
      addStmtCell(SC, E->Label);
      Name PJ = preJoinCellName(L, Ctx, I + 1);
      addStateCell(PJ);
      addComp(PJ, FnKind::Transfer, {SC, srcStateName(E->Src, L, Ctx)});
      PreJoins.push_back(PJ);
    }
    addComp(Dest, FnKind::Join, std::move(PreJoins));
  }

  /// Source cell for the edge Src→DstLoc: a loop head's *fixed point* when
  /// the edge leaves its loop, else the head's current iterate / the plain
  /// state cell (footnote 5 of the paper).
  Name srcStateName(Loc Src, Loc DstLoc, const CountCtx &Ctx) const {
    if (Info->isLoopHead(Src) && !Info->NaturalLoops.at(Src).count(DstLoc))
      return fixCellName(Src, Ctx);
    return stateCellName(Src, Ctx);
  }

  /// Builds abstract iteration \p I of the loop headed at \p L: the body
  /// cells under count I, nested loops reset to their initial iterates, the
  /// back-edge transfer into the pre-widen cell, the widen into iterate I+1,
  /// and the fix edge over (I, I+1). Idempotent per (L, Ctx, I).
  void buildIteration(Loc L, CountCtx Ctx, uint32_t I) {
    Ctx[L] = I;
    Name ItI = stateCellName(L, Ctx);
    if (!Cells.count(ItI))
      addStateCell(ItI);
    Ctx[L] = I + 1;
    Name ItNext = stateCellName(L, Ctx);
    addStateCell(ItNext);
    Ctx[L] = I;
    Name PreWiden = Name::pair(ItI, ItNext);
    addStateCell(PreWiden);
    addComp(ItNext, FnKind::Widen, {ItI, PreWiden});
    Name FixDest = fixCellName(L, Ctx);
    if (!Cells.count(FixDest))
      addStateCell(FixDest);
    addComp(FixDest, FnKind::Fix, {ItI, ItNext});
    std::vector<std::pair<Loc, uint32_t>> EnclosingCtx;
    for (Loc H : Info->LoopNestOf[L])
      if (H != L)
        EnclosingCtx.emplace_back(H, Ctx.count(H) ? Ctx.at(H) : 0u);
    Loops[FixDest] = LoopInstance{L, std::move(EnclosingCtx), I + 1};

    // Body cells and computations under count I: walk the body alone, in
    // RPO, skipping the head (first).
    const std::vector<Loc> &Body = Info->LoopBodyRpo.at(L);
    for (size_t BI = 1; BI < Body.size(); ++BI) {
      Loc B = Body[BI];
      const auto &Nest = Info->LoopNestOf[B];
      if (Nest.back() == B && Nest.size() >= 2 &&
          Nest[Nest.size() - 2] == L) {
        // Directly nested loop: entry edges, then its initial iteration.
        buildEdgesInto(B, Ctx);
        buildIteration(B, Ctx, 0);
        continue;
      }
      if (Nest.back() == L)
        buildEdgesInto(B, Ctx);
      // Deeper locations are built by the nested buildIteration.
    }

    // Back edge: transfer from the latch state into the pre-widen cell.
    const CfgEdge *Back = G->findEdge(Info->LoopBackEdge.at(L));
    Name SC = Name::pair(Name::loc(Back->Src), Name::loc(Back->Dst));
    addStmtCell(SC, Back->Label);
    addComp(PreWiden, FnKind::Transfer, {SC, stateCellName(Back->Src, Ctx)});
  }

  //===--------------------------------------------------------------------===//
  // Query evaluation
  //===--------------------------------------------------------------------===//

  //===--------------------------------------------------------------------===//
  // Demand-provenance recording (explainQuery)
  //===--------------------------------------------------------------------===//

  /// Recorder state: non-null only inside explainQuery, so the recording
  /// hooks on the query paths cost one pointer test when inactive.
  struct ProvRecorder {
    DemandTree T;
    std::vector<size_t> Stack; ///< Indices of open demand-miss frames.
  };
  ProvRecorder *Prov = nullptr;

  /// Records a node for \p N under the current frame (or as a root) and
  /// returns its index. Caller has checked Prov.
  size_t provEnter(Name N, DemandOutcome O) {
    size_t Idx = Prov->T.Nodes.size();
    typename DemandTree::Node Nd;
    Nd.N = N;
    Nd.O = O;
    auto CIt = CompOf.find(N);
    Nd.FK = CIt == CompOf.end() ? DemandTree::kNoFn : uint8_t(CIt->second.F);
    Prov->T.Nodes.push_back(std::move(Nd));
    if (Prov->Stack.empty())
      Prov->T.Roots.push_back(Idx);
    else
      Prov->T.Nodes[Prov->Stack.back()].Children.push_back(Idx);
    return Idx;
  }

  /// Retags the open frame (the cell currently being evaluated) — used by
  /// the memo-hit returns and ⊤-degradation.
  void provMarkTop(DemandOutcome O) {
    if (Prov && !Prov->Stack.empty())
      Prov->T.Nodes[Prov->Stack.back()].O = O;
  }

  /// RAII demand-miss frame: records the node and keeps it open (children
  /// attach to it) for the evaluation's dynamic extent — including across
  /// exception unwinds, so a cancelled query still leaves a well-formed
  /// tree.
  class ProvFrame {
  public:
    ProvFrame(Daig &G, Name N) : P(G.Prov) {
      if (!P)
        return;
      P->Stack.push_back(G.provEnter(N, DemandOutcome::Evaluated));
    }
    ~ProvFrame() {
      if (P)
        P->Stack.pop_back();
    }
    ProvFrame(const ProvFrame &) = delete;
    ProvFrame &operator=(const ProvFrame &) = delete;

  private:
    ProvRecorder *P;
  };

  void storeValue(Name N, const Elem &V) {
    auto It = Cells.find(N);
    assert(It != Cells.end() && "storing into a missing cell");
    It->second.V = std::variant<Stmt, Elem>(V);
  }

  void markDegraded(Name N) {
    if (Degraded.insert(N).second) {
      recordDegradedCell();
      if (Stats)
        ++Stats->CellsDegraded;
    }
  }

  /// Hard budget exhaustion: resolve cell \p N to ⊤ — D::initialEntry({})
  /// over-approximates every reachable state of every variable, so the
  /// substitution is sound — mark it degraded, and taint the consuming
  /// evaluation. No memo store: the value was never computed.
  Elem degradeToTop(Name N) {
    Elem Top = D::initialEntry({});
    storeValue(N, Top);
    markDegraded(N);
    budgetState().TaintPending = true;
    provMarkTop(DemandOutcome::TopBudget);
    traceInstant("daig.degrade_top", N.id());
    return Top;
  }

  const Stmt &stmtOf(Name N) const {
    auto It = Cells.find(N);
    assert(It != Cells.end() && It->second.T == CellType::StmtTy &&
           "transfer source 0 must be a statement cell");
    return std::get<Stmt>(*It->second.V);
  }

  /// Q-Loop-Converge / Q-Loop-Unroll, bounded: every iteration checkpoints
  /// the budget, a hard-exhausted budget degrades the fixpoint to ⊤, and
  /// an un-budgeted loop that outruns the iteration ceiling (a widening
  /// that does not stabilize) throws AnalysisDivergence instead of hanging.
  Elem queryFix(Name N) {
    const AnalysisLimits &Limits = analysisLimits();
    uint64_t Iter = 0;
    for (;;) {
      TraceSpan Sp("daig.fix_iter", N.id(), Iter);
      budgetCheckpoint("DAIG fix iteration");
      DAI_FAULT_POINT(Fix);
      if (budgetExhausted())
        return degradeToTop(N);
      Comp C = CompOf.at(N); // copy: unroll rewrites it
      Elem V1 = queryState(C.Srcs[0]);
      Elem V2 = queryState(C.Srcs[1]);
      if (Stats)
        ++Stats->FixChecks;
      if (D::equal(V1, V2)) {
        storeValue(N, V1);
        return V1;
      }
      uint64_t Ceiling = budgetDegraded()
                             ? std::min(Limits.MaxFixUnrollings,
                                        Limits.DegradedFixUnrollings)
                             : Limits.MaxFixUnrollings;
      if (++Iter >= Ceiling) {
        if (budgetActive())
          return degradeToTop(N); // budgeted: degrade, don't diagnose
        throw AnalysisDivergence("fix cell " + N.toString(), Iter);
      }
      if (Stats)
        ++Stats->Unrollings;
      unrollLoop(N);
    }
  }

  /// Demanded unrolling: builds the next abstract iteration and slides the
  /// fix edge forward (the unroll helper of Section 5.2).
  void unrollLoop(Name FixDest) {
    LoopInstance &Inst = Loops.at(FixDest);
    CountCtx Ctx;
    for (const auto &[H, C] : Inst.Ctx)
      Ctx[H] = C;
    uint32_t NextIter = Inst.K;
    buildIteration(Inst.Head, Ctx, NextIter);
    // buildIteration refreshed Loops[FixDest].K to NextIter + 1.
    assert(Loops.at(FixDest).K == NextIter + 1 && "unroll bookkeeping");
  }

  /// Q-Match / Q-Miss evaluation of a non-fix computation.
  ///
  /// Memo keys embed D::hash(In), and a hit returns the stored Elem as-is,
  /// so correctness requires hash() to be a pure function of the value and
  /// equal() to be reflexive on copies (pinned per-domain by the registry
  /// conformance suite). For the type-erased AnyDomain, hash() is
  /// additionally type-tagged with the domain's registry key: values of
  /// different concrete domains can never collide into one memo key, and
  /// because the tag remap is injective per domain, a mixed-domain run
  /// preserves each domain's Q-Match hit/miss pattern exactly.
  Elem evaluateComp(const Comp &C) {
    switch (C.F) {
    case FnKind::Transfer: {
      const Stmt S = stmtOf(C.Srcs[0]); // copy: map may rehash during query
      Elem In = queryState(C.Srcs[1]);
      bool IsCall = S.Kind == StmtKind::Call;
      Name Key = Name::pair(
          Name::fn(FnKind::Transfer),
          Name::pair(Name::valHash(S.hash()), Name::valHash(D::hash(In))));
      if (!IsCall && Memo) {
        if (auto Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return *Hit;
        }
      }
      if (Stats)
        ++Stats->Transfers;
      Elem Out = (IsCall && Hook) ? Hook(S, In) : D::transfer(S, In);
      if (!IsCall && Memo)
        Memo->store(Key, Out);
      return Out;
    }
    case FnKind::Join: {
      std::vector<Elem> Ins;
      Ins.reserve(C.Srcs.size());
      Name Key = Name::fn(FnKind::Join);
      for (Name S : C.Srcs) {
        Ins.push_back(queryState(S));
        Key = Name::pair(Key, Name::valHash(D::hash(Ins.back())));
      }
      if (Memo) {
        if (auto Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return *Hit;
        }
      }
      assert(!Ins.empty() && "join with no inputs");
      Elem Acc = Ins[0];
      for (size_t I = 1; I < Ins.size(); ++I) {
        if (Stats)
          ++Stats->Joins;
        Acc = D::join(Acc, Ins[I]);
      }
      if (Memo)
        Memo->store(Key, Acc);
      return Acc;
    }
    case FnKind::Widen: {
      Elem Prev = queryState(C.Srcs[0]);
      Elem Next = queryState(C.Srcs[1]);
      Name Key = Name::pair(
          Name::fn(FnKind::Widen),
          Name::pair(Name::valHash(D::hash(Prev)), Name::valHash(D::hash(Next))));
      if (Memo) {
        if (auto Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return *Hit;
        }
      }
      if (Stats)
        ++Stats->Widens;
      Elem Out = D::widen(Prev, Next);
      if (Memo)
        Memo->store(Key, Out);
      return Out;
    }
    case FnKind::Fix:
      assert(false && "fix computations are handled by queryFix");
      return D::bottom();
    }
    return D::bottom();
  }

  //===--------------------------------------------------------------------===//
  // Dirtying (Fig. 9) and loop rollback
  //===--------------------------------------------------------------------===//

  void dirtyDependentsOf(Name N) {
    std::set<Name> Visited;
    std::vector<Name> Work;
    auto DIt = Dependents.find(N);
    if (DIt != Dependents.end())
      Work.assign(DIt->second.begin(), DIt->second.end());
    propagateDirty(Work, Visited);
  }

  /// E-Propagate with the E-Loop special case: before emptying a loop
  /// head's first iterate, roll its loop back to the initial fix sources.
  void propagateDirty(std::vector<Name> &Work, std::set<Name> &Visited) {
    while (!Work.empty()) {
      Name N = Work.back();
      Work.pop_back();
      if (!Visited.insert(N).second)
        continue;
      auto It = Cells.find(N);
      if (It == Cells.end())
        continue; // deleted by a rollback while enqueued
      if (It->second.T == CellType::StmtTy)
        continue; // statements are never dirtied by propagation
      maybeRollbackAt(N);
      It = Cells.find(N); // rollback may rehash
      if (It != Cells.end() && It->second.hasValue()) {
        It->second.V.reset();
        if (!Degraded.empty())
          Degraded.erase(N); // an emptied cell carries no provenance
        if (Stats)
          ++Stats->CellsDirtied;
        if (OnCellEmptied)
          OnCellEmptied(N);
      }
      auto DIt = Dependents.find(N);
      if (DIt != Dependents.end())
        for (Name Dep : DIt->second)
          Work.push_back(Dep);
    }
  }

  /// If \p N is the first iterate of an unrolled loop instance, deletes the
  /// unrolled iterations (≥ 1) and resets the fix edge to (0, 1).
  void maybeRollbackAt(Name N) {
    Loc L;
    std::vector<uint32_t> Counts;
    if (!decodeState(N, L, Counts))
      return;
    if (!Info->isLoopHead(L) || L >= Info->LoopNestOf.size())
      return;
    const auto &Nest = Info->LoopNestOf[L];
    if (Counts.size() != Nest.size() || Counts.empty() || Counts.back() != 1)
      return;
    // Reconstruct the fix-cell name from the enclosing counts.
    CountCtx Ctx;
    for (size_t I = 0; I + 1 < Nest.size(); ++I)
      Ctx[Nest[I]] = Counts[I];
    Name FixDest = fixCellName(L, Ctx);
    auto LIt = Loops.find(FixDest);
    if (LIt == Loops.end() || LIt->second.K <= 1)
      return;
    rollbackLoop(FixDest, LIt->second);
  }

  /// Deletes every cell belonging to iterations ≥ 1 of the given instance
  /// (except the first iterate itself, which is kept empty) and resets the
  /// fix computation to the initial iterates.
  void rollbackLoop(Name FixDest, LoopInstance &Inst) {
    Loc L = Inst.Head;
    CountCtx Ctx;
    for (const auto &[H, C] : Inst.Ctx)
      Ctx[H] = C;

    Name It0 = [&] {
      CountCtx C2 = Ctx;
      C2[L] = 0;
      return stateCellName(L, C2);
    }();
    Name It1 = [&] {
      CountCtx C2 = Ctx;
      C2[L] = 1;
      return stateCellName(L, C2);
    }();
    Name PreWiden01 = Name::pair(It0, It1);

    // Only cells at the head and its body locations can belong to the
    // instance (statement cells survive rollback and are not indexed).
    std::vector<Name> ToDelete;
    Loc CL;
    std::vector<uint32_t> Counts;
    for (Loc B : Info->LoopBodyRpo.at(L)) {
      if (B >= StateCellsAt.size())
        continue;
      // L's position within B's nest; fix cells have one fewer count than
      // their head's nest, which the position check tolerates.
      const auto &Nest = Info->LoopNestOf[B];
      size_t P = std::find(Nest.begin(), Nest.end(), L) - Nest.begin();
      for (Name N : StateCellsAt[B]) {
        if (N == It1 || N == PreWiden01)
          continue;
        decodeCellState(N, CL, Counts);
        if (P >= Counts.size() || Counts[P] < 1)
          continue; // a shallower fix cell, or iteration 0
        // Enclosing counts must match this instance's context.
        bool CtxMatch = true;
        for (size_t Q = 0; Q < P && CtxMatch; ++Q)
          CtxMatch =
              Counts[Q] == (Ctx.count(Nest[Q]) ? Ctx.at(Nest[Q]) : 0u);
        if (CtxMatch)
          ToDelete.push_back(N);
      }
    }
    for (Name N : ToDelete)
      removeCell(N);

    addComp(FixDest, FnKind::Fix, {It0, It1});
    Inst.K = 1;
    // The first iterate survives but its value is stale: E-Loop empties it
    // (the caller's propagation continues from it).
    auto It = Cells.find(It1);
    if (It != Cells.end() && It->second.hasValue()) {
      It->second.V.reset();
      if (!Degraded.empty())
        Degraded.erase(It1);
      if (Stats)
        ++Stats->CellsDirtied;
      if (OnCellEmptied)
        OnCellEmptied(It1);
    }
  }

  //===--------------------------------------------------------------------===//
  // Rebuild helpers
  //===--------------------------------------------------------------------===//

  /// The "result" cell name for \p L assuming all enclosing loops are at
  /// their initial iterates (used only for exitCellName where the exit is
  /// never inside a loop).
  Name resultNameFor(Loc L) const {
    CountCtx Ctx;
    if (Info->isLoopHead(L))
      return fixCellName(L, Ctx);
    return stateCellName(L, Ctx);
  }

  /// Precomputed instance membership: fix-cell name → (cell, iteration
  /// count at that instance's loop position), for every cell inside any
  /// loop. One O(cells · depth) pass replaces per-instance scans.
  using InstanceBuckets =
      std::unordered_map<Name, std::vector<std::pair<Name, uint32_t>>,
                         NameHash>;

  InstanceBuckets groupCellsByInstance() const {
    InstanceBuckets B;
    Loc L;
    std::vector<uint32_t> Counts;
    for (const auto &[N, CellV] : Cells) {
      (void)CellV;
      if (!decodeCellState(N, L, Counts))
        continue;
      if (L >= Info->LoopNestOf.size())
        continue;
      const auto &Nest = Info->LoopNestOf[L];
      CountCtx Ctx;
      for (size_t P = 0; P < Nest.size() && P < Counts.size(); ++P) {
        B[fixCellName(Nest[P], Ctx)].emplace_back(N, Counts[P]);
        Ctx[Nest[P]] = Counts[P];
      }
    }
    return B;
  }

  /// True when iteration 0 of \p Inst has identical structure (cells,
  /// computations, statement contents) in \p Fresh — the condition for
  /// re-adopting its demanded unrollings across a structural edit.
  /// \p FreshBucket lists Fresh's cells belonging to this instance.
  bool iterationZeroUnchanged(
      const Daig &Fresh, const LoopInstance &Inst,
      const std::vector<std::pair<Name, uint32_t>> &FreshBucket) {
    Loc L = Inst.Head;
    if (L >= Fresh.Info->LoopNestOf.size() || !Fresh.Info->isLoopHead(L))
      return false;
    if (Fresh.Info->LoopNestOf[L] != Info->LoopNestOf[L])
      return false;
    auto FreshLoop = Fresh.Info->NaturalLoops.find(L);
    auto OldLoop = Info->NaturalLoops.find(L);
    if (FreshLoop == Fresh.Info->NaturalLoops.end() ||
        OldLoop == Info->NaturalLoops.end() ||
        FreshLoop->second != OldLoop->second)
      return false;
    // Every fresh cell belonging to this instance must exist unchanged in
    // the old DAIG (computations equal).
    for (const auto &[N, CountAtL] : FreshBucket) {
      (void)CountAtL;
      auto FreshIt = Fresh.Cells.find(N);
      auto OldIt = Cells.find(N);
      if (OldIt == Cells.end() ||
          OldIt->second.T != FreshIt->second.T)
        return false;
      auto FreshComp = Fresh.CompOf.find(N);
      auto OldComp = CompOf.find(N);
      bool FH = FreshComp != Fresh.CompOf.end();
      bool OH = OldComp != CompOf.end();
      if (FH != OH)
        return false;
      if (FH && FreshComp->second.F != FnKind::Fix &&
          !(FreshComp->second == OldComp->second))
        return false;
    }
    // Statement cells used inside the loop (incl. the back edge and entry
    // edges) must be unchanged.
    for (const auto &[Id, E] : G->edges()) {
      if (!OldLoop->second.count(E.Src) && !OldLoop->second.count(E.Dst))
        continue;
      Name SC = Fresh.stmtCellName(Id);
      auto OldIt = Cells.find(SC);
      if (OldIt == Cells.end() ||
          !(std::get<Stmt>(*OldIt->second.V) == E.Label))
        return false;
    }
    return true;
  }

  /// True when cell \p N (in \p Ref's naming) belongs to the body/iterates
  /// of loop instance \p Inst (any iteration count).
  static bool belongsToInstance(const Daig &Ref, Name N,
                                const LoopInstance &Inst) {
    Loc CL;
    std::vector<uint32_t> Counts;
    if (!decodeCellState(N, CL, Counts))
      return false;
    if (CL >= Ref.Info->LoopNestOf.size())
      return false;
    const auto &CNest = Ref.Info->LoopNestOf[CL];
    size_t P = 0;
    for (; P < CNest.size(); ++P)
      if (CNest[P] == Inst.Head)
        break;
    if (P >= CNest.size() || P >= Counts.size())
      return false;
    for (size_t Q = 0; Q < P; ++Q) {
      uint32_t Expected = 0;
      for (const auto &[H, C] : Inst.Ctx)
        if (H == CNest[Q])
          Expected = C;
      if (Counts[Q] != Expected)
        return false;
    }
    return true;
  }

  /// Copies this DAIG's unrolled iterations (≥ 1) of \p Inst into \p Fresh,
  /// including values, computations, nested instances, and the fix edge.
  /// \p OldBucket lists this DAIG's cells belonging to the instance.
  void adoptUnrollings(Daig &Fresh, Name FixDest,
                       const LoopInstance &Inst,
                       const std::vector<std::pair<Name, uint32_t>> &OldBucket) {
    for (const auto &[N, CountAtL] : OldBucket) {
      (void)CountAtL;
      auto CellIt = Cells.find(N);
      if (CellIt == Cells.end())
        continue;
      const Cell &CellV = CellIt->second;
      auto FreshIt = Fresh.Cells.find(N);
      if (FreshIt == Fresh.Cells.end()) {
        Fresh.Cells.emplace(N, CellV);
        Fresh.indexStateCell(N);
      } else if (CellV.hasValue() && !FreshIt->second.hasValue())
        FreshIt->second.V = CellV.V;
      auto CIt = CompOf.find(N);
      if (CIt != CompOf.end()) {
        auto FreshCIt = Fresh.CompOf.find(N);
        if (FreshCIt == Fresh.CompOf.end() ||
            !(FreshCIt->second == CIt->second))
          Fresh.addComp(N, CIt->second.F, CIt->second.Srcs);
      }
    }
    // Fix edge position and metadata (incl. nested instances).
    auto FIt = CompOf.find(FixDest);
    assert(FIt != CompOf.end() && "unrolled loop must retain its fix edge");
    Fresh.addComp(FixDest, FnKind::Fix, FIt->second.Srcs);
    Fresh.Loops[FixDest] = Inst;
    for (const auto &[NestedDest, NestedInst] : Loops) {
      if (NestedDest == FixDest)
        continue;
      if (belongsToInstance(*this, NestedDest, Inst)) {
        auto NFIt = CompOf.find(NestedDest);
        if (NFIt != CompOf.end())
          Fresh.addComp(NestedDest, FnKind::Fix, NFIt->second.Srcs);
        Fresh.Loops[NestedDest] = NestedInst;
      }
    }
    // Values of the fix cell itself.
    auto ValIt = Cells.find(FixDest);
    if (ValIt != Cells.end() && ValIt->second.hasValue())
      Fresh.Cells.at(FixDest).V = ValIt->second.V;
  }
};

//===----------------------------------------------------------------------===//
// Well-formedness and consistency checking (Definitions 4.1 / 4.3)
//===----------------------------------------------------------------------===//

template <typename D>
  requires AbstractDomain<D>
std::string Daig<D>::checkWellFormed() const {
  // (2) unique destinations and (1) unique names hold by container keys;
  // validate the remaining conditions.
  for (const auto &[Dest, C] : CompOf) {
    auto DIt = Cells.find(Dest);
    if (DIt == Cells.end())
      return "computation destination missing: " + Dest.toString();
    if (DIt->second.T != CellType::StateTy)
      return "computation writes a statement cell: " + Dest.toString();
    for (size_t I = 0; I < C.Srcs.size(); ++I) {
      auto SIt = Cells.find(C.Srcs[I]);
      if (SIt == Cells.end())
        return "computation source missing: " + C.Srcs[I].toString() +
               " (dest " + Dest.toString() + ")";
      // (4) typing: transfer source 0 is a statement; all others are states.
      bool ExpectStmt = (C.F == FnKind::Transfer && I == 0);
      if (ExpectStmt && SIt->second.T != CellType::StmtTy)
        return "transfer source 0 is not a statement: " + Dest.toString();
      if (!ExpectStmt && SIt->second.T != CellType::StateTy)
        return "state source is not a state cell: " + C.Srcs[I].toString();
      if (ExpectStmt && !SIt->second.hasValue())
        return "statement cell is empty: " + C.Srcs[I].toString();
    }
    if (C.F == FnKind::Fix && C.Srcs.size() != 2)
      return "fix edge without exactly two sources: " + Dest.toString();
    if (C.F == FnKind::Widen && C.Srcs.size() != 2)
      return "widen edge without exactly two sources: " + Dest.toString();
  }
  // (5) empty references have dependencies.
  for (const auto &[N, C] : Cells) {
    if (C.T == CellType::StateTy && !C.hasValue() && !CompOf.count(N))
      return "empty cell without a computation: " + N.toString();
    if (C.T == CellType::StmtTy && !C.hasValue())
      return "statement cell without content: " + N.toString();
  }
  // (3) acyclicity via Kahn's algorithm over computation edges.
  std::unordered_map<Name, unsigned, NameHash> InDeg;
  for (const auto &[Dest, C] : CompOf)
    InDeg[Dest] = static_cast<unsigned>(C.Srcs.size());
  std::vector<Name> Ready;
  for (const auto &[N, C] : Cells)
    if (!InDeg.count(N))
      Ready.push_back(N);
  size_t Processed = Ready.size();
  while (!Ready.empty()) {
    Name N = Ready.back();
    Ready.pop_back();
    auto DIt = Dependents.find(N);
    if (DIt == Dependents.end())
      continue;
    for (Name Dep : DIt->second) {
      auto IIt = InDeg.find(Dep);
      if (IIt == InDeg.end())
        continue;
      if (--IIt->second == 0) {
        Ready.push_back(Dep);
        ++Processed;
      }
    }
  }
  if (Processed != Cells.size())
    return "dependency cycle detected (acyclicity violated)";
  return "";
}

template <typename D>
  requires AbstractDomain<D>
std::string Daig<D>::checkAiConsistency() {
  for (const auto &[N, C] : Cells) {
    if (C.T != CellType::StateTy || !C.hasValue())
      continue;
    if (!Degraded.empty() && Degraded.count(N))
      continue; // ⊤-substituted/tainted by a budget: deliberately not the
                // value its computation produces (sound by construction)
    auto CIt = CompOf.find(N);
    if (CIt == CompOf.end())
      continue; // φ0 cell
    const Comp &Comp = CIt->second;
    bool AllFilled = true;
    for (Name S : Comp.Srcs) {
      auto SIt = Cells.find(S);
      if (SIt == Cells.end() || !SIt->second.hasValue()) {
        AllFilled = false;
        break;
      }
    }
    if (!AllFilled)
      return "filled cell " + N.toString() + " depends on an empty cell";
    const Elem &Stored = std::get<Elem>(*C.V);
    if (Comp.F == FnKind::Fix) {
      const Elem &V1 = std::get<Elem>(*Cells.at(Comp.Srcs[0]).V);
      const Elem &V2 = std::get<Elem>(*Cells.at(Comp.Srcs[1]).V);
      if (!D::equal(V1, V2) || !D::equal(Stored, V1))
        return "fix cell " + N.toString() + " inconsistent with its iterates";
      continue;
    }
    Elem Recomputed = [&] {
      switch (Comp.F) {
      case FnKind::Transfer: {
        const Stmt &S = std::get<Stmt>(*Cells.at(Comp.Srcs[0]).V);
        const Elem &In = std::get<Elem>(*Cells.at(Comp.Srcs[1]).V);
        return (S.Kind == StmtKind::Call && Hook) ? Hook(S, In)
                                                  : D::transfer(S, In);
      }
      case FnKind::Join: {
        Elem Acc = std::get<Elem>(*Cells.at(Comp.Srcs[0]).V);
        for (size_t I = 1; I < Comp.Srcs.size(); ++I)
          Acc = D::join(Acc, std::get<Elem>(*Cells.at(Comp.Srcs[I]).V));
        return Acc;
      }
      case FnKind::Widen:
        return D::widen(std::get<Elem>(*Cells.at(Comp.Srcs[0]).V),
                        std::get<Elem>(*Cells.at(Comp.Srcs[1]).V));
      case FnKind::Fix:
        break;
      }
      return D::bottom();
    }();
    if (!D::equal(Stored, Recomputed))
      return "cell " + N.toString() + " disagrees with its computation";
  }
  return "";
}

} // namespace dai

#endif // DAI_DAIG_DAIG_H

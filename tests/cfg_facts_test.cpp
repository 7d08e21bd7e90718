//===-- tests/cfg_facts_test.cpp - Differential test of CFG facts ---------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks analyzeCfg against a naive reference built from the textbook
/// definitions: dominance by walking the immediate-dominator chain, back
/// edges and the well-formedness diagnostics from that walk, loop nesting by
/// probing every location against every natural loop, and per-head body
/// lists by filtering the whole reverse postorder. Every CfgInfo field is
/// compared after every edit of generated sessions, and on hand-built
/// irreducible and two-back-edge CFGs. On small graphs, dominates() is also
/// checked for every pair against dominator sets computed by iterative
/// dataflow, independently of the immediate-dominator tree.
///
//===----------------------------------------------------------------------===//

#include "cfg/cfg_analysis.h"
#include "cfg/program.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dai;

namespace {

/// Dominance by walking the dominator tree upward from \p B.
bool walkDominates(const CfgInfo &Info, Loc A, Loc B) {
  if (A >= Info.Idom.size() || B >= Info.Idom.size() || !Info.Reachable[A] ||
      !Info.Reachable[B])
    return false;
  for (Loc Cur = B;;) {
    if (Cur == A)
      return true;
    Loc Up = Info.Idom[Cur];
    if (Up == Cur)
      return false;
    Cur = Up;
  }
}

/// Dominator sets by the iterative dataflow Dom(n) = {n} ∪ ⋂ Dom(preds),
/// over reachable locations only. Dom[B][A] is true iff A dominates B.
std::vector<std::vector<bool>> dataflowDominators(const Cfg &G,
                                                  const CfgInfo &Info) {
  size_t N = G.numLocs();
  std::vector<std::vector<bool>> Dom(N, std::vector<bool>(N, true));
  for (Loc L = 0; L < N; ++L)
    if (!Info.Reachable[L])
      Dom[L].assign(N, false);
  Dom[G.entry()].assign(N, false);
  Dom[G.entry()][G.entry()] = true;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (Loc L = 0; L < N; ++L) {
      if (L == G.entry() || !Info.Reachable[L])
        continue;
      std::vector<bool> Meet(N, true);
      for (EdgeId Id : G.predEdges(L)) {
        Loc P = G.findEdge(Id)->Src;
        if (!Info.Reachable[P])
          continue;
        for (Loc X = 0; X < N; ++X)
          Meet[X] = Meet[X] && Dom[P][X];
      }
      Meet[L] = true;
      if (Meet != Dom[L]) {
        Dom[L] = std::move(Meet);
        Changed = true;
      }
    }
  }
  return Dom;
}

/// Recomputes every fact downstream of the dominator tree with the naive
/// definitions, from \p Info's reachability, RPO and immediate dominators.
CfgInfo referenceFacts(const Cfg &G, const CfgInfo &Info) {
  CfgInfo Ref;
  Ref.CfgVersion = Info.CfgVersion;
  Ref.Reachable = Info.Reachable;
  Ref.Rpo = Info.Rpo;
  Ref.RpoIndex = Info.RpoIndex;
  Ref.Idom = Info.Idom;

  for (const auto &[Id, E] : G.edges()) {
    if (!Ref.Reachable[E.Src] || !walkDominates(Ref, E.Dst, E.Src))
      continue;
    Ref.BackEdges.insert(Id);
    if (!Ref.LoopBackEdge.emplace(E.Dst, Id).second) {
      Ref.Error = "multiple back edges into location l" +
                  std::to_string(E.Dst) +
                  " (unsupported; merge them with a structured loop)";
      return Ref;
    }
  }

  // Reducible iff repeatedly deleting forward-source-free locations empties
  // the reachable graph.
  std::set<Loc> Left;
  for (Loc L : Ref.Rpo)
    Left.insert(L);
  for (bool Progress = true; Progress;) {
    Progress = false;
    for (Loc L : std::set<Loc>(Left)) {
      bool HasFwdPred = false;
      for (EdgeId Id : G.predEdges(L))
        if (!Ref.BackEdges.count(Id) && Left.count(G.findEdge(Id)->Src))
          HasFwdPred = true;
      if (!HasFwdPred) {
        Left.erase(L);
        Progress = true;
      }
    }
  }
  if (!Left.empty()) {
    Ref.Error = "irreducible control flow: a cycle remains after removing "
                "back edges";
    return Ref;
  }

  // Natural loop of Src→Head: Head plus every location that reaches Src
  // without passing through Head.
  for (const auto &[Head, BackId] : Ref.LoopBackEdge) {
    std::set<Loc> Body = {Head};
    std::vector<Loc> Work = {G.findEdge(BackId)->Src};
    while (!Work.empty()) {
      Loc L = Work.back();
      Work.pop_back();
      if (!Ref.Reachable[L] || !Body.insert(L).second)
        continue;
      for (EdgeId Id : G.predEdges(L))
        Work.push_back(G.findEdge(Id)->Src);
    }
    Ref.NaturalLoops[Head] = std::move(Body);
  }

  // Every location probed against every loop; outermost (largest) first.
  Ref.LoopNestOf.assign(G.numLocs(), {});
  for (Loc L = 0; L < G.numLocs(); ++L) {
    if (!Ref.Reachable[L])
      continue;
    std::vector<Loc> Heads;
    for (const auto &[Head, Body] : Ref.NaturalLoops)
      if (Body.count(L))
        Heads.push_back(Head);
    std::sort(Heads.begin(), Heads.end(), [&](Loc A, Loc B) {
      size_t SA = Ref.NaturalLoops[A].size(), SB = Ref.NaturalLoops[B].size();
      return SA != SB ? SA > SB : A < B;
    });
    Ref.LoopNestOf[L] = std::move(Heads);
  }
  for (const auto &[Head, Body] : Ref.NaturalLoops)
    for (Loc L : Ref.Rpo)
      if (Body.count(L))
        Ref.LoopBodyRpo[Head].push_back(L);

  for (const auto &[Id, E] : G.edges())
    if (!Ref.BackEdges.count(Id) && Ref.Reachable[E.Src])
      Ref.FwdEdgesTo[E.Dst].push_back(Id);
  for (const auto &[L, Ids] : Ref.FwdEdgesTo)
    if (Ids.size() >= 2)
      Ref.JoinPoints.insert(L);
  return Ref;
}

/// Compares every CfgInfo field of analyzeCfg(\p G) against the reference;
/// \p AllPairs additionally checks dominates() for every pair of locations.
void expectMatchesReference(const Cfg &G, const std::string &Ctx,
                            bool AllPairs) {
  CfgInfo Info = analyzeCfg(G);
  CfgInfo Ref = referenceFacts(G, Info);
  ASSERT_EQ(Info.Error, Ref.Error) << Ctx;
  EXPECT_EQ(Info.CfgVersion, G.version()) << Ctx;
  EXPECT_EQ(Info.BackEdges, Ref.BackEdges) << Ctx;
  EXPECT_EQ(Info.LoopBackEdge, Ref.LoopBackEdge) << Ctx;
  if (!Info.valid())
    return;
  EXPECT_EQ(Info.NaturalLoops, Ref.NaturalLoops) << Ctx;
  EXPECT_EQ(Info.LoopNestOf, Ref.LoopNestOf) << Ctx;
  EXPECT_EQ(Info.LoopBodyRpo, Ref.LoopBodyRpo) << Ctx;
  EXPECT_EQ(Info.FwdEdgesTo, Ref.FwdEdgesTo) << Ctx;
  EXPECT_EQ(Info.JoinPoints, Ref.JoinPoints) << Ctx;
  // The fields the reference copies: consistent among themselves.
  ASSERT_EQ(Info.RpoIndex.size(), G.numLocs()) << Ctx;
  for (Loc L = 0; L < G.numLocs(); ++L) {
    bool InRpo = Info.RpoIndex[L] != ~0u;
    EXPECT_EQ(InRpo, bool(Info.Reachable[L])) << Ctx << " l" << L;
    if (InRpo)
      EXPECT_EQ(Info.Rpo[Info.RpoIndex[L]], L) << Ctx;
  }
  for (Loc L : Info.Rpo)
    if (L != G.entry())
      EXPECT_LT(Info.RpoIndex[Info.Idom[L]], Info.RpoIndex[L]) << Ctx;

  // Dominance: every immediate dominator dominates; all pairs on request,
  // against both the walk and the dataflow sets.
  for (Loc L : Info.Rpo)
    EXPECT_TRUE(Info.dominates(Info.Idom[L], L)) << Ctx << " l" << L;
  if (!AllPairs)
    return;
  std::vector<std::vector<bool>> Dom = dataflowDominators(G, Info);
  for (Loc A = 0; A < G.numLocs(); ++A)
    for (Loc B = 0; B < G.numLocs(); ++B) {
      bool Fast = Info.dominates(A, B);
      ASSERT_EQ(Fast, walkDominates(Info, A, B))
          << Ctx << ": l" << A << " dom l" << B;
      ASSERT_EQ(Fast, bool(Dom[B][A])) << Ctx << ": l" << A << " dom l" << B;
    }
}

TEST(CfgFacts, GeneratedSessionsMatchReferenceAfterEveryEdit) {
  // Kind × (inside a loop, at a loop head): every cell must be exercised.
  bool Seen[3][2] = {};
  // Default Section 7.3 mix, and a loop-heavy mix that nests deeper.
  const unsigned Mixes[2][3] = {{85, 10, 5}, {40, 25, 35}};
  for (const auto &Mix : Mixes)
    for (uint64_t Seed : {1u, 7u, 42u, 9001u}) {
      WorkloadOptions Opts;
      Opts.Seed = Seed;
      Opts.PctStmt = Mix[0];
      Opts.PctIf = Mix[1];
      Opts.PctWhile = Mix[2];
      WorkloadGenerator Gen(Opts);
      Program P = Gen.makeInitialProgram();
      const Cfg &G = P.find("main")->Body;
      expectMatchesReference(G, "initial", true);
      for (unsigned Edit = 0; Edit < 60; ++Edit) {
        CfgInfo Before = analyzeCfg(G);
        EditRecord Rec = Gen.applyRandomEdit(P);
        Seen[unsigned(Rec.Kind)][0] |= Before.inAnyLoop(Rec.At);
        Seen[unsigned(Rec.Kind)][1] |= Before.isLoopHead(Rec.At);
        std::string Ctx = "seed " + std::to_string(Seed) + " edit " +
                          std::to_string(Edit);
        expectMatchesReference(G, Ctx, G.numLocs() <= 160);
        if (HasFatalFailure() || HasFailure())
          return;
      }
    }
  for (unsigned K = 0; K < 3; ++K) {
    EXPECT_TRUE(Seen[K][0]) << "edit kind " << K << " never inside a loop";
    EXPECT_TRUE(Seen[K][1]) << "edit kind " << K << " never at a loop head";
  }
}

TEST(CfgFacts, NestedLoopsAllPairs) {
  // entry → h1 → h2 → b → h2 (inner back edge); h2 → l → h1 (outer back
  // edge); h1 → exit; plus a diamond inside the inner body.
  Cfg G;
  Loc H1 = G.addLoc(), H2 = G.addLoc(), B = G.addLoc(), T = G.addLoc(),
      F = G.addLoc(), J = G.addLoc(), Latch = G.addLoc();
  G.addEdge(G.entry(), H1, Stmt::mkSkip());
  G.addEdge(H1, H2, Stmt::mkSkip());
  G.addEdge(H2, B, Stmt::mkSkip());
  G.addEdge(B, T, Stmt::mkSkip());
  G.addEdge(B, F, Stmt::mkSkip());
  G.addEdge(T, J, Stmt::mkSkip());
  G.addEdge(F, J, Stmt::mkSkip());
  G.addEdge(J, H2, Stmt::mkSkip());
  G.addEdge(H2, Latch, Stmt::mkSkip());
  G.addEdge(Latch, H1, Stmt::mkSkip());
  G.addEdge(H1, G.exit(), Stmt::mkSkip());
  Loc Dead = G.addLoc(); // unreachable: dominates nothing, dominated by none
  G.addEdge(Dead, J, Stmt::mkSkip());
  expectMatchesReference(G, "nested", true);
  CfgInfo Info = analyzeCfg(G);
  ASSERT_TRUE(Info.valid()) << Info.Error;
  EXPECT_EQ(Info.LoopNestOf[J], (std::vector<Loc>{H1, H2}));
  EXPECT_EQ(Info.LoopBodyRpo.at(H2).front(), H2);
  EXPECT_FALSE(Info.dominates(Dead, Dead));
  EXPECT_FALSE(Info.dominates(G.entry(), Dead));
  EXPECT_FALSE(Info.dominates(T, J));
  EXPECT_TRUE(Info.dominates(B, J));
}

TEST(CfgFacts, IrreducibleErrorUnchanged) {
  Cfg G;
  Loc A = G.addLoc(), B = G.addLoc();
  G.addEdge(G.entry(), A, Stmt::mkSkip());
  G.addEdge(G.entry(), B, Stmt::mkSkip());
  G.addEdge(A, B, Stmt::mkSkip());
  G.addEdge(B, A, Stmt::mkSkip()); // two-entry cycle
  G.addEdge(A, G.exit(), Stmt::mkSkip());
  expectMatchesReference(G, "irreducible", true);
  EXPECT_EQ(analyzeCfg(G).Error,
            "irreducible control flow: a cycle remains after removing back "
            "edges");
}

TEST(CfgFacts, TwoBackEdgesErrorUnchanged) {
  // One header, two latches: entry → h → {a, b}, a → h, b → h, h → exit.
  Cfg G;
  Loc H = G.addLoc(), A = G.addLoc(), B = G.addLoc();
  G.addEdge(G.entry(), H, Stmt::mkSkip());
  G.addEdge(H, A, Stmt::mkSkip());
  G.addEdge(H, B, Stmt::mkSkip());
  G.addEdge(A, H, Stmt::mkSkip());
  G.addEdge(B, H, Stmt::mkSkip());
  G.addEdge(H, G.exit(), Stmt::mkSkip());
  expectMatchesReference(G, "two back edges", true);
  EXPECT_EQ(analyzeCfg(G).Error,
            "multiple back edges into location l" + std::to_string(H) +
                " (unsupported; merge them with a structured loop)");
}

} // namespace

//===-- cfg/cfg_analysis.cpp - Dominators, loops, reducibility ------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfg/cfg_analysis.h"

#include <algorithm>
#include <cassert>

using namespace dai;

bool CfgInfo::dominates(Loc A, Loc B) const {
  // Interval containment in the dominator tree's pre/post numbering.
  if (A >= DomPre.size() || B >= DomPre.size() || !Reachable[A] ||
      !Reachable[B])
    return false;
  return DomPre[A] <= DomPre[B] && DomPost[B] <= DomPost[A];
}

unsigned CfgInfo::fwdIndexOf(const Cfg &G, EdgeId Id) const {
  const CfgEdge *E = G.findEdge(Id);
  if (!E || BackEdges.count(Id))
    return 0;
  auto It = FwdEdgesTo.find(E->Dst);
  if (It == FwdEdgesTo.end())
    return 0;
  const auto &Vec = It->second;
  auto Pos = std::find(Vec.begin(), Vec.end(), Id);
  return Pos == Vec.end() ? 0 : static_cast<unsigned>(Pos - Vec.begin()) + 1;
}

namespace {

/// Builds per-location successor/predecessor edge-id lists (EdgeId order).
struct Adjacency {
  std::vector<std::vector<EdgeId>> Succ, Pred;

  Adjacency(const Cfg &G) {
    Succ.resize(G.numLocs());
    Pred.resize(G.numLocs());
    for (const auto &[Id, E] : G.edges()) {
      Succ[E.Src].push_back(Id);
      Pred[E.Dst].push_back(Id);
    }
  }
};

/// Iterative DFS computing postorder over reachable locations.
void computePostorder(const Cfg &G, const Adjacency &Adj,
                      std::vector<Loc> &Post, std::vector<bool> &Reachable) {
  Reachable.assign(G.numLocs(), false);
  std::vector<std::pair<Loc, size_t>> Stack;
  Stack.emplace_back(G.entry(), 0);
  Reachable[G.entry()] = true;
  while (!Stack.empty()) {
    auto &[L, NextIdx] = Stack.back();
    if (NextIdx < Adj.Succ[L].size()) {
      EdgeId Id = Adj.Succ[L][NextIdx++];
      Loc To = G.findEdge(Id)->Dst;
      if (!Reachable[To]) {
        Reachable[To] = true;
        Stack.emplace_back(To, 0);
      }
      continue;
    }
    Post.push_back(L);
    Stack.pop_back();
  }
}

/// Numbers the dominator tree in pre/post order with one iterative DFS, so
/// that A dominates B iff A's [pre, post] interval contains B's.
void numberDominatorTree(const Cfg &G, CfgInfo &Info) {
  std::vector<std::vector<Loc>> Children(G.numLocs());
  for (Loc L : Info.Rpo)
    if (L != G.entry())
      Children[Info.Idom[L]].push_back(L);
  Info.DomPre.assign(G.numLocs(), 0);
  Info.DomPost.assign(G.numLocs(), 0);
  uint32_t Clock = 0;
  std::vector<std::pair<Loc, size_t>> Stack;
  Stack.emplace_back(G.entry(), 0);
  Info.DomPre[G.entry()] = Clock++;
  while (!Stack.empty()) {
    auto &[L, NextIdx] = Stack.back();
    if (NextIdx < Children[L].size()) {
      Loc C = Children[L][NextIdx++];
      Info.DomPre[C] = Clock++;
      Stack.emplace_back(C, 0);
      continue;
    }
    Info.DomPost[L] = Clock++;
    Stack.pop_back();
  }
}

} // namespace

CfgInfo dai::analyzeCfg(const Cfg &G) {
  CfgInfo Info;
  Info.CfgVersion = G.version();

  Adjacency Adj(G);

  // Reverse postorder and reachability.
  std::vector<Loc> Post;
  computePostorder(G, Adj, Post, Info.Reachable);
  Info.Rpo.assign(Post.rbegin(), Post.rend());
  Info.RpoIndex.assign(G.numLocs(), ~0u);
  for (uint32_t I = 0; I < Info.Rpo.size(); ++I)
    Info.RpoIndex[Info.Rpo[I]] = I;

  // Dominators: Cooper-Harvey-Kennedy iterative algorithm over RPO.
  Info.Idom.assign(G.numLocs(), InvalidLoc);
  Info.Idom[G.entry()] = G.entry();
  auto intersect = [&](Loc A, Loc B) {
    while (A != B) {
      while (Info.RpoIndex[A] > Info.RpoIndex[B])
        A = Info.Idom[A];
      while (Info.RpoIndex[B] > Info.RpoIndex[A])
        B = Info.Idom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (Loc L : Info.Rpo) {
      if (L == G.entry())
        continue;
      Loc NewIdom = InvalidLoc;
      for (EdgeId Id : Adj.Pred[L]) {
        Loc P = G.findEdge(Id)->Src;
        if (!Info.Reachable[P] || Info.Idom[P] == InvalidLoc)
          continue;
        NewIdom = (NewIdom == InvalidLoc) ? P : intersect(NewIdom, P);
      }
      if (NewIdom != InvalidLoc && Info.Idom[L] != NewIdom) {
        Info.Idom[L] = NewIdom;
        Changed = true;
      }
    }
  }
  numberDominatorTree(G, Info);

  // Back edges: Dst dominates Src. The paper (footnote 7) assumes at most
  // one back edge per header, which structured lowering guarantees.
  for (const auto &[Id, E] : G.edges()) {
    if (!Info.Reachable[E.Src])
      continue;
    if (Info.dominates(E.Dst, E.Src)) {
      Info.BackEdges.insert(Id);
      auto [It, Inserted] = Info.LoopBackEdge.emplace(E.Dst, Id);
      (void)It;
      if (!Inserted) {
        Info.Error = "multiple back edges into location l" +
                     std::to_string(E.Dst) +
                     " (unsupported; merge them with a structured loop)";
        return Info;
      }
    }
  }

  // Reducibility: the graph without back edges must be acyclic. Detect via
  // Kahn's algorithm restricted to reachable locations and forward edges.
  {
    std::vector<uint32_t> InDeg(G.numLocs(), 0);
    uint32_t NumReachable = 0;
    for (Loc L = 0; L < G.numLocs(); ++L)
      if (Info.Reachable[L])
        ++NumReachable;
    for (const auto &[Id, E] : G.edges())
      if (!Info.BackEdges.count(Id) && Info.Reachable[E.Src])
        ++InDeg[E.Dst];
    std::vector<Loc> Work;
    for (Loc L = 0; L < G.numLocs(); ++L)
      if (Info.Reachable[L] && InDeg[L] == 0)
        Work.push_back(L);
    uint32_t Seen = 0;
    while (!Work.empty()) {
      Loc L = Work.back();
      Work.pop_back();
      ++Seen;
      for (EdgeId Id : Adj.Succ[L]) {
        if (Info.BackEdges.count(Id))
          continue;
        Loc To = G.findEdge(Id)->Dst;
        if (--InDeg[To] == 0)
          Work.push_back(To);
      }
    }
    if (Seen != NumReachable) {
      Info.Error = "irreducible control flow: a cycle remains after removing "
                   "back edges";
      return Info;
    }
  }

  // Natural loops: body of back edge Src→Head is {Head} ∪ all locations that
  // reach Src without passing through Head (reverse traversal from Src).
  for (const auto &[Head, BackId] : Info.LoopBackEdge) {
    const CfgEdge *Back = G.findEdge(BackId);
    std::set<Loc> Body = {Head};
    std::vector<Loc> Work;
    if (Back->Src != Head) {
      Body.insert(Back->Src);
      Work.push_back(Back->Src);
    }
    while (!Work.empty()) {
      Loc L = Work.back();
      Work.pop_back();
      for (EdgeId Id : Adj.Pred[L]) {
        Loc P = G.findEdge(Id)->Src;
        if (!Info.Reachable[P] || Body.count(P))
          continue;
        Body.insert(P);
        Work.push_back(P);
      }
    }
    Info.NaturalLoops[Head] = std::move(Body);
  }

  // Loop nesting per location, outermost first. Nested loop bodies are
  // strictly contained in their enclosing bodies, so visiting the loops by
  // decreasing body size appends every location's heads outermost first.
  // Each body is walked once: O(Σ body sizes) = O(locations · depth).
  std::vector<Loc> Heads;
  for (const auto &[Head, Body] : Info.NaturalLoops)
    Heads.push_back(Head);
  std::sort(Heads.begin(), Heads.end(), [&](Loc A, Loc B) {
    size_t SA = Info.NaturalLoops[A].size(), SB = Info.NaturalLoops[B].size();
    if (SA != SB)
      return SA > SB;
    return A < B;
  });
  Info.LoopNestOf.assign(G.numLocs(), {});
  for (Loc Head : Heads)
    for (Loc L : Info.NaturalLoops[Head])
      Info.LoopNestOf[L].push_back(Head);

  // Per-head body lists in RPO (the head dominates its body, so it comes
  // first), from one pass over Rpo.
  for (Loc L : Info.Rpo)
    for (Loc Head : Info.LoopNestOf[L])
      Info.LoopBodyRpo[Head].push_back(L);

  // Forward-edge indexing and join points.
  for (const auto &[Id, E] : G.edges()) {
    if (Info.BackEdges.count(Id) || !Info.Reachable[E.Src])
      continue;
    Info.FwdEdgesTo[E.Dst].push_back(Id); // edges() iteration is EdgeId-ordered
  }
  for (const auto &[L, Ids] : Info.FwdEdgesTo)
    if (Ids.size() >= 2)
      Info.JoinPoints.insert(L);

  return Info;
}

//===----------------------------------------------------------------------===//
// Cached structural facts (Cfg::info)
//===----------------------------------------------------------------------===//

// Defined here rather than in cfg.cpp because they need CfgInfo complete.
// The cache key is structuralVersion(): statement-only edits (replaceStmt)
// keep it, so between two structural edits every consumer — DAIG
// construction across all engine instances, edits.cpp's splice-point probe,
// the workload generator's reachability sampling — shares ONE derivation of
// dominators, loops, and RPO instead of each re-running analyzeCfg.

std::shared_ptr<const CfgInfo> Cfg::infoShared() const {
  if (!InfoCache || InfoCacheVersion != StructVersion) {
    InfoCache = std::make_shared<const CfgInfo>(analyzeCfg(*this));
    InfoCacheVersion = StructVersion;
  }
  return InfoCache;
}

const CfgInfo &Cfg::info() const { return *infoShared(); }

//===-- cfg/cfg_analysis.h - Dominators, loops, reducibility ----*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural analysis of a CFG: dominators, back edges, natural loops, loop
/// nesting, forward-edge indexing, and join points — all the ingredients of
/// DAIG construction (Definition A.2 of the paper) and of the paper's
/// well-formedness requirement that programs be reducible flow graphs.
///
/// Cost: O(E + Σ loop body sizes), up to log factors from the ordered
/// containers. Dominators come from Cooper, Harvey & Kennedy's iterative
/// algorithm; the dominator tree is then numbered in pre/post order, so
/// every dominance test — including back-edge detection — is an O(1)
/// interval check rather than a walk up the tree. Loop nesting and the
/// per-head body lists are built by walking each natural-loop body once.
///
/// Definitions follow Appendix A: edges partition into forward edges E_f and
/// back edges E_b (Dst dominates Src); each back edge determines a natural
/// loop; join points are locations with *forward* in-degree ≥ 2 (a loop head
/// with a single non-loop predecessor is not a join).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_CFG_CFG_ANALYSIS_H
#define DAI_CFG_CFG_ANALYSIS_H

#include "cfg/cfg.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace dai {

/// Immutable structural facts about one CFG snapshot.
///
/// Produced by analyzeCfg; check valid() before use. An invalid CfgInfo
/// carries a diagnostic in Error (e.g. irreducible control flow, multiple
/// back edges into one header), matching the paper's well-formedness
/// preconditions rather than silently misanalyzing.
struct CfgInfo {
  uint64_t CfgVersion = 0;     ///< Cfg::version() this was computed from.
  std::string Error;           ///< Empty iff the CFG is well-formed.

  std::vector<bool> Reachable; ///< Per-location reachability from entry.
  std::vector<Loc> Rpo;        ///< Reverse postorder of reachable locations.
  std::vector<uint32_t> RpoIndex; ///< Loc → index in Rpo (or ~0u).
  std::vector<Loc> Idom;       ///< Immediate dominator (entry maps to itself).
  /// Pre/post numbers of each reachable location in the dominator tree:
  /// A dominates B iff [DomPre[A], DomPost[A]] contains [DomPre[B],
  /// DomPost[B]].
  std::vector<uint32_t> DomPre, DomPost;

  std::set<EdgeId> BackEdges;  ///< E_b: edges whose Dst dominates their Src.
  std::map<Loc, EdgeId> LoopBackEdge;   ///< Loop head → its unique back edge.
  std::map<Loc, std::set<Loc>> NaturalLoops; ///< Head → body (incl. head).
  /// Head → its natural-loop body (incl. head) in reverse postorder; the
  /// head comes first.
  std::map<Loc, std::vector<Loc>> LoopBodyRpo;
  /// Loc → enclosing loop heads, outermost first. A loop head's own loop is
  /// included (last element).
  std::vector<std::vector<Loc>> LoopNestOf;

  /// Loc → forward in-edges, ordered by EdgeId; the 1-based position in this
  /// vector is the paper's fwd-edges-to index.
  std::map<Loc, std::vector<EdgeId>> FwdEdgesTo;
  std::set<Loc> JoinPoints;    ///< L⊔: forward in-degree ≥ 2.

  bool valid() const { return Error.empty(); }

  bool isLoopHead(Loc L) const { return LoopBackEdge.count(L) != 0; }
  bool inAnyLoop(Loc L) const {
    return L < LoopNestOf.size() && !LoopNestOf[L].empty();
  }
  /// Nesting depth (number of enclosing loops, counting a head's own loop).
  size_t loopDepth(Loc L) const {
    return L < LoopNestOf.size() ? LoopNestOf[L].size() : 0;
  }
  bool isJoin(Loc L) const { return JoinPoints.count(L) != 0; }
  /// True when reachable \p A dominates reachable \p B (reflexive). O(1).
  bool dominates(Loc A, Loc B) const;

  /// 1-based fwd-edges-to index of edge \p Id into its destination, or 0 if
  /// \p Id is a back edge.
  unsigned fwdIndexOf(const Cfg &G, EdgeId Id) const;
};

/// Computes structural facts for \p G. Never fails hard: inspect valid().
CfgInfo analyzeCfg(const Cfg &G);

} // namespace dai

#endif // DAI_CFG_CFG_ANALYSIS_H

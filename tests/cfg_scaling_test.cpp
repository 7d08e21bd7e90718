//===-- tests/cfg_scaling_test.cpp - CFG facts scale linearly -------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scaling regression lane for analyzeCfg: a straight-line CFG of 200,000
/// statements followed by one while loop. Its dominator tree is 200,000
/// deep, so a dominance test that walks the tree makes back-edge detection
/// cost on the order of 10^10 steps, while the pre/post-numbered tree
/// answers in milliseconds. The ctest TIMEOUT on this lane is the check.
/// The DAIG is deliberately not queried here: its evaluation recursion
/// depth is a separate concern.
///
//===----------------------------------------------------------------------===//

#include "cfg/cfg_analysis.h"

#include <gtest/gtest.h>

using namespace dai;

TEST(CfgScaling, LongStraightLineThenOneLoop) {
  constexpr unsigned kStmts = 200000;
  Cfg G;
  Loc Cur = G.entry();
  for (unsigned I = 0; I < kStmts; ++I) {
    Loc Next = G.addLoc();
    G.addEdge(Cur, Next, Stmt::mkSkip());
    Cur = Next;
  }
  // while (...) { skip }: head Cur, body B, back edge B → Cur.
  Loc B = G.addLoc();
  G.addEdge(Cur, B, Stmt::mkSkip());
  G.addEdge(B, Cur, Stmt::mkSkip());
  G.addEdge(Cur, G.exit(), Stmt::mkSkip());

  const CfgInfo &Info = G.info();
  ASSERT_TRUE(Info.valid()) << Info.Error;
  EXPECT_TRUE(Info.dominates(G.entry(), G.exit()));
  EXPECT_FALSE(Info.dominates(G.exit(), G.entry()));
  EXPECT_TRUE(Info.dominates(Cur, B));
  EXPECT_EQ(Info.BackEdges.size(), 1u);
  EXPECT_TRUE(Info.isLoopHead(Cur));
  EXPECT_EQ(Info.loopDepth(Cur), 1u);
  EXPECT_EQ(Info.loopDepth(B), 1u);
  EXPECT_EQ(Info.loopDepth(G.exit()), 0u);
  EXPECT_EQ(Info.LoopBodyRpo.at(Cur), (std::vector<Loc>{Cur, B}));
}

//===-- tests/engine_stress_test.cpp - Interprocedural stress tests -------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized interprocedural stress: the Section 7.3 workload (including
/// call statements) driven through a *persistent* InterprocEngine, checked
/// after every few edits against a from-scratch engine on the same program.
/// The persistent engine's monotone entry approximation (entries only grow
/// between explicit re-seeds) means its results must *over-approximate* the
/// fresh engine's — never under-approximate (soundness under edits) — and
/// after reseedAllEntries() they must match exactly.
///
//===----------------------------------------------------------------------===//

#include "interproc/engine.h"

#include "domain/interval.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

using namespace dai;
using namespace dai::test;

namespace {

class EngineStressSeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineStressSeed, PersistentEngineStaysSoundUnderEdits) {
  WorkloadOptions Opts;
  Opts.Seed = GetParam();
  WorkloadGenerator Gen(Opts);
  Program Initial = Gen.makeInitialProgram();
  InterprocEngine<IntervalDomain> Engine(Initial, "main", /*K=*/1);
  ASSERT_TRUE(Engine.valid()) << Engine.error();

  for (unsigned Edit = 0; Edit < 30; ++Edit) {
    EditRecord R = Gen.applyRandomEdit(Engine.program());
    if (R.Kind == EditKind::InsertStmt)
      Engine.applyInsertedStatementEdit("main", R.At, R.Splice);
    else
      Engine.applyStructuralEdit("main");
    for (Loc Q : Gen.sampleQueryLocations(Engine.program(), 3))
      (void)Engine.queryMain(Q);

    // Structural self-audit after every edit, including each DAIG's
    // per-location cell index across splices, rebuilds and rollbacks.
    ASSERT_EQ(Engine.auditInvariants(), "") << "edit " << Edit;
    if (Edit % 6 != 5)
      continue;
    // Oracle: a fresh engine on a copy of the current program.
    InterprocEngine<IntervalDomain> Fresh(Engine.program(), "main", 1);
    ASSERT_TRUE(Fresh.valid()) << Fresh.error();
    const Cfg *MainCfg = Engine.cfgOf("main");
    CfgInfo Info = analyzeCfg(*MainCfg);
    ASSERT_TRUE(Info.valid());
    for (Loc L : Info.Rpo) {
      IntervalState Incr = Engine.queryMain(L);
      IntervalState Scratch = Fresh.queryMain(L);
      EXPECT_TRUE(IntervalDomain::leq(Scratch, Incr))
          << "edit " << Edit << " loc l" << L
          << ": incremental result must over-approximate from-scratch\n"
          << "  incremental: " << IntervalDomain::toString(Incr) << "\n"
          << "  from-scratch: " << IntervalDomain::toString(Scratch);
    }
  }

  // Explicit re-seeding restores full precision: results now match a fresh
  // engine exactly.
  Engine.reseedAllEntries();
  InterprocEngine<IntervalDomain> Fresh(Engine.program(), "main", 1);
  const Cfg *MainCfg = Engine.cfgOf("main");
  CfgInfo Info = analyzeCfg(*MainCfg);
  for (Loc L : Info.Rpo) {
    IntervalState Incr = Engine.queryMain(L);
    IntervalState Scratch = Fresh.queryMain(L);
    EXPECT_TRUE(IntervalDomain::equal(Incr, Scratch))
        << "post-reseed mismatch at l" << L << "\n  incremental: "
        << IntervalDomain::toString(Incr)
        << "\n  from-scratch: " << IntervalDomain::toString(Scratch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineStressSeed,
                         ::testing::Values(11u, 23u, 47u));

TEST(EngineStress, ResetMatchesFreshEngine) {
  // The demand-driven-only configuration's reset must behave like a fresh
  // engine (modulo the shared memo table).
  WorkloadOptions Opts;
  Opts.Seed = 77;
  WorkloadGenerator Gen(Opts);
  Program Initial = Gen.makeInitialProgram();
  InterprocEngine<IntervalDomain> Engine(Initial, "main", 0);
  ASSERT_TRUE(Engine.valid());
  for (unsigned Edit = 0; Edit < 15; ++Edit) {
    Gen.applyRandomEdit(Engine.program());
    Engine.resetAllInstances();
    for (Loc Q : Gen.sampleQueryLocations(Engine.program(), 2))
      (void)Engine.queryMain(Q);
  }
  InterprocEngine<IntervalDomain> Fresh(Engine.program(), "main", 0);
  Loc Exit = Engine.cfgOf("main")->exit();
  EXPECT_TRUE(IntervalDomain::equal(Engine.queryMain(Exit),
                                    Fresh.queryMain(Exit)));
}

} // namespace

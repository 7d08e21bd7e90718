//===-- tests/trace_concurrency_test.cpp - Traced concurrent runs ---------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracing under corpus-level parallelism (the tsan lane's observability
/// suite): with tracing ENABLED and independent serial InterprocEngines
/// running one per TaskPool task, the per-thread rings record concurrently
/// with no data races (single-writer slots, release-published heads), the
/// export is ts-monotone per tid and tags worker events with distinct
/// tids, and the Chrome JSON file passes the same structural checks
/// scripts/check_trace_json.sh enforces.
///
//===----------------------------------------------------------------------===//

#include "interproc/engine.h"

#include "domain/interval.h"
#include "support/observe.h"
#include "support/task_pool.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace dai;

namespace {

using Engine = InterprocEngine<IntervalDomain>;

Program makeWorkload(uint64_t Seed) {
  WorkloadOptions Opts;
  Opts.Seed = Seed;
  Opts.PctCallStmt = 20; // call-heavy: several instances per engine
  Opts.HelperCount = 5;
  WorkloadGenerator Gen(Opts);
  Program P = Gen.makeInitialProgram();
  for (unsigned I = 0; I < 10; ++I)
    Gen.applyRandomEdit(P);
  return P;
}

constexpr unsigned kWorkers = 4;

/// The corpus pattern: one program per task, each analyzed by its own
/// serial engine on a kWorkers pool. The tasks meet at a barrier no single
/// thread can pass alone, so with kWorkers tasks on kWorkers threads every
/// engine runs on a distinct thread and all of them overlap. Returns the
/// total number of instances analyzed.
size_t analyzeCorpus(uint64_t Seed) {
  std::vector<Program> Programs;
  for (unsigned I = 0; I < kWorkers; ++I)
    Programs.push_back(makeWorkload(Seed + I));
  TaskPool Pool(kWorkers);
  std::atomic<unsigned> Arrived{0};
  std::atomic<size_t> Instances{0};
  std::vector<TaskPool::Task> Tasks;
  for (Program &P : Programs)
    Tasks.push_back([&Arrived, &Instances, &P] {
      Arrived.fetch_add(1);
      while (Arrived.load() < kWorkers)
        std::this_thread::yield();
      Engine E(std::move(P), "main", /*K=*/1);
      EXPECT_TRUE(E.valid()) << E.error();
      Instances.fetch_add(E.analyzeAllFromMain());
      EXPECT_EQ(E.auditInvariants(), "");
    });
  Pool.run(std::move(Tasks));
  return Instances.load();
}

TEST(TraceConcurrency, CorpusEnginesRecordScheduleSafely) {
  setTracingEnabled(true);
  resetTrace();
  size_t Instances = analyzeCorpus(7);
  setTracingEnabled(false);
  EXPECT_GT(Instances, size_t(kWorkers));

  std::vector<TaggedTraceEvent> Evs = collectTrace();
  ASSERT_FALSE(Evs.empty());
  EXPECT_EQ(traceStats().EventsRecorded, Evs.size());

  // Export order: ts monotone per tid (what chrome://tracing relies on and
  // check_trace_json.sh asserts on the emitted file).
  for (size_t I = 1; I < Evs.size(); ++I)
    if (Evs[I - 1].Tid == Evs[I].Tid) {
      EXPECT_LE(Evs[I - 1].E.TsNs, Evs[I].E.TsNs) << "event " << I;
    }

  // The traced boundaries of a corpus run: per-task spans from the pool
  // and analysis spans from inside the tasks, each engine's on the ring of
  // the worker that ran it.
  std::set<uint32_t> TaskTids, EvalTids;
  for (const TaggedTraceEvent &T : Evs) {
    std::string Nm = T.E.Nm;
    if (Nm == "taskpool.task")
      TaskTids.insert(T.Tid);
    else if (Nm == "daig.cell_eval")
      EvalTids.insert(T.Tid);
  }
  EXPECT_EQ(TaskTids.size(), size_t(kWorkers));
  EXPECT_EQ(EvalTids, TaskTids) << "expected one analyzing ring per worker";

  resetTrace();
}

/// Forces all four pool threads to record SIMULTANEOUSLY (a barrier no
/// single thread can pass alone — with 4 tasks on 4 threads they must run
/// on distinct threads), so the single-writer rings and the exporter's
/// cross-ring collection race for real under the tsan lane, and the export
/// provably carries one tid per recording thread.
TEST(TraceConcurrency, WorkerRingsRecordConcurrently) {
  setTracingEnabled(true);
  resetTrace();
  constexpr unsigned N = 4;
  TaskPool Pool(N);
  std::atomic<unsigned> Arrived{0};
  std::vector<TaskPool::Task> Tasks;
  for (unsigned I = 0; I < N; ++I)
    Tasks.push_back([&Arrived, I] {
      Arrived.fetch_add(1);
      while (Arrived.load() < N)
        std::this_thread::yield();
      TraceSpan Sp("trace_test.worker_span", I);
      traceInstant("trace_test.worker_instant", I);
    });
  Pool.run(std::move(Tasks));
  setTracingEnabled(false);

  std::set<uint32_t> Tids;
  unsigned Spans = 0;
  for (const TaggedTraceEvent &T : collectTrace()) {
    std::string Nm = T.E.Nm;
    if (Nm == "trace_test.worker_span") {
      ++Spans;
      Tids.insert(T.Tid);
    }
  }
  EXPECT_EQ(Spans, N);
  EXPECT_EQ(Tids.size(), size_t(N)) << "expected one ring per thread";
  resetTrace();
}

TEST(TraceConcurrency, ChromeExportOfACorpusRunIsWellFormed) {
  setTracingEnabled(true);
  resetTrace();
  analyzeCorpus(11);
  setTracingEnabled(false);

  const char *Path = "trace_concurrency_export.json";
  ASSERT_TRUE(writeChromeTrace(Path));
  std::FILE *F = std::fopen(Path, "r");
  ASSERT_NE(F, nullptr);
  std::string Content;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof Buf, F)) > 0)
    Content.append(Buf, N);
  std::fclose(F);
  std::remove(Path);

  EXPECT_EQ(Content.rfind("{\"traceEvents\": [\n", 0), 0u);
  EXPECT_NE(Content.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Content.find("\"name\": \"daig.cell_eval\""), std::string::npos);
  EXPECT_EQ(Content.substr(Content.size() - 4), "\n]}\n");

  resetTrace();
}

/// Tracing toggled off again: a corpus run records NOTHING — the
/// disabled-hook contract the bench gate's *_trace_* zero-assert enforces
/// end to end.
TEST(TraceConcurrency, UntracedCorpusRunRecordsNothing) {
  setTracingEnabled(false);
  resetTrace();
  EXPECT_GT(analyzeCorpus(13), size_t(kWorkers));
  EXPECT_EQ(traceStats().EventsRecorded, 0u);
  EXPECT_EQ(traceStats().EventsDropped, 0u);
  EXPECT_TRUE(collectTrace().empty());
}

} // namespace

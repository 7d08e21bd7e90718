//===-- support/statistics.h - Analysis operation counters -----*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters for abstract-interpretation work performed by the framework.
/// The paper's evaluation (Section 7.3) compares analysis configurations by
/// latency; these counters additionally let tests assert *exact* reuse
/// behavior (e.g., the Section 2 example: a re-query after the Fig. 4b edit
/// executes exactly two transfers and one join).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_SUPPORT_STATISTICS_H
#define DAI_SUPPORT_STATISTICS_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ostream>

namespace dai {

/// Work counters shared by the DAIG, memo table, and batch interpreter.
struct Statistics {
  uint64_t Transfers = 0;     ///< Abstract transfer-function applications.
  uint64_t Joins = 0;         ///< Join (⊔) applications.
  uint64_t Widens = 0;        ///< Widen (∇) applications.
  uint64_t FixChecks = 0;     ///< Convergence checks at fix edges.
  uint64_t Unrollings = 0;    ///< Demanded loop unrollings (Q-Loop-Unroll).
  uint64_t CellReuses = 0;    ///< Q-Reuse hits (value already in DAIG).
  uint64_t MemoHits = 0;      ///< Q-Match hits (auxiliary memo table).
  uint64_t MemoMisses = 0;    ///< Q-Miss events (computed and memoized).
  uint64_t CellsDirtied = 0;  ///< Reference cells emptied by edits.
  uint64_t CallSummaries = 0; ///< Interprocedural callee-summary demands.
  uint64_t MemoEvictions = 0; ///< Memo-table entries dropped by the LRU cap.
  uint64_t CellsDegraded = 0; ///< Cells ⊤-substituted or taint-marked by a
                              ///< budget (support/budget.h) — nonzero means
                              ///< some answers carry degraded provenance.
  uint64_t ChecksEvaluated = 0; ///< Check obligations evaluated against an
                                ///< abstract pre-state (analysis/checker.h).
  uint64_t ChecksRechecked = 0; ///< Obligations re-evaluated by an
                                ///< incremental re-check pass (the demanded
                                ///< slice; cache hits are not counted).
  uint64_t AlarmsRaised = 0;    ///< WARNING/ERROR verdicts recorded in a
                                ///< ChecksDb (post degraded-clamping).

  void reset() { *this = Statistics(); }

  /// Total domain operations (the expensive work in rich domains).
  uint64_t domainOps() const { return Transfers + Joins + Widens; }

  /// Accumulates another counter set into this one (all fields are monotone
  /// counters, so addition is the correct merge). This is the aggregation
  /// primitive for runs that span several engines: each engine owns its
  /// Statistics (one engine per TaskPool task in corpus runs), and callers
  /// fold them into a total once the engines are done.
  void mergeFrom(const Statistics &O) {
    Transfers += O.Transfers;
    Joins += O.Joins;
    Widens += O.Widens;
    FixChecks += O.FixChecks;
    Unrollings += O.Unrollings;
    CellReuses += O.CellReuses;
    MemoHits += O.MemoHits;
    MemoMisses += O.MemoMisses;
    CellsDirtied += O.CellsDirtied;
    CallSummaries += O.CallSummaries;
    MemoEvictions += O.MemoEvictions;
    CellsDegraded += O.CellsDegraded;
    ChecksEvaluated += O.ChecksEvaluated;
    ChecksRechecked += O.ChecksRechecked;
    AlarmsRaised += O.AlarmsRaised;
  }

  Statistics operator-(const Statistics &O) const {
    Statistics R;
    R.Transfers = Transfers - O.Transfers;
    R.Joins = Joins - O.Joins;
    R.Widens = Widens - O.Widens;
    R.FixChecks = FixChecks - O.FixChecks;
    R.Unrollings = Unrollings - O.Unrollings;
    R.CellReuses = CellReuses - O.CellReuses;
    R.MemoHits = MemoHits - O.MemoHits;
    R.MemoMisses = MemoMisses - O.MemoMisses;
    R.CellsDirtied = CellsDirtied - O.CellsDirtied;
    R.CallSummaries = CallSummaries - O.CallSummaries;
    R.MemoEvictions = MemoEvictions - O.MemoEvictions;
    R.CellsDegraded = CellsDegraded - O.CellsDegraded;
    R.ChecksEvaluated = ChecksEvaluated - O.ChecksEvaluated;
    R.ChecksRechecked = ChecksRechecked - O.ChecksRechecked;
    R.AlarmsRaised = AlarmsRaised - O.AlarmsRaised;
    return R;
  }
};

inline std::ostream &operator<<(std::ostream &OS, const Statistics &S) {
  OS << "{transfers=" << S.Transfers << " joins=" << S.Joins
     << " widens=" << S.Widens << " unrollings=" << S.Unrollings
     << " cellReuses=" << S.CellReuses << " memoHits=" << S.MemoHits
     << " memoMisses=" << S.MemoMisses << " dirtied=" << S.CellsDirtied
     << " callSummaries=" << S.CallSummaries
     << " memoEvictions=" << S.MemoEvictions
     << " cellsDegraded=" << S.CellsDegraded
     << " checksEvaluated=" << S.ChecksEvaluated
     << " checksRechecked=" << S.ChecksRechecked
     << " alarmsRaised=" << S.AlarmsRaised << "}";
  return OS;
}

/// Counters for DBM strong-closure work in relational domains (octagon).
/// Closure is the dominant cost of the Fig. 10 workload, so benches report
/// these alongside wall time to explain *why* latency moved: a healthy
/// incremental pipeline shows IncrementalCloses ≫ FullCloses.
///
/// Kept process-global (per thread) rather than inside Statistics because
/// domain values are plain data with no back-pointer to an engine; benches
/// snapshot-and-subtract around the region of interest.
struct ClosureCounters {
  uint64_t FullCloses = 0;        ///< O(n³) Floyd–Warshall closures run.
  uint64_t IncrementalCloses = 0; ///< O(n²) single-constraint re-closures.
  uint64_t ClosesSkipped = 0;     ///< close() calls on already-closed values.
  uint64_t CachedCloses = 0;      ///< Closures answered by a closedView cache.
  uint64_t CellsTouched = 0;      ///< DBM cells tightened during closure.
  uint64_t CellsStored = 0;       ///< Cumulative DBM cells allocated; the
                                  ///< half-matrix layout shows up here as a
                                  ///< ~2× drop vs. the dense (2n)² layout.
  uint64_t PeakDbmBytes = 0;      ///< High-water bytes of a single DBM
                                  ///< allocation (gauge, not a counter).

  void reset() { *this = ClosureCounters(); }

  /// Cross-thread merge: counters add; the PeakDbmBytes gauge merges via
  /// max (the process-wide peak is the max of the per-thread peaks).
  void mergeFrom(const ClosureCounters &O) {
    FullCloses += O.FullCloses;
    IncrementalCloses += O.IncrementalCloses;
    ClosesSkipped += O.ClosesSkipped;
    CachedCloses += O.CachedCloses;
    CellsTouched += O.CellsTouched;
    CellsStored += O.CellsStored;
    PeakDbmBytes = std::max(PeakDbmBytes, O.PeakDbmBytes);
  }

  ClosureCounters operator-(const ClosureCounters &O) const {
    ClosureCounters R;
    R.FullCloses = FullCloses - O.FullCloses;
    R.IncrementalCloses = IncrementalCloses - O.IncrementalCloses;
    R.ClosesSkipped = ClosesSkipped - O.ClosesSkipped;
    R.CachedCloses = CachedCloses - O.CachedCloses;
    R.CellsTouched = CellsTouched - O.CellsTouched;
    R.CellsStored = CellsStored - O.CellsStored;
    // A gauge, not subtractable: the delta carries the later snapshot's
    // peak, which covers the whole process history. A region that wants its
    // OWN peak (the bench's per-size sweep does) must zero the gauge at the
    // start of the region: `closureCounters().PeakDbmBytes = 0`.
    R.PeakDbmBytes = PeakDbmBytes;
    return R;
  }
};

inline std::ostream &operator<<(std::ostream &OS, const ClosureCounters &C) {
  OS << "{fullCloses=" << C.FullCloses
     << " incrementalCloses=" << C.IncrementalCloses
     << " closesSkipped=" << C.ClosesSkipped
     << " cachedCloses=" << C.CachedCloses
     << " cellsTouched=" << C.CellsTouched
     << " cellsStored=" << C.CellsStored
     << " peakDbmBytes=" << C.PeakDbmBytes << "}";
  return OS;
}

/// The thread's closure-counter sink (see ClosureCounters).
inline ClosureCounters &closureCounters() {
  static thread_local ClosureCounters Counters;
  return Counters;
}

/// Counters for the sparse zone domain (domain/zone.h). The zone subsystem's
/// whole point is that transfer/query cost scales with the number of LIVE
/// constraints, not the dimension count — these counters let benches and the
/// CI gate verify that claim deterministically: on the mostly-⊤ Fig. 10
/// workload, ClosureVerticesVisited should grow sub-quadratically in the
/// variable-pool size while the octagon's CellsTouched stays ~n².
///
/// thread_local like ClosureCounters (one analysis engine per thread).
struct ZoneCounters {
  uint64_t EdgesStored = 0;     ///< Cumulative graph edges materialized
                                ///< (inserts, not weight updates) — the
                                ///< sparse analogue of CellsStored.
  uint64_t PotentialRepairs = 0; ///< Bellman–Ford potential-repair runs
                                 ///< triggered by constraint additions.
  uint64_t ClosureVerticesVisited = 0; ///< Vertices scanned by the closure
                                       ///< kernels (restricted single-source
                                       ///< sweeps + incremental cross
                                       ///< products). Deterministic on a
                                       ///< seeded workload; the CI gate
                                       ///< metric.
  uint64_t FullCloses = 0;        ///< Restricted all-sources closures run.
  uint64_t IncrementalCloses = 0; ///< Single-edge close_over_edge runs.
  uint64_t ClosesSkipped = 0;     ///< close() calls on already-closed values.
  uint64_t CachedCloses = 0;      ///< Closures answered by a closedView cache.
  // Budget events (support/budget.h), mirrored here so the bench reports
  // them per sweep size; the regression gate asserts all three stay zero
  // on the default, un-budgeted workload.
  uint64_t BudgetExhaustions = 0;     ///< Hard budget-limit latches.
  uint64_t DegradedCells = 0;         ///< Cells ⊤-substituted/taint-marked.
  uint64_t CancellationsHonored = 0;  ///< Cancellation tokens honored.

  void reset() { *this = ZoneCounters(); }

  /// Cross-thread merge: all fields are monotone counters, so they add.
  void mergeFrom(const ZoneCounters &O) {
    EdgesStored += O.EdgesStored;
    PotentialRepairs += O.PotentialRepairs;
    ClosureVerticesVisited += O.ClosureVerticesVisited;
    FullCloses += O.FullCloses;
    IncrementalCloses += O.IncrementalCloses;
    ClosesSkipped += O.ClosesSkipped;
    CachedCloses += O.CachedCloses;
    BudgetExhaustions += O.BudgetExhaustions;
    DegradedCells += O.DegradedCells;
    CancellationsHonored += O.CancellationsHonored;
  }

  ZoneCounters operator-(const ZoneCounters &O) const {
    ZoneCounters R;
    R.EdgesStored = EdgesStored - O.EdgesStored;
    R.PotentialRepairs = PotentialRepairs - O.PotentialRepairs;
    R.ClosureVerticesVisited =
        ClosureVerticesVisited - O.ClosureVerticesVisited;
    R.FullCloses = FullCloses - O.FullCloses;
    R.IncrementalCloses = IncrementalCloses - O.IncrementalCloses;
    R.ClosesSkipped = ClosesSkipped - O.ClosesSkipped;
    R.CachedCloses = CachedCloses - O.CachedCloses;
    R.BudgetExhaustions = BudgetExhaustions - O.BudgetExhaustions;
    R.DegradedCells = DegradedCells - O.DegradedCells;
    R.CancellationsHonored = CancellationsHonored - O.CancellationsHonored;
    return R;
  }
};

inline std::ostream &operator<<(std::ostream &OS, const ZoneCounters &C) {
  OS << "{edgesStored=" << C.EdgesStored
     << " potentialRepairs=" << C.PotentialRepairs
     << " closureVerticesVisited=" << C.ClosureVerticesVisited
     << " fullCloses=" << C.FullCloses
     << " incrementalCloses=" << C.IncrementalCloses
     << " closesSkipped=" << C.ClosesSkipped
     << " cachedCloses=" << C.CachedCloses
     << " budgetExhaustions=" << C.BudgetExhaustions
     << " degradedCells=" << C.DegradedCells
     << " cancellationsHonored=" << C.CancellationsHonored << "}";
  return OS;
}

/// The thread's zone-counter sink (see ZoneCounters).
inline ZoneCounters &zoneCounters() {
  static thread_local ZoneCounters Counters;
  return Counters;
}

/// Counters for the staged zone→octagon domain (domain/staged.h). The
/// staged subsystem's claim is that octagon work is paid only where a query
/// demands ±x±y precision: ZoneTransfers counts the transfers that skipped
/// the octagon tier entirely (the avoided dense work), EscalatedTransfers
/// the ones that ran both tiers, and Escalations the demand-driven slice
/// re-evaluations triggered by precision queries. All deterministic on a
/// seeded workload; EscalatedTransfers is the CI gate metric.
///
/// thread_local like ClosureCounters (one analysis engine per thread).
struct StagedCounters {
  uint64_t Escalations = 0;         ///< Demand-driven escalations: full
                                    ///< re-demands of a query's slice with
                                    ///< the octagon tier enabled.
  uint64_t OctSeeds = 0;            ///< Octagon tiers seeded from a closed
                                    ///< zone value (mid-path escalation).
  uint64_t EscalatedTransfers = 0;  ///< Tier evaluations (transfer/assume)
                                    ///< that ran BOTH tiers.
  uint64_t ZoneTransfers = 0;       ///< Zone-only tier evaluations — each
                                    ///< one is a dense octagon evaluation
                                    ///< avoided.
  uint64_t SumQueries = 0;          ///< ±x±y (sum-form) bounds queries.
  // Budget events (support/budget.h) — see the ZoneCounters note.
  uint64_t BudgetExhaustions = 0;     ///< Hard budget-limit latches.
  uint64_t DegradedCells = 0;         ///< Cells ⊤-substituted/taint-marked.
  uint64_t CancellationsHonored = 0;  ///< Cancellation tokens honored.

  void reset() { *this = StagedCounters(); }

  /// Cross-thread merge: all fields are monotone counters, so they add.
  void mergeFrom(const StagedCounters &O) {
    Escalations += O.Escalations;
    OctSeeds += O.OctSeeds;
    EscalatedTransfers += O.EscalatedTransfers;
    ZoneTransfers += O.ZoneTransfers;
    SumQueries += O.SumQueries;
    BudgetExhaustions += O.BudgetExhaustions;
    DegradedCells += O.DegradedCells;
    CancellationsHonored += O.CancellationsHonored;
  }

  StagedCounters operator-(const StagedCounters &O) const {
    StagedCounters R;
    R.Escalations = Escalations - O.Escalations;
    R.OctSeeds = OctSeeds - O.OctSeeds;
    R.EscalatedTransfers = EscalatedTransfers - O.EscalatedTransfers;
    R.ZoneTransfers = ZoneTransfers - O.ZoneTransfers;
    R.SumQueries = SumQueries - O.SumQueries;
    R.BudgetExhaustions = BudgetExhaustions - O.BudgetExhaustions;
    R.DegradedCells = DegradedCells - O.DegradedCells;
    R.CancellationsHonored = CancellationsHonored - O.CancellationsHonored;
    return R;
  }
};

inline std::ostream &operator<<(std::ostream &OS, const StagedCounters &C) {
  OS << "{escalations=" << C.Escalations << " octSeeds=" << C.OctSeeds
     << " escalatedTransfers=" << C.EscalatedTransfers
     << " zoneTransfers=" << C.ZoneTransfers
     << " sumQueries=" << C.SumQueries
     << " budgetExhaustions=" << C.BudgetExhaustions
     << " degradedCells=" << C.DegradedCells
     << " cancellationsHonored=" << C.CancellationsHonored << "}";
  return OS;
}

/// The thread's staged-domain counter sink (see StagedCounters).
inline StagedCounters &stagedCounters() {
  static thread_local StagedCounters Counters;
  return Counters;
}

/// Counters for the disjunctive-interval domain (domain/dis_interval.h).
/// The domain's defining cost knob is the per-variable partition bound K:
/// joins and ≠-refinements grow the partition list, and normalization merges
/// the closest pair whenever the list would exceed K. PartitionsCollapsed
/// counts those forced merges — the precision actually *paid* for the bound —
/// and is deterministic on a seeded workload, so it is the CI gate metric
/// for the dis_interval bench rows.
///
/// thread_local like ClosureCounters (one analysis engine per thread).
struct DisIntervalCounters {
  uint64_t PartitionsCollapsed = 0; ///< Closest-pair merges forced by the
                                    ///< partition bound K (precision lost to
                                    ///< the bound). The CI gate metric.
  uint64_t PartitionSplits = 0;     ///< Partitions split by a ≠-refinement
                                    ///< (the path-sensitivity win).
  uint64_t DisjunctiveJoins = 0;    ///< Variable joins whose result kept ≥ 2
                                    ///< partitions (a plain interval would
                                    ///< have taken the convex hull here).

  void reset() { *this = DisIntervalCounters(); }

  /// Cross-thread merge: all fields are monotone counters, so they add.
  void mergeFrom(const DisIntervalCounters &O) {
    PartitionsCollapsed += O.PartitionsCollapsed;
    PartitionSplits += O.PartitionSplits;
    DisjunctiveJoins += O.DisjunctiveJoins;
  }

  DisIntervalCounters operator-(const DisIntervalCounters &O) const {
    DisIntervalCounters R;
    R.PartitionsCollapsed = PartitionsCollapsed - O.PartitionsCollapsed;
    R.PartitionSplits = PartitionSplits - O.PartitionSplits;
    R.DisjunctiveJoins = DisjunctiveJoins - O.DisjunctiveJoins;
    return R;
  }
};

inline std::ostream &operator<<(std::ostream &OS,
                                const DisIntervalCounters &C) {
  OS << "{partitionsCollapsed=" << C.PartitionsCollapsed
     << " partitionSplits=" << C.PartitionSplits
     << " disjunctiveJoins=" << C.DisjunctiveJoins << "}";
  return OS;
}

/// The thread's dis_interval counter sink (see DisIntervalCounters).
inline DisIntervalCounters &disIntervalCounters() {
  static thread_local DisIntervalCounters Counters;
  return Counters;
}

/// Counters for the global hash-consed NameTable (daig/name.h). Name
/// construction sits on the hot path of every edit and query (Fig. 6 names
/// resolve DAIG cells and memo entries), so benches report these alongside
/// wall time: a healthy interned name layer shows InternHits ≫ NamesInterned
/// — construction is overwhelmingly table lookups, where the pre-interning
/// shared_ptr trees paid a heap allocation plus refcount traffic per node.
///
/// Process-global (not thread_local) because the NameTable itself is a
/// process-global singleton. Since the table accepts concurrent interning,
/// the live sink is a set of relaxed atomics (nameTableCountersAtomic());
/// this struct is the plain snapshot handed to callers by
/// nameTableCounters(), preserving the snapshot-and-subtract idiom.
struct NameTableCounters {
  uint64_t NamesInterned = 0; ///< Distinct names created (table growth).
  uint64_t InternHits = 0;    ///< Constructions answered by an existing node.
  uint64_t NameTableBytes = 0; ///< Approx. resident table bytes (gauge).

  void reset() { *this = NameTableCounters(); }

  NameTableCounters operator-(const NameTableCounters &O) const {
    NameTableCounters R;
    R.NamesInterned = NamesInterned - O.NamesInterned;
    R.InternHits = InternHits - O.InternHits;
    // A gauge, like PeakDbmBytes: the delta reports the later snapshot's
    // absolute footprint (the table never shrinks).
    R.NameTableBytes = NameTableBytes;
    return R;
  }
};

inline std::ostream &operator<<(std::ostream &OS, const NameTableCounters &C) {
  OS << "{namesInterned=" << C.NamesInterned << " internHits=" << C.InternHits
     << " nameTableBytes=" << C.NameTableBytes << "}";
  return OS;
}

/// The live, concurrently-updated name-table counter sink. All updates use
/// relaxed ordering: these are monotone statistics, not synchronization.
struct AtomicNameTableCounters {
  std::atomic<uint64_t> NamesInterned{0};
  std::atomic<uint64_t> InternHits{0};
  std::atomic<uint64_t> NameTableBytes{0}; ///< Gauge; stored, not added.

  void reset() {
    NamesInterned.store(0, std::memory_order_relaxed);
    InternHits.store(0, std::memory_order_relaxed);
    NameTableBytes.store(0, std::memory_order_relaxed);
  }
};

/// The process's name-table counter sink (see AtomicNameTableCounters).
inline AtomicNameTableCounters &nameTableCountersAtomic() {
  static AtomicNameTableCounters Counters;
  return Counters;
}

/// A point-in-time snapshot of the process-global name-table counters.
/// Unlike the thread_local sinks this returns BY VALUE: the live sink is
/// atomic (concurrent interning), and callers only ever want a consistent
/// plain-struct copy to subtract against.
inline NameTableCounters nameTableCounters() {
  const AtomicNameTableCounters &A = nameTableCountersAtomic();
  NameTableCounters S;
  S.NamesInterned = A.NamesInterned.load(std::memory_order_relaxed);
  S.InternHits = A.InternHits.load(std::memory_order_relaxed);
  S.NameTableBytes = A.NameTableBytes.load(std::memory_order_relaxed);
  return S;
}

/// A bundle of every thread_local counter sink, used to carry counter
/// deltas across threads. The domain/closure sinks are thread_local by
/// design (one analysis engine per thread); when a TaskPool worker runs
/// analysis work, its deltas land in the WORKER's sinks and would be
/// invisible to bench reporting on the main thread. The pool snapshots the
/// worker sinks around each task and merges the deltas back into the
/// calling thread's sinks, so "read the current thread's counters" stays
/// correct whether or not work was farmed out.
///
/// NameTableCounters are deliberately absent: that sink is process-global
/// and atomic (nameTableCountersAtomic()), so worker-thread interning is
/// already counted without any merge step.
struct ThreadCounters {
  ClosureCounters Closure;
  ZoneCounters Zone;
  StagedCounters Staged;
  DisIntervalCounters DisInterval;

  /// Copies the calling thread's live sinks.
  static ThreadCounters snapshot() {
    return {closureCounters(), zoneCounters(), stagedCounters(),
            disIntervalCounters()};
  }

  /// The work performed since \p Base (both taken on the same thread).
  /// Gauges follow the operator- convention: the delta carries this
  /// snapshot's absolute gauge value.
  ThreadCounters deltaSince(const ThreadCounters &Base) const {
    return {Closure - Base.Closure, Zone - Base.Zone, Staged - Base.Staged,
            DisInterval - Base.DisInterval};
  }

  /// Accumulates a delta into this bundle (counters add, gauges max).
  void addDelta(const ThreadCounters &D) {
    Closure.mergeFrom(D.Closure);
    Zone.mergeFrom(D.Zone);
    Staged.mergeFrom(D.Staged);
    DisInterval.mergeFrom(D.DisInterval);
  }

  /// Folds this bundle into the calling thread's live sinks.
  void mergeIntoCurrentThread() const {
    closureCounters().mergeFrom(Closure);
    zoneCounters().mergeFrom(Zone);
    stagedCounters().mergeFrom(Staged);
    disIntervalCounters().mergeFrom(DisInterval);
  }

  void reset() { *this = ThreadCounters(); }
};

/// Records a DBM matrix allocation of \p Cells entries (fresh buffers and
/// copy-on-write clones alike): bumps CellsStored and the PeakDbmBytes
/// high-water mark.
inline void recordDbmAlloc(size_t Cells) {
  ClosureCounters &C = closureCounters();
  C.CellsStored += Cells;
  uint64_t Bytes = static_cast<uint64_t>(Cells) * sizeof(int64_t);
  if (Bytes > C.PeakDbmBytes)
    C.PeakDbmBytes = Bytes;
}

} // namespace dai

#endif // DAI_SUPPORT_STATISTICS_H

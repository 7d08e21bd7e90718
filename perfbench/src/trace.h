//===-- perfbench/src/trace.h - Bench-side spans, domain timing -*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer attribution measured from outside the library. The traced run
/// wraps each call the benchmark makes into a module's public functions in
/// a Span, and instantiates the analysis over TimedDomain<D>, which times
/// every D:: call the library makes. The library's own trace hooks
/// (support/observe.h) stay off in both runs.
///
/// A span's self time is its duration minus the time its child spans and
/// the domain calls made while it was the innermost open span cover. Self
/// times are summed by span name, separately for the set-up and the step
/// phase (the phase of the outermost open span), so that the self times
/// of one phase plus its domain time add up to that phase's traced wall
/// time exactly.
///
/// Span records (name, start, end, parent, step id) are kept in memory up
/// to a cap and written at exit in the Chrome trace_event JSON shape that
/// support/observe.cpp emits.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_PERFBENCH_TRACE_H
#define DAI_PERFBENCH_TRACE_H

#include "domain/abstract_domain.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <time.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread. Step and set-up latencies are measured
/// on this clock: the benchmark is single-threaded, and unlike wall time it
/// leaves out time the thread spent descheduled, including time a
/// hypervisor steals. Spans and the run deadline stay on the wall clock.
inline uint64_t cpuNs() {
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// Domain operation families timed by TimedDomain.
enum class DomOp : uint8_t { Transfer, Join, Widen, Compare, Hash, Call };
inline constexpr size_t kNumDomOps = 6;
inline constexpr const char *kDomOpNames[kNumDomOps] = {
    "transfer", "join", "widen", "compare", "hash", "call"};

enum class Phase : uint8_t { Setup, Step };

class Tracer {
public:
  struct Record {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int64_t Parent; ///< Index into records(), -1 for a root span.
    uint64_t Step;  ///< Step id (0 for set-up spans).
    uint64_t DomainNs;
  };

  /// Per-phase aggregates.
  struct PhaseTotals {
    std::map<std::string, uint64_t> SelfNs; ///< By span name.
    std::array<uint64_t, kNumDomOps> DomNs{};
    std::array<uint64_t, kNumDomOps> DomCalls{};
    uint64_t RootNs = 0; ///< Sum of root-span durations.
  };

  static Tracer &get() {
    static Tracer T;
    return T;
  }

  bool on() const { return On; }
  void enable(size_t MaxRecords) {
    On = true;
    Cap = MaxRecords;
    Records.reserve(Cap < 4096 ? Cap : 4096);
    Epoch = nowNs();
  }

  void setStep(uint64_t S) { StepId = S; }

  void open(const char *Name, Phase P) {
    if (Stack.empty())
      CurPhase = P;
    Stack.push_back(Open{Name, nowNs(), 0, 0, -1});
    Open &O = Stack.back();
    if (Records.size() < Cap) {
      O.Index = static_cast<int64_t>(Records.size());
      Records.push_back(Record{Name, O.StartNs, 0, parentIndex(), StepId, 0});
    } else {
      ++Dropped;
    }
  }

  void close() {
    uint64_t End = nowNs();
    Open O = Stack.back();
    Stack.pop_back();
    uint64_t Dur = End - O.StartNs;
    uint64_t Covered = O.ChildNs + O.DomNs;
    PhaseTotals &PT = phase();
    PT.SelfNs[O.Name] += Dur > Covered ? Dur - Covered : 0;
    if (Stack.empty())
      PT.RootNs += Dur;
    else
      Stack.back().ChildNs += Dur;
    if (O.Index >= 0) {
      Records[O.Index].EndNs = End;
      Records[O.Index].DomainNs = O.DomNs;
    }
  }

  /// Attributes one timed domain call to the innermost open span. Calls
  /// made outside every span (the correctness checks) are not recorded.
  void domainCall(DomOp Op, uint64_t Ns) {
    if (Stack.empty())
      return;
    Stack.back().DomNs += Ns;
    PhaseTotals &PT = phase();
    PT.DomNs[static_cast<size_t>(Op)] += Ns;
    ++PT.DomCalls[static_cast<size_t>(Op)];
  }

  const PhaseTotals &totals(Phase P) const {
    return P == Phase::Setup ? Setup : Steps;
  }
  const std::vector<Record> &records() const { return Records; }
  uint64_t dropped() const { return Dropped; }

  /// Writes the kept spans as Chrome trace_event JSON ("X" events, µs).
  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("{\"traceEvents\": [\n", F);
    for (size_t I = 0; I < Records.size(); ++I) {
      const Record &R = Records[I];
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
                   "{\"id\": %zu, \"parent\": %lld, \"step\": %llu, "
                   "\"domain_us\": %.3f}}",
                   I ? ",\n" : "", R.Name, double(R.StartNs - Epoch) / 1e3,
                   double(R.EndNs - R.StartNs) / 1e3, I,
                   static_cast<long long>(R.Parent),
                   static_cast<unsigned long long>(R.Step),
                   double(R.DomainNs) / 1e3);
    }
    std::fputs("\n]}\n", F);
    std::fclose(F);
    return true;
  }

private:
  struct Open {
    const char *Name;
    uint64_t StartNs;
    uint64_t ChildNs;
    uint64_t DomNs;
    int64_t Index;
  };

  bool On = false;
  size_t Cap = 0;
  uint64_t Epoch = 0;
  uint64_t StepId = 0;
  uint64_t Dropped = 0;
  Phase CurPhase = Phase::Setup;
  std::vector<Open> Stack;
  std::vector<Record> Records;
  PhaseTotals Setup, Steps;

  PhaseTotals &phase() { return CurPhase == Phase::Setup ? Setup : Steps; }
  int64_t parentIndex() const {
    return Stack.size() >= 2 ? Stack[Stack.size() - 2].Index : -1;
  }
};

/// RAII span; a no-op unless the tracer is on.
class Span {
public:
  explicit Span(const char *Name, Phase P = Phase::Step)
      : Active(Tracer::get().on()) {
    if (Active)
      Tracer::get().open(Name, P);
  }
  ~Span() {
    if (Active)
      Tracer::get().close();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool Active;
};

/// Times one domain call into the tracer.
class DomTimer {
public:
  explicit DomTimer(DomOp Op) : Op(Op), T0(nowNs()) {}
  ~DomTimer() { Tracer::get().domainCall(Op, nowNs() - T0); }
  DomTimer(const DomTimer &) = delete;
  DomTimer &operator=(const DomTimer &) = delete;

private:
  DomOp Op;
  uint64_t T0;
};

/// Forwards every operation to \p D, timing the lattice, transfer, hash and
/// call-boundary operations. Only the traced run instantiates it; the
/// untraced run uses \p D itself, and the deterministic work counts of the
/// two runs must agree exactly.
template <typename D>
  requires dai::AbstractDomain<D>
struct TimedDomain {
  using Elem = typename D::Elem;
  using Stmt = dai::Stmt;
  using Params = std::vector<std::string>;

  static Elem bottom() { return D::bottom(); }
  static Elem initialEntry(const Params &P) { return D::initialEntry(P); }
  static Elem transfer(const Stmt &S, const Elem &A) {
    DomTimer T(DomOp::Transfer);
    return D::transfer(S, A);
  }
  static Elem join(const Elem &A, const Elem &B) {
    DomTimer T(DomOp::Join);
    return D::join(A, B);
  }
  static Elem widen(const Elem &A, const Elem &B) {
    DomTimer T(DomOp::Widen);
    return D::widen(A, B);
  }
  static bool leq(const Elem &A, const Elem &B) {
    DomTimer T(DomOp::Compare);
    return D::leq(A, B);
  }
  static bool equal(const Elem &A, const Elem &B) {
    DomTimer T(DomOp::Compare);
    return D::equal(A, B);
  }
  static bool isBottom(const Elem &A) {
    DomTimer T(DomOp::Compare);
    return D::isBottom(A);
  }
  static uint64_t hash(const Elem &A) {
    DomTimer T(DomOp::Hash);
    return D::hash(A);
  }
  static std::string toString(const Elem &A) { return D::toString(A); }
  static const char *name() { return D::name(); }
  static Elem enterCall(const Elem &A, const Stmt &S, const Params &P) {
    DomTimer T(DomOp::Call);
    return D::enterCall(A, S, P);
  }
  static Elem exitCall(const Elem &A, const Elem &B, const Stmt &S) {
    DomTimer T(DomOp::Call);
    return D::exitCall(A, B, S);
  }
};

} // namespace perfbench

#endif // DAI_PERFBENCH_TRACE_H

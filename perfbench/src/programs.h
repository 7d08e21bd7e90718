//===-- perfbench/src/programs.h - Seeded verification corpus ---*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source-text programs for the batch_verify workload. Each generated
/// program has several helper functions and a main; every function starts
/// with planted checks whose answers are known, followed by seeded filler
/// code (arithmetic over a wide variable pool, arrays, branches, bounded
/// loops, calls to earlier helpers, asserts):
///
///  - planted-safe checks read variables prefixed `ps`; under a relational
///    array domain (arr_zone) every one of them must be proved SAFE;
///  - planted-unsafe checks read variables prefixed `pu`; each one is a
///    definite violation and must be flagged (WARNING or ERROR).
///
/// main calls every helper before its filler runs, so every function has an
/// analyzed instance and every planted check is reached.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_PERFBENCH_PROGRAMS_H
#define DAI_PERFBENCH_PROGRAMS_H

#include "support/rng.h"

#include <string>

namespace perfbench {

struct CorpusShape {
  unsigned Helpers = 3;       ///< Functions besides main.
  unsigned Vars = 48;         ///< Filler variable pool per function.
  unsigned FillerStmts = 40;  ///< Top-level filler statements per function.
  unsigned MaxNest = 2;       ///< Maximum if/while nesting in filler.
};

class ProgramWriter {
public:
  ProgramWriter(uint64_t Seed, const CorpusShape &Shape)
      : R(Seed), Shape(Shape) {}

  std::string program() {
    std::string Out;
    for (unsigned H = 0; H < Shape.Helpers; ++H) {
      Out += "function f" + std::to_string(H) + "(x) {\n";
      body(H, /*IsMain=*/false, Out);
      Out += "}\n";
    }
    Out += "function main() {\n";
    body(Shape.Helpers, /*IsMain=*/true, Out);
    Out += "}\n";
    return Out;
  }

private:
  dai::Rng R;
  CorpusShape Shape;
  unsigned Planted = 0;
  unsigned Loops = 0;

  std::string var() { return "v" + std::to_string(R.below(Shape.Vars)); }
  std::string lit(int64_t Lo, int64_t Hi) {
    int64_t V = R.range(Lo, Hi);
    return V < 0 ? "(0 - " + std::to_string(-V) + ")" : std::to_string(V);
  }

  void body(unsigned Fn, bool IsMain, std::string &Out) {
    planted(Out);
    for (unsigned V = 0; V < Shape.Vars; ++V)
      Out += "  var v" + std::to_string(V) + " = " +
             (!IsMain && V % 4 == 0 ? "x" : lit(-5, 5)) + ";\n";
    // Each helper is called under a branch on an unknown, so main goes on
    // even if a helper's exit is unreachable.
    if (IsMain) {
      Out += "  var ukm = [0, 9];\n  var ukr = ukm[0];\n";
      for (unsigned H = 0; H < Shape.Helpers; ++H)
        Out += "  if (ukr > 4) { v" + std::to_string(H % Shape.Vars) + " = f" +
               std::to_string(H) + "(v" + std::to_string(H % Shape.Vars) +
               "); }\n";
    }
    for (unsigned I = 0; I < Shape.FillerStmts; ++I)
      stmt(Fn, 0, "  ", Out);
    Out += "  return " + var() + ";\n";
  }

  std::string array(unsigned N) {
    std::string Out = "[";
    for (unsigned I = 0; I < N; ++I)
      Out += (I ? ", " : "") + lit(-9, 9);
    return Out + "]";
  }

  /// Two planted-safe and two planted-unsafe checks, self-contained so that
  /// nothing before or after them in the function changes their answers.
  /// Unknown values are reads of two-element arrays (`uk`), which the
  /// smashing domain summarises as a range; each unknown reads its own
  /// array, since reads of one summary are related to each other. Each
  /// unsafe check sits in a branch on an unknown, so the state after the
  /// branch survives the violation.
  void planted(std::string &Out) {
    std::string K = std::to_string(Planted++);
    unsigned N = static_cast<unsigned>(R.range(3, 8));
    auto V = [&](const char *P, const char *S) { return P + K + S; };
    auto unknown = [&](const char *S) {
      std::string Lo = lit(-9, 0);
      std::string Hi = lit(5, 9);
      Out += "  var " + V("uk", S) + " = [" + Lo + ", " + Hi + "];\n";
      return V("uk", S) + "[" + std::to_string(R.below(2)) + "]";
    };
    // SAFE: y = x + c with c > 0 proves x < y; x is a range, so this needs
    // the relational domain.
    Out += "  var " + V("ps", "x") + " = " + unknown("a") + ";\n";
    Out += "  var " + V("ps", "y") + " = " + V("ps", "x") + " + " +
           lit(1, 9) + ";\n";
    Out += "  assert(" + V("ps", "x") + " < " + V("ps", "y") + ");\n";
    // SAFE: a loop bounded by the array's own length.
    Out += "  var " + V("ps", "a") + " = " + array(N) + ";\n";
    Out += "  var " + V("ps", "i") + " = 0;\n";
    Out += "  var " + V("ps", "s") + " = 0;\n";
    Out += "  while (" + V("ps", "i") + " < " + V("ps", "a") + ".length) {\n";
    Out += "    " + V("ps", "s") + " = " + V("ps", "s") + " + " + V("ps", "a") +
           "[" + V("ps", "i") + "];\n";
    Out += "    " + V("ps", "i") + " = " + V("ps", "i") + " + 1;\n  }\n";
    // UNSAFE: y = x + c with c > 0 refutes y < x.
    Out += "  var " + V("pu", "x") + " = " + unknown("b") + ";\n";
    Out += "  var " + V("pu", "y") + " = " + V("pu", "x") + " + " +
           lit(1, 9) + ";\n";
    Out += "  var " + V("uk", "p") + " = " + unknown("c") + ";\n";
    Out += "  if (" + V("uk", "p") + " > 4) { assert(" + V("pu", "y") + " < " +
           V("pu", "x") + "); }\n";
    // UNSAFE: reads one past the end.
    Out += "  var " + V("pu", "a") + " = " + array(N) + ";\n";
    Out += "  var " + V("pu", "t") + " = 0;\n";
    Out += "  var " + V("uk", "q") + " = " + unknown("d") + ";\n";
    Out += "  if (" + V("uk", "q") + " > 4) { " + V("pu", "t") + " = " +
           V("pu", "a") + "[" + std::to_string(N) + "]; }\n";
  }

  // Every random draw is its own statement: the operands of one + have no
  // fixed evaluation order, and the program text must depend on the seed
  // alone.
  std::string arith(unsigned Depth) {
    if (Depth == 0 || R.percent(35))
      return R.percent(60) ? var() : lit(-10, 10);
    unsigned Op = static_cast<unsigned>(R.below(5));
    std::string Lhs = Op < 4 ? arith(Depth - 1) : lit(-3, 3);
    std::string Rhs = arith(Depth - 1);
    return "(" + Lhs + (Op < 2 ? " + " : Op < 4 ? " - " : " * ") + Rhs + ")";
  }

  std::string cond() {
    static const char *Ops[] = {"<", "<=", ">", ">=", "==", "!="};
    std::string Lhs = var();
    const char *Op = Ops[R.below(6)];
    std::string Rhs = R.percent(50) ? lit(-20, 20) : var();
    return Lhs + " " + Op + " " + Rhs;
  }

  void stmt(unsigned Fn, unsigned Depth, const std::string &Ind,
            std::string &Out) {
    unsigned Pick = static_cast<unsigned>(R.below(100));
    if (Depth < Shape.MaxNest && Pick < 10) {
      Out += Ind + "if (" + cond() + ") {\n";
      for (unsigned I = 0, N = 1 + R.below(3); I < N; ++I)
        stmt(Fn, Depth + 1, Ind + "  ", Out);
      Out += Ind + "} else {\n";
      for (unsigned I = 0, N = 1 + R.below(3); I < N; ++I)
        stmt(Fn, Depth + 1, Ind + "  ", Out);
      Out += Ind + "}\n";
      return;
    }
    if (Depth == 0 && Pick < 15) {
      // A counting loop on its own counter, so the loop always exits.
      std::string C = "w" + std::to_string(Loops++);
      Out += Ind + "var " + C + " = " + lit(-5, 5) + ";\n";
      Out += Ind + "while (" + C + " < " + lit(6, 30) + ") {\n";
      for (unsigned I = 0, N = R.below(3); I < N; ++I)
        stmt(Fn, Depth + 1, Ind + "  ", Out);
      Out += Ind + "  " + C + " = " + C + " + " + lit(1, 3) + ";\n";
      Out += Ind + "}\n";
      return;
    }
    if (Pick < 20 && Fn > 0 && Depth == 0) {
      std::string Lhs = var();
      std::string Callee = "f" + std::to_string(R.below(Fn));
      std::string Arg = var();
      Out += Ind + Lhs + " = " + Callee + "(" + Arg + ");\n";
      return;
    }
    if (Pick < 23) {
      std::string V = var();
      std::string Bound =
          R.percent(50) ? " < " + lit(20, 100) : " > " + lit(-100, -20);
      Out += Ind + "assert(" + V + Bound + ");\n";
      return;
    }
    if (Pick < 33) {
      std::string A = var();
      switch (R.below(3)) {
      case 0: {
        Out += Ind + A + " = [";
        for (unsigned I = 0, N = 1 + R.below(4); I < N; ++I)
          Out += (I ? ", " : "") + lit(-9, 9);
        Out += "];\n";
        return;
      }
      case 1: {
        std::string Idx = arith(1);
        std::string Val = arith(1);
        Out += Ind + A + "[" + Idx + "] = " + Val + ";\n";
        return;
      }
      default: {
        std::string Lhs = var();
        std::string Idx = arith(1);
        Out += Ind + Lhs + " = " + A + "[" + Idx + "];\n";
        return;
      }
      }
    }
    std::string Lhs = var();
    std::string Rhs = arith(2);
    Out += Ind + Lhs + " = " + Rhs + ";\n";
  }
};

} // namespace perfbench

#endif // DAI_PERFBENCH_PROGRAMS_H

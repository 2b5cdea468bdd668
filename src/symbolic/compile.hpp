#pragma once
// Flat evaluator for symbolic expressions.
//
// The runtime index recovery evaluates a root formula once per chunk of
// iterations; compiling the Expr DAG into a linear instruction list keeps
// that evaluation cheap.  Compilation value-numbers the DAG: two nodes
// become one instruction when they have the same op, the same operand
// instructions and the same constant, root of unity or polynomial — not
// only when they are the same node — so a subexpression the root
// formulas rebuild (b*b in Ferrari, the resolvent shared by every
// quartic branch) is evaluated once.  Merged nodes perform the same
// operation on the same inputs, so every value is bitwise identical to
// the unmerged evaluation.
//
// One program may hold several roots (every branch of a level, for
// branch selection): they share their common instructions and one
// eval() pass returns all of their values.  Arithmetic is
// complex<long double> throughout (§IV-C: roots can be complex with zero
// imaginary part).

#include <complex>
#include <span>
#include <vector>

#include "symbolic/expr.hpp"

namespace nrc {

using cld = std::complex<long double>;

/// A compiled expression: evaluate with integer variable values laid out
/// according to the slot order given at compile time.
class CompiledExpr {
 public:
  CompiledExpr() = default;

  /// `order` maps slot index -> variable name; every polynomial leaf
  /// variable must appear in it.  An empty `e` gives an empty program.
  CompiledExpr(const Expr& e, std::span<const std::string> order);

  /// One value-numbered program for all of `roots` (none may be empty);
  /// eval(point, changed, values, out) returns their values in this order.
  CompiledExpr(std::span<const Expr> roots, std::span<const std::string> order);

  bool empty() const { return code_.empty(); }

  /// Evaluate the first root on the integer point (slot-ordered).  May
  /// return non-finite values when a formula degenerates; the caller is
  /// responsible for falling back to exact recovery in that case.
  cld eval(std::span<const i64> point) const;

  /// `changed` for a point with no previous values to reuse.
  static constexpr u64 kAllSlots = ~u64{0};

  /// Evaluate every root in one pass: out[r] is root r's value
  /// (out.size() must equal the number of roots), computed in a value
  /// buffer the caller owns (at least size() values).  For a run of
  /// points that differ from the previous one only in the slots set in
  /// `changed` (bit s: slot s; slots from 64 on count as bit 63),
  /// instructions that read none of them keep the value the previous
  /// call left in `values`, which is the one they would compute again.
  /// The first call on a buffer passes kAllSlots.
  void eval(std::span<const i64> point, u64 changed, std::span<cld> values,
            std::span<cld> out) const;

  /// Number of instructions (for tests / diagnostics).
  size_t size() const { return code_.size(); }

 private:
  struct Ins {
    ExprOp op;
    int a = -1;            // operand slots into the value vector
    int b = -1;
    cld cval;              // Const / Cis folded value
    CompiledPoly poly;     // Poly leaves
    bool feeds_divisor = false;  // some use chain ends in a Div's divisor
    u64 reads = 0;               // slots its polynomial leaves read
  };
  /// Compute into `vals` every instruction that reads a slot in `changed`.
  void run(std::span<const i64> point, u64 changed, cld* vals) const;

  std::vector<Ins> code_;
  std::vector<int> outs_;  // instruction slot of each root
};

}  // namespace nrc

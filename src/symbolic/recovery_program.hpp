#pragma once
// RecoveryProgram — parameter-bound, flat, real-valued register bytecode
// for a level's closed-form root expression.
//
// The generic CompiledExpr interpreter evaluates the symbolic root DAG in
// complex<long double> throughout and allocates its value vector on every
// call — too heavy for the recover() hot path the §V execution schemes
// amortize per chunk.  Lowering happens once per Collapsed::bind():
//
//   * parameters are substituted into every polynomial leaf and constant
//     subtrees are folded away (a leaf like N*i - pc becomes a two-term
//     linear form over the remaining slots),
//   * common subexpressions keep single registers (the Expr DAG shares
//     nodes; lowering memoizes on node identity),
//   * arithmetic is real long double by default; complex instruction
//     forms are emitted only where a Cardano/Ferrari branch genuinely
//     needs them (any tree containing a cube root or a root of unity —
//     their discriminant square roots can go complex at runtime while the
//     recovered index stays real).  A pure quadratic-formula tree lowers
//     to straight real arithmetic whose sqrt yields NaN on a negative
//     discriminant, which the caller's exact guard turns into a search
//     fallback.
//
// eval() runs the instruction list over fixed stack scratch: zero heap
// allocation, no name lookups, no conversions beyond the integer point
// casts the polynomial leaves consume directly.

#include <span>
#include <string>
#include <vector>

#include "polyhedral/domain.hpp"
#include "symbolic/expr.hpp"

namespace nrc {

/// Register-file capacity of the bytecode evaluator.  Quartic Ferrari
/// branches lower to ~90 instructions; anything beyond this cap makes
/// compiled() false and the caller keeps the generic interpreter.
inline constexpr int kMaxProgramRegs = 192;

/// Result of a program evaluation: the (possibly complex) root value.
struct RootValue {
  long double re = 0.0L;
  long double im = 0.0L;
  bool finite() const;
};

class RecoveryProgram {
 public:
  RecoveryProgram() = default;

  /// Lower `root` for the runtime layout `slot_order` with `params`
  /// folded in as constants.  A failed lowering (unknown variable, or
  /// register pressure beyond kMaxProgramRegs) leaves compiled() false
  /// rather than throwing: the caller falls back to interpretation.
  RecoveryProgram(const Expr& root, std::span<const std::string> slot_order,
                  const ParamMap& params);

  /// True when the program can be evaluated.
  bool compiled() const { return compiled_; }

  /// Evaluate on the integer point (slot-ordered, same layout as the
  /// generic evaluators).  Allocation-free.
  RootValue eval(std::span<const i64> point) const;

  /// Instruction count (diagnostics / tests).
  size_t size() const { return code_.size(); }

  /// True when any emitted instruction uses complex arithmetic.
  bool uses_complex() const;

  /// One instruction per line, e.g. "r3 = rmul r1 r2" (tests / docs).
  std::string str() const;

 private:
  enum class Op : unsigned char {
    // Real forms: write re[dst] and zero im[dst] so a later complex
    // instruction can read the register uniformly.
    RConst, RPoly, RAdd, RSub, RMul, RDiv, RNeg, RSqrt, RCbrt,
    // Complex forms.
    CConst, CAdd, CSub, CMul, CDiv, CNeg, CSqrt, CCbrt,
  };

  struct Ins {
    Op op;
    int a = -1;  // operand registers
    int b = -1;
    long double re = 0.0L;  // folded constant (RConst / CConst)
    long double im = 0.0L;
    int term_lo = 0;  // RPoly: term range into terms_
    int term_hi = 0;
  };

  /// Flattened polynomial leaf: coef * prod(point[slot]^exp) terms with
  /// the parameters already folded into the coefficients.
  struct PolyTerm {
    long double coef = 0.0L;
    int pow_lo = 0;  // range into pows_
    int pow_hi = 0;
  };
  struct PolyPow {
    int slot = 0;
    int exp = 1;
  };

  friend struct ProgramLowering;

  bool compiled_ = false;
  std::vector<Ins> code_;
  std::vector<PolyTerm> terms_;
  std::vector<PolyPow> pows_;
};

}  // namespace nrc

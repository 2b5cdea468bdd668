#include "symbolic/recovery_program.hpp"

#include <cmath>
#include <complex>
#include <map>

#include "math/roots.hpp"
#include "support/error.hpp"

namespace nrc {

namespace {

using cld = std::complex<long double>;

constexpr long double kPi = 3.14159265358979323846264338327950288L;

/// Does the tree contain a cube root or a root of unity?  Those are the
/// Cardano/Ferrari shapes whose intermediate values can be genuinely
/// complex (casus irreducibilis) even though the recovered index is real.
bool needs_complex(const ExprPtr& n) {
  if (!n) return false;
  if (n->op == ExprOp::Cis || n->op == ExprOp::Cbrt) return true;
  return needs_complex(n->a) || needs_complex(n->b);
}

}  // namespace

bool RootValue::finite() const { return std::isfinite(re) && std::isfinite(im); }

/// Lowering context: walks the Expr DAG once, folding constants (with the
/// bound parameters substituted into every polynomial leaf) and memoizing
/// shared nodes so CSE survives into the bytecode.
struct ProgramLowering {
  using Op = RecoveryProgram::Op;

  RecoveryProgram& prog;
  std::span<const std::string> order;
  const ParamMap& params;
  bool complex_mode = false;
  bool failed = false;

  /// A lowered subtree: either a folded constant or a register.
  struct Value {
    bool is_const = false;
    cld cval{};
    int reg = -1;
    bool complex_typed = false;
  };

  std::map<const ExprNode*, Value> memo{};
  std::map<std::pair<long double, long double>, int> const_regs{};

  int emit(RecoveryProgram::Ins ins) {
    if (static_cast<int>(prog.code_.size()) >= kMaxProgramRegs) {
      failed = true;
      return 0;
    }
    prog.code_.push_back(ins);
    return static_cast<int>(prog.code_.size()) - 1;
  }

  int materialize(const Value& v) {
    if (!v.is_const) return v.reg;
    const auto key = std::make_pair(v.cval.real(), v.cval.imag());
    auto it = const_regs.find(key);
    if (it != const_regs.end()) return it->second;
    RecoveryProgram::Ins ins;
    ins.op = v.cval.imag() == 0.0L ? Op::RConst : Op::CConst;
    ins.re = v.cval.real();
    ins.im = v.cval.imag();
    const int reg = emit(ins);
    const_regs.emplace(key, reg);
    return reg;
  }

  Value lower_poly(const Polynomial& p) {
    Polynomial q = p;
    try {
      for (const auto& [name, val] : params) q = q.substitute(name, Polynomial(val));
    } catch (const OverflowError&) {
      // Folding pushed a coefficient past the exact int64 range; the
      // generic interpreter evaluates the unfolded tree fine.
      failed = true;
      return {true, cld{0.0L, 0.0L}};
    }
    if (q.is_constant()) return {true, cld{q.constant_term().to_long_double(), 0.0L}};

    RecoveryProgram::Ins ins;
    ins.op = Op::RPoly;
    ins.term_lo = static_cast<int>(prog.terms_.size());
    for (const auto& [m, c] : q.terms()) {
      RecoveryProgram::PolyTerm t;
      t.coef = c.to_long_double();
      t.pow_lo = static_cast<int>(prog.pows_.size());
      for (const auto& [var, exp] : m.factors()) {
        int slot = -1;
        for (size_t s = 0; s < order.size(); ++s) {
          if (order[s] == var) {
            slot = static_cast<int>(s);
            break;
          }
        }
        if (slot < 0) {
          failed = true;  // unbound variable: leave it to the interpreter
          return {true, cld{0.0L, 0.0L}};
        }
        prog.pows_.push_back({slot, exp});
      }
      t.pow_hi = static_cast<int>(prog.pows_.size());
      prog.terms_.push_back(t);
    }
    ins.term_hi = static_cast<int>(prog.terms_.size());
    Value v;
    v.reg = emit(ins);
    return v;
  }

  static cld fold_unary(ExprOp op, const cld& a) {
    switch (op) {
      case ExprOp::Neg:
        return -a;
      case ExprOp::Sqrt:
        return std::sqrt(a);
      default:  // Cbrt
        return principal_cbrt(a);
    }
  }

  Value lower(const ExprPtr& n) {
    auto it = memo.find(n.get());
    if (it != memo.end()) return it->second;
    Value v;
    switch (n->op) {
      case ExprOp::Const:
        v = {true, cld{n->cval.to_long_double(), 0.0L}};
        break;
      case ExprOp::Cis: {
        const long double ang = 2.0L * kPi * static_cast<long double>(n->cis_k) /
                                static_cast<long double>(n->cis_n);
        v = {true, cld{std::cos(ang), std::sin(ang)}};
        break;
      }
      case ExprOp::Poly:
        v = lower_poly(n->poly);
        break;
      case ExprOp::Neg:
      case ExprOp::Sqrt:
      case ExprOp::Cbrt: {
        const Value a = lower(n->a);
        if (failed) return a;
        if (a.is_const) {
          v = {true, fold_unary(n->op, a.cval)};
        } else {
          // Sqrt/Cbrt go complex exactly when the branch family can make
          // their arguments negative along a real-rooted recovery (the
          // Cardano/Ferrari trees); a lone quadratic sqrt stays real and
          // degenerates to NaN, which the caller's guard catches.
          const bool cx = n->op == ExprOp::Neg
                              ? a.complex_typed
                              : (complex_mode || a.complex_typed);
          RecoveryProgram::Ins ins;
          ins.a = materialize(a);
          switch (n->op) {
            case ExprOp::Neg:
              ins.op = cx ? Op::CNeg : Op::RNeg;
              break;
            case ExprOp::Sqrt:
              ins.op = cx ? Op::CSqrt : Op::RSqrt;
              break;
            default:
              ins.op = cx ? Op::CCbrt : Op::RCbrt;
              break;
          }
          v.reg = emit(ins);
          v.complex_typed = cx;
        }
        break;
      }
      default: {  // binary ops
        const Value a = lower(n->a);
        if (failed) return a;
        const Value b = lower(n->b);
        if (failed) return b;
        if (a.is_const && b.is_const) {
          cld r;
          switch (n->op) {
            case ExprOp::Add:
              r = a.cval + b.cval;
              break;
            case ExprOp::Sub:
              r = a.cval - b.cval;
              break;
            case ExprOp::Mul:
              r = a.cval * b.cval;
              break;
            default:
              r = a.cval / b.cval;
              break;
          }
          v = {true, r};
        } else {
          const bool cx = (a.is_const ? a.cval.imag() != 0.0L : a.complex_typed) ||
                          (b.is_const ? b.cval.imag() != 0.0L : b.complex_typed);
          RecoveryProgram::Ins ins;
          ins.a = materialize(a);
          ins.b = materialize(b);
          switch (n->op) {
            case ExprOp::Add:
              ins.op = cx ? Op::CAdd : Op::RAdd;
              break;
            case ExprOp::Sub:
              ins.op = cx ? Op::CSub : Op::RSub;
              break;
            case ExprOp::Mul:
              ins.op = cx ? Op::CMul : Op::RMul;
              break;
            default:
              ins.op = cx ? Op::CDiv : Op::RDiv;
              break;
          }
          v.reg = emit(ins);
          v.complex_typed = cx;
        }
        break;
      }
    }
    memo.emplace(n.get(), v);
    return v;
  }
};

RecoveryProgram::RecoveryProgram(const Expr& root, std::span<const std::string> slot_order,
                                 const ParamMap& params) {
  if (root.empty()) return;
  ProgramLowering lo{*this, slot_order, params};
  lo.complex_mode = needs_complex(root.ptr());
  try {
    const ProgramLowering::Value v = lo.lower(root.ptr());
    if (!lo.failed && v.is_const) lo.materialize(v);
  } catch (const OverflowError&) {
    lo.failed = true;  // exact folding overflowed: caller keeps the interpreter
  }
  if (lo.failed || static_cast<int>(code_.size()) > kMaxProgramRegs) {
    code_.clear();
    terms_.clear();
    pows_.clear();
    compiled_ = false;
    return;
  }
  compiled_ = !code_.empty();
}

RootValue RecoveryProgram::eval(std::span<const i64> point) const {
  if (!compiled_) throw SolveError("RecoveryProgram::eval on an uncompiled program");

  long double re[kMaxProgramRegs];
  long double im[kMaxProgramRegs];
  const size_t n = code_.size();
  for (size_t i = 0; i < n; ++i) {
    const Ins& ins = code_[i];
    switch (ins.op) {
      case Op::RConst:
        re[i] = ins.re;
        im[i] = 0.0L;
        break;
      case Op::RPoly: {
        long double acc = 0.0L;
        for (int t = ins.term_lo; t < ins.term_hi; ++t) {
          const PolyTerm& term = terms_[static_cast<size_t>(t)];
          long double v = term.coef;
          for (int p = term.pow_lo; p < term.pow_hi; ++p) {
            const PolyPow& pw = pows_[static_cast<size_t>(p)];
            const long double base = static_cast<long double>(point[static_cast<size_t>(pw.slot)]);
            for (int e = 0; e < pw.exp; ++e) v *= base;
          }
          acc += v;
        }
        re[i] = acc;
        im[i] = 0.0L;
        break;
      }
      case Op::RAdd:
        re[i] = re[ins.a] + re[ins.b];
        im[i] = 0.0L;
        break;
      case Op::RSub:
        re[i] = re[ins.a] - re[ins.b];
        im[i] = 0.0L;
        break;
      case Op::RMul:
        re[i] = re[ins.a] * re[ins.b];
        im[i] = 0.0L;
        break;
      case Op::RDiv:
        re[i] = re[ins.a] / re[ins.b];
        im[i] = 0.0L;
        break;
      case Op::RNeg:
        re[i] = -re[ins.a];
        im[i] = 0.0L;
        break;
      case Op::RSqrt:
        re[i] = std::sqrt(re[ins.a]);  // NaN on negative: guard handles it
        im[i] = 0.0L;
        break;
      case Op::RCbrt:
        re[i] = std::cbrt(re[ins.a]);
        im[i] = 0.0L;
        break;
      case Op::CConst:
        re[i] = ins.re;
        im[i] = ins.im;
        break;
      case Op::CAdd:
        re[i] = re[ins.a] + re[ins.b];
        im[i] = im[ins.a] + im[ins.b];
        break;
      case Op::CSub:
        re[i] = re[ins.a] - re[ins.b];
        im[i] = im[ins.a] - im[ins.b];
        break;
      case Op::CMul: {
        const long double ar = re[ins.a], ai = im[ins.a];
        const long double br = re[ins.b], bi = im[ins.b];
        re[i] = ar * br - ai * bi;
        im[i] = ar * bi + ai * br;
        break;
      }
      case Op::CDiv: {
        const cld z = cld{re[ins.a], im[ins.a]} / cld{re[ins.b], im[ins.b]};
        re[i] = z.real();
        im[i] = z.imag();
        break;
      }
      case Op::CNeg:
        re[i] = -re[ins.a];
        im[i] = -im[ins.a];
        break;
      case Op::CSqrt: {
        const cld z = std::sqrt(cld{re[ins.a], im[ins.a]});
        re[i] = z.real();
        im[i] = z.imag();
        break;
      }
      case Op::CCbrt: {
        const cld z = principal_cbrt(cld{re[ins.a], im[ins.a]});
        re[i] = z.real();
        im[i] = z.imag();
        break;
      }
    }
  }
  return {re[n - 1], im[n - 1]};
}

bool RecoveryProgram::uses_complex() const {
  for (const Ins& ins : code_)
    if (ins.op >= Op::CConst) return true;
  return false;
}

std::string RecoveryProgram::str() const {
  static const char* names[] = {"rconst", "rpoly", "radd", "rsub", "rmul", "rdiv",
                                "rneg",   "rsqrt", "rcbrt", "cconst", "cadd", "csub",
                                "cmul",   "cdiv",  "cneg", "csqrt", "ccbrt"};
  std::string s;
  for (size_t i = 0; i < code_.size(); ++i) {
    const Ins& ins = code_[i];
    s += "r" + std::to_string(i) + " = " + names[static_cast<int>(ins.op)];
    if (ins.op == Op::RConst || ins.op == Op::CConst) {
      s += " " + std::to_string(static_cast<double>(ins.re));
      if (ins.op == Op::CConst) s += "+" + std::to_string(static_cast<double>(ins.im)) + "i";
    } else if (ins.op == Op::RPoly) {
      s += " [" + std::to_string(ins.term_hi - ins.term_lo) + " terms]";
    } else {
      s += " r" + std::to_string(ins.a);
      if (ins.b >= 0) s += " r" + std::to_string(ins.b);
    }
    s += "\n";
  }
  return s;
}

}  // namespace nrc

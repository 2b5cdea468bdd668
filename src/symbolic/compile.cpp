#include "symbolic/compile.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <unordered_map>

#include "math/roots.hpp"
#include "support/error.hpp"

namespace nrc {
namespace {
constexpr long double kPi = 3.14159265358979323846264338327950288L;

// Where long double is the x87 80-bit format, the two tests below read
// the stored bits: x87 arithmetic, comparisons included, on a NaN or an
// infinity takes a microcode assist.
constexpr bool kX87 = std::numeric_limits<long double>::digits == 64;

/// Exponent bits of z's real (part 0) or imaginary (part 1) half.
std::uint16_t exponent_bits(const cld& z, size_t part) {
  std::uint16_t e;
  std::memcpy(&e, reinterpret_cast<const unsigned char*>(&z) + part * sizeof(long double) + 8, 2);
  return e & 0x7fff;
}

/// Both parts finite.
bool finite_bits(const cld& z) {
  if constexpr (kX87) return exponent_bits(z, 0) != 0x7fff && exponent_bits(z, 1) != 0x7fff;
  return std::isfinite(z.real()) && std::isfinite(z.imag());
}

/// z == 0, either sign in either part.
bool zero_bits(const cld& z) {
  if constexpr (kX87) {
    std::uint64_t re, im;
    std::memcpy(&re, &z, 8);
    std::memcpy(&im, reinterpret_cast<const unsigned char*>(&z) + sizeof(long double), 8);
    return re == 0 && im == 0 && exponent_bits(z, 0) == 0 && exponent_bits(z, 1) == 0;
  }
  return z == cld{0.0L, 0.0L};
}

}

CompiledExpr::CompiledExpr(const Expr& e, std::span<const std::string> order)
    : CompiledExpr(std::span<const Expr>(&e, e.empty() ? 0 : 1), order) {}

CompiledExpr::CompiledExpr(std::span<const Expr> roots, std::span<const std::string> order) {
  // Value numbering: (op, operand slots, leaf value) -> slot.  Leaf values
  // are the constant's numerator/denominator, the root of unity's k/n, or
  // the index of the polynomial among the distinct ones seen so far.
  using Key = std::tuple<ExprOp, int, int, i64, i64>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      const auto [op, a, b, x, y] = k;
      u64 h = static_cast<u64>(op);
      for (const u64 v : {static_cast<u64>(a), static_cast<u64>(b), static_cast<u64>(x),
                          static_cast<u64>(y)})
        h = (h ^ v) * 0x100000001b3ull;
      return static_cast<size_t>(h);
    }
  };
  // Hash tables sized for a few dozen nodes per root: a tree map's node
  // allocations and rebalancing were half of a level's compile time.
  std::unordered_map<Key, int, KeyHash> numbered(64 * roots.size());
  std::unordered_map<const ExprNode*, int> memo(64 * roots.size());  // skips shared nodes
  std::vector<const Polynomial*> polys;

  // Post-order emission.
  auto emit = [&](auto&& self, const ExprPtr& n) -> int {
    auto it = memo.find(n.get());
    if (it != memo.end()) return it->second;
    Key key{n->op, -1, -1, 0, 0};
    switch (n->op) {
      case ExprOp::Const:
        std::get<3>(key) = n->cval.num();
        std::get<4>(key) = n->cval.den();
        break;
      case ExprOp::Cis:
        std::get<3>(key) = n->cis_k;
        std::get<4>(key) = n->cis_n;
        break;
      case ExprOp::Poly: {
        size_t p = 0;
        while (p < polys.size() && !(*polys[p] == n->poly)) ++p;
        if (p == polys.size()) polys.push_back(&n->poly);
        std::get<3>(key) = static_cast<i64>(p);
        break;
      }
      case ExprOp::Neg:
      case ExprOp::Sqrt:
      case ExprOp::Cbrt:
        std::get<1>(key) = self(self, n->a);
        break;
      default:  // binary ops
        std::get<1>(key) = self(self, n->a);
        std::get<2>(key) = self(self, n->b);
        break;
    }
    auto [slot_it, fresh] = numbered.emplace(key, static_cast<int>(code_.size()));
    if (fresh) {
      Ins ins;
      ins.op = n->op;
      ins.a = std::get<1>(key);
      ins.b = std::get<2>(key);
      if (n->op == ExprOp::Const) {
        ins.cval = cld{static_cast<long double>(n->cval.to_long_double()), 0.0L};
      } else if (n->op == ExprOp::Cis) {
        const long double a =
            2.0L * kPi * static_cast<long double>(n->cis_k) / static_cast<long double>(n->cis_n);
        ins.cval = cld{std::cos(a), std::sin(a)};
      } else if (n->op == ExprOp::Poly) {
        ins.poly = CompiledPoly(n->poly, order);
        ins.reads = ins.poly.slot_mask();
      } else if (ins.a >= 0) {
        ins.reads = code_[static_cast<size_t>(ins.a)].reads |
                    (ins.b >= 0 ? code_[static_cast<size_t>(ins.b)].reads : 0);
      }
      code_.push_back(std::move(ins));
    }
    memo.emplace(n.get(), slot_it->second);
    return slot_it->second;
  };
  outs_.reserve(roots.size());
  for (const Expr& r : roots) {
    if (r.empty()) throw SolveError("CompiledExpr: empty root");
    outs_.push_back(emit(emit, r.ptr()));
  }

  // Mark every value that reaches a divisor.  Consumers follow their
  // operands in the code, so one backward pass sees each value's uses
  // before the value.
  for (size_t i = code_.size(); i-- > 0;) {
    Ins& ins = code_[i];
    if (ins.op == ExprOp::Div) code_[static_cast<size_t>(ins.b)].feeds_divisor = true;
    if (ins.feeds_divisor) {
      if (ins.a >= 0) code_[static_cast<size_t>(ins.a)].feeds_divisor = true;
      if (ins.b >= 0) code_[static_cast<size_t>(ins.b)].feeds_divisor = true;
    }
  }
}

void CompiledExpr::run(std::span<const i64> point, u64 changed, cld* vals) const {
  if (code_.empty()) throw SolveError("CompiledExpr::eval on empty expression");

  // Polynomial leaves take long double points; convert once.
  // The conversion is exact for |v| < 2^63 in long double (64-bit mantissa).
  long double pt_ld[32];
  const size_t npt = point.size() < 32 ? point.size() : 32;
  for (size_t i = 0; i < npt; ++i) pt_ld[i] = static_cast<long double>(point[i]);

  // A non-finite operand makes every result non-finite, except a finite
  // numerator over an infinite divisor (a signed zero), and so does a
  // zero divisor.  Callers only ask whether a root is finite, so a value
  // whose uses reach no divisor is passed on as NaN once an operand is
  // non-finite: x87 arithmetic on NaN and infinity costs a microcode
  // assist per operation.  Values that reach a divisor are computed as
  // they are, so the zero a finite / infinite quotient gives is kept.
  constexpr cld kNonFinite{std::numeric_limits<long double>::quiet_NaN(),
                           std::numeric_limits<long double>::quiet_NaN()};
  const bool all = changed == kAllSlots;
  for (size_t i = 0; i < code_.size(); ++i) {
    const Ins& ins = code_[i];
    if (!all && (ins.reads & changed) == 0) continue;
    if (!ins.feeds_divisor && ins.a >= 0) {
      bool nonfinite = !finite_bits(vals[static_cast<size_t>(ins.a)]);
      if (ins.b >= 0) {
        const cld& y = vals[static_cast<size_t>(ins.b)];
        nonfinite = nonfinite || (ins.op == ExprOp::Div ? zero_bits(y) : !finite_bits(y));
      }
      if (nonfinite) {
        vals[i] = kNonFinite;
        continue;
      }
    }
    switch (ins.op) {
      case ExprOp::Const:
      case ExprOp::Cis:
        vals[i] = ins.cval;
        break;
      case ExprOp::Poly:
        vals[i] = cld{ins.poly.eval_ld({pt_ld, npt}), 0.0L};
        break;
      case ExprOp::Add:
        vals[i] = vals[static_cast<size_t>(ins.a)] + vals[static_cast<size_t>(ins.b)];
        break;
      case ExprOp::Sub:
        vals[i] = vals[static_cast<size_t>(ins.a)] - vals[static_cast<size_t>(ins.b)];
        break;
      case ExprOp::Mul:
        vals[i] = vals[static_cast<size_t>(ins.a)] * vals[static_cast<size_t>(ins.b)];
        break;
      case ExprOp::Div:
        vals[i] = vals[static_cast<size_t>(ins.a)] / vals[static_cast<size_t>(ins.b)];
        break;
      case ExprOp::Neg:
        vals[i] = -vals[static_cast<size_t>(ins.a)];
        break;
      case ExprOp::Sqrt:
        vals[i] = std::sqrt(vals[static_cast<size_t>(ins.a)]);
        break;
      case ExprOp::Cbrt:
        vals[i] = principal_cbrt(vals[static_cast<size_t>(ins.a)]);
        break;
    }
  }
}

namespace {
// One value per instruction for eval(point), in a buffer each thread
// keeps across calls: the runtime fallback evaluates one shared const
// program from every thread, and may not allocate per point.
cld* thread_buffer(size_t n) {
  thread_local std::vector<cld> buffer;
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}
}  // namespace

cld CompiledExpr::eval(std::span<const i64> point) const {
  cld* vals = thread_buffer(code_.size());
  run(point, kAllSlots, vals);
  return vals[static_cast<size_t>(outs_.front())];
}

void CompiledExpr::eval(std::span<const i64> point, u64 changed, std::span<cld> values,
                        std::span<cld> out) const {
  if (out.size() != outs_.size()) throw SolveError("CompiledExpr::eval: one output per root");
  if (values.size() < code_.size()) throw SolveError("CompiledExpr::eval: value buffer too small");
  run(point, changed, values.data());
  for (size_t r = 0; r < outs_.size(); ++r) out[r] = values[static_cast<size_t>(outs_[r])];
}

}  // namespace nrc

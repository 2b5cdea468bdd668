#include "symbolic/compile.hpp"

#include <cmath>
#include <map>
#include <tuple>

#include "math/roots.hpp"
#include "support/error.hpp"

namespace nrc {
namespace {
constexpr long double kPi = 3.14159265358979323846264338327950288L;
}

CompiledExpr::CompiledExpr(const Expr& e, std::span<const std::string> order)
    : CompiledExpr(std::span<const Expr>(&e, e.empty() ? 0 : 1), order) {}

CompiledExpr::CompiledExpr(std::span<const Expr> roots, std::span<const std::string> order) {
  // Value numbering: (op, operand slots, leaf value) -> slot.  Leaf values
  // are the constant's numerator/denominator, the root of unity's k/n, or
  // the index of the polynomial among the distinct ones seen so far.
  using Key = std::tuple<ExprOp, int, int, i64, i64>;
  std::map<Key, int> numbered;
  std::map<const ExprNode*, int> memo;  // skips re-walking shared nodes
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
}

std::vector<cld> CompiledExpr::run(std::span<const i64> point) const {
  if (code_.empty()) throw SolveError("CompiledExpr::eval on empty expression");

  // Polynomial leaves take long double points; convert once.
  // The conversion is exact for |v| < 2^63 in long double (64-bit mantissa).
  long double pt_ld[32];
  const size_t npt = point.size() < 32 ? point.size() : 32;
  for (size_t i = 0; i < npt; ++i) pt_ld[i] = static_cast<long double>(point[i]);

  std::vector<cld> vals(code_.size());
  for (size_t i = 0; i < code_.size(); ++i) {
    const Ins& ins = code_[i];
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
  return vals;
}

cld CompiledExpr::eval(std::span<const i64> point) const {
  return run(point)[static_cast<size_t>(outs_.front())];
}

void CompiledExpr::eval(std::span<const i64> point, std::span<cld> out) const {
  if (out.size() != outs_.size()) throw SolveError("CompiledExpr::eval: one output per root");
  const std::vector<cld> vals = run(point);
  for (size_t r = 0; r < outs_.size(); ++r) out[r] = vals[static_cast<size_t>(outs_[r])];
}

}  // namespace nrc

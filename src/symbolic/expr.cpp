#include "symbolic/expr.hpp"

#include <unordered_map>
#include <utility>

#include "support/error.hpp"

namespace nrc {

const ExprNode& Expr::node() const {
  if (!node_) throw SolveError("Expr: dereferencing empty expression");
  return *node_;
}

Expr Expr::constant(const Rational& c) {
  auto n = std::make_shared<ExprNode>();
  n->op = ExprOp::Const;
  n->cval = c;
  return Expr(std::move(n));
}

Expr Expr::cis(int k, int n_in) {
  if (n_in <= 0) throw SolveError("Expr::cis: modulus must be positive");
  const int k_mod = ((k % n_in) + n_in) % n_in;
  if (k_mod == 0) return constant(Rational(1));
  auto n = std::make_shared<ExprNode>();
  n->op = ExprOp::Cis;
  n->cis_k = k_mod;
  n->cis_n = n_in;
  return Expr(std::move(n));
}

Expr Expr::poly(const Polynomial& p) {
  if (p.is_constant()) return constant(p.constant_term());
  auto n = std::make_shared<ExprNode>();
  n->op = ExprOp::Poly;
  n->poly = p;
  return Expr(std::move(n));
}

Expr Expr::make(ExprOp op, Expr a, Expr b) {
  auto n = std::make_shared<ExprNode>();
  n->op = op;
  n->a = a.node_;
  n->b = b.node_;
  return Expr(std::move(n));
}

namespace {
bool is_const(const Expr& e, const Rational& v) {
  return !e.empty() && e.node().op == ExprOp::Const && e.node().cval == v;
}
bool both_const(const Expr& a, const Expr& b) {
  return !a.empty() && !b.empty() && a.node().op == ExprOp::Const &&
         b.node().op == ExprOp::Const;
}
}  // namespace

Expr Expr::operator+(const Expr& o) const {
  if (both_const(*this, o)) return constant(node().cval + o.node().cval);
  if (is_const(*this, Rational(0))) return o;
  if (is_const(o, Rational(0))) return *this;
  return make(ExprOp::Add, *this, o);
}

Expr Expr::operator-(const Expr& o) const {
  if (both_const(*this, o)) return constant(node().cval - o.node().cval);
  if (is_const(o, Rational(0))) return *this;
  return make(ExprOp::Sub, *this, o);
}

Expr Expr::operator*(const Expr& o) const {
  if (both_const(*this, o)) return constant(node().cval * o.node().cval);
  if (is_const(*this, Rational(1))) return o;
  if (is_const(o, Rational(1))) return *this;
  if (is_const(*this, Rational(0)) || is_const(o, Rational(0))) return constant(Rational(0));
  return make(ExprOp::Mul, *this, o);
}

Expr Expr::operator/(const Expr& o) const {
  if (is_const(o, Rational(0))) throw SolveError("Expr: division by constant zero");
  if (both_const(*this, o)) return constant(node().cval / o.node().cval);
  if (is_const(o, Rational(1))) return *this;
  return make(ExprOp::Div, *this, o);
}

Expr Expr::operator-() const {
  if (!empty() && node().op == ExprOp::Const) return constant(-node().cval);
  return make(ExprOp::Neg, *this, Expr());
}

Expr Expr::sqrt() const { return make(ExprOp::Sqrt, *this, Expr()); }
Expr Expr::cbrt() const { return make(ExprOp::Cbrt, *this, Expr()); }

namespace {
// Renders into one buffer, each DAG node once: a node seen before copies
// the span its first rendering wrote, so the cost is linear in the output
// (the expanded tree) instead of in the number of root-to-leaf paths.
class Renderer {
 public:
  std::string out;

  void node(const ExprPtr& n) {
    if (!n) {
      out += "?";
      return;
    }
    if (auto it = spans_.find(n.get()); it != spans_.end()) {
      const auto [off, len] = it->second;
      const size_t end = out.size();
      out.resize(end + len);
      out.copy(out.data() + end, len, off);  // source ends before `end`
      return;
    }
    const size_t off = out.size();
    switch (n->op) {
      case ExprOp::Const:
        out += n->cval.str();
        break;
      case ExprOp::Cis:
        out += "cis(" + std::to_string(n->cis_k) + "/" + std::to_string(n->cis_n) + ")";
        break;
      case ExprOp::Poly:
        out += "(" + n->poly.str() + ")";
        break;
      case ExprOp::Add:
        binary(n, " + ");
        break;
      case ExprOp::Sub:
        binary(n, " - ");
        break;
      case ExprOp::Mul:
        binary(n, " * ");
        break;
      case ExprOp::Div:
        binary(n, " / ");
        break;
      case ExprOp::Neg:
        unary("(-", n, ")");
        break;
      case ExprOp::Sqrt:
        unary("sqrt(", n, ")");
        break;
      case ExprOp::Cbrt:
        unary("cbrt(", n, ")");
        break;
    }
    spans_.emplace(n.get(), std::pair{off, out.size() - off});
  }

 private:
  void binary(const ExprPtr& n, const char* op) {
    out += "(";
    node(n->a);
    out += op;
    node(n->b);
    out += ")";
  }
  void unary(const char* open, const ExprPtr& n, const char* close) {
    out += open;
    node(n->a);
    out += close;
  }

  std::unordered_map<const ExprNode*, std::pair<size_t, size_t>> spans_;
};
}  // namespace

std::string Expr::str() const {
  Renderer r;
  r.node(node_);
  return std::move(r.out);
}

}  // namespace nrc

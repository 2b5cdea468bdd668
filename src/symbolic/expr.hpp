#pragma once
// Symbolic expression DAG.
//
// This small computer-algebra layer replaces the paper's use of Maxima:
// the closed-form roots of the level equations (§IV) are built as
// immutable expression trees whose leaves are either rational constants,
// roots of unity (needed for Cardano branches), or multivariate
// polynomials in the prefix indices, the parameters and pc.
//
// The same tree serves two consumers:
//   * symbolic/compile.*  — a flat evaluator over complex<long double>
//     used by the runtime index recovery, and
//   * symbolic/print_c.*  — the C source printer used by the code
//     generator (paper Figs 3, 4, 7).

#include <memory>
#include <string>
#include <vector>

#include "math/polynomial.hpp"

namespace nrc {

enum class ExprOp {
  Const,  // rational constant
  Cis,    // e^{2*pi*i*k/n}
  Poly,   // multivariate polynomial leaf (evaluated on integer points)
  Add,
  Sub,
  Mul,
  Div,
  Neg,
  Sqrt,  // principal complex square root
  Cbrt,  // principal complex cube root (cpow(z, 1/3))
};

struct ExprNode;
using ExprPtr = std::shared_ptr<const ExprNode>;

/// Handle to an immutable expression node.  Copies are cheap (shared
/// subtrees).  A default-constructed Expr is empty (no node).
class Expr {
 public:
  Expr() = default;

  static Expr constant(const Rational& c);
  static Expr constant(i64 c) { return constant(Rational(c)); }
  /// e^{2*pi*i*k/n}; cis(0, n) folds to the constant 1.
  static Expr cis(int k, int n);
  static Expr poly(const Polynomial& p);
  static Expr variable(const std::string& name) { return poly(Polynomial::variable(name)); }

  bool empty() const { return node_ == nullptr; }
  const ExprNode& node() const;
  const ExprPtr& ptr() const { return node_; }

  Expr operator+(const Expr& o) const;
  Expr operator-(const Expr& o) const;
  Expr operator*(const Expr& o) const;
  Expr operator/(const Expr& o) const;
  Expr operator-() const;
  Expr sqrt() const;
  Expr cbrt() const;

  /// Human-readable rendering (Maxima-ish infix) of the expanded tree,
  /// used by describe().  Each DAG node is rendered once per call and
  /// its text copied at later uses, so the cost is linear in the output.
  std::string str() const;

 private:
  explicit Expr(ExprPtr n) : node_(std::move(n)) {}
  static Expr make(ExprOp op, Expr a, Expr b);
  ExprPtr node_;
};

struct ExprNode {
  ExprOp op;
  Rational cval;    // Const
  int cis_k = 0;    // Cis
  int cis_n = 1;    // Cis
  Polynomial poly;  // Poly
  ExprPtr a;        // first child (unary/binary)
  ExprPtr b;        // second child (binary)
};

}  // namespace nrc

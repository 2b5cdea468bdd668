#include "math/polynomial.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <numeric>

#include "support/error.hpp"

namespace nrc {
namespace {

// A term's key packs one byte per field, big-endian in 64-bit words: the
// total degree, then the exponent of each variable in name order, each
// stored as x - 1 (mod 256), then 0xFF padding (a zero exponent).  With
// the degree byte moved back by one (kDegreeOne), key order is the graded
// term order: at the first variable whose exponents differ, the smaller
// nonzero exponent comes first and a zero one last, which is how the
// factor lists (name, exponent) compare.  The key of a product is the
// bytewise sum of the factors' keys plus one in every byte.
constexpr u64 kHighBits = 0x8080808080808080ull;
constexpr u64 kOnes = 0x0101010101010101ull;
constexpr u64 kDegreeOne = u64{1} << 56;

size_t words_for(size_t nvars) { return (nvars + 8) / 8; }

int shift_of(size_t i) { return 56 - 8 * static_cast<int>(i % 8); }

std::uint8_t stored(const u64* key, size_t i) {
  return static_cast<std::uint8_t>(key[i / 8] >> shift_of(i));
}

void store(u64* key, size_t i, std::uint8_t b) {
  key[i / 8] = (key[i / 8] & ~(u64{0xFF} << shift_of(i))) | (u64{b} << shift_of(i));
}

/// Bytewise a + b (mod 256 in every byte).
u64 add_bytes(u64 a, u64 b) {
  return ((a & ~kHighBits) + (b & ~kHighBits)) ^ ((a ^ b) & kHighBits);
}

void append_key(std::vector<u64>& keys, const u64* key, size_t w) {
  for (size_t k = 0; k < w; ++k) keys.push_back(key[k]);
}

bool key_less(const u64* a, const u64* b, size_t w) {
  if (a[0] != b[0]) return a[0] + kDegreeOne < b[0] + kDegreeOne;
  for (size_t i = 1; i < w; ++i)
    if (a[i] != b[i]) return a[i] < b[i];
  return false;
}

/// Buffers reused by every operation on this thread: operand keys
/// widened to a common variable list, a product's unsorted terms, the
/// result's terms before they are copied out at their exact size, and a
/// byte map for re-laying keys.
struct Scratch {
  std::vector<u64> a, b, rows, res;
  std::vector<Rational> coefs, res_coefs;
  std::vector<std::uint32_t> order;
  std::vector<int> to;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

const std::vector<std::string>& list(const Polynomial::Names& n) {
  static const std::vector<std::string> none;
  return n ? *n : none;
}

/// A shared name list, or null for an empty one.
Polynomial::Names share(std::vector<std::string> names) {
  if (names.empty()) return nullptr;
  return std::make_shared<const std::vector<std::string>>(std::move(names));
}

/// The sorted union of the name lists a and b: one of them when it holds
/// the other.
Polynomial::Names union_vars(const Polynomial::Names& a, const Polynomial::Names& b) {
  if (a == b || std::includes(list(a).begin(), list(a).end(), list(b).begin(), list(b).end()))
    return a;
  if (std::includes(list(b).begin(), list(b).end(), list(a).begin(), list(a).end())) return b;
  std::vector<std::string> u;
  std::set_union(a->begin(), a->end(), b->begin(), b->end(), std::back_inserter(u));
  return share(std::move(u));
}

/// n keys of src_w words re-laid into keys of w words: byte i moves to
/// byte to[i], or is dropped when to[i] < 0.
void relayout(const u64* src, size_t n, size_t src_w, const std::vector<int>& to, size_t w,
              std::vector<u64>& dst) {
  dst.assign(n * w, ~u64{0});
  for (size_t i = 0; i < to.size(); ++i) {
    if (to[i] < 0) continue;
    const auto j = static_cast<size_t>(to[i]);
    for (size_t t = 0; t < n; ++t)  // the 0xFF byte at j becomes byte i
      dst[t * w + j / 8] ^= ((~src[t * src_w + i / 8] >> shift_of(i)) & 0xFF) << shift_of(j);
  }
}

/// `keys` (terms over `pvars`) over `vars`, a sorted superset of `pvars`:
/// the keys themselves when the lists agree, else widened copies in `buf`.
const u64* widen(const std::vector<std::string>& pvars, const std::vector<u64>& keys,
                 const std::vector<std::string>& vars, std::vector<u64>& buf) {
  if (pvars.size() == vars.size()) return keys.data();
  std::vector<int>& to = scratch().to;
  to.assign(pvars.size() + 1, 0);
  for (size_t v = 0, u = 0; v < pvars.size(); ++v, ++u) {
    while (vars[u] != pvars[v]) ++u;
    to[v + 1] = static_cast<int>(u + 1);
  }
  const size_t src_w = words_for(pvars.size());
  relayout(keys.data(), keys.size() / src_w, src_w, to, words_for(vars.size()), buf);
  return buf.data();
}

/// The keys (terms over `vars`) without variable v, each degree lowered
/// by its exponent, into sc.rows, and the other variables into `rest`;
/// returns the new key width.
size_t drop_var(const std::vector<std::string>& vars, const std::vector<u64>& keys, size_t v,
                Scratch& sc, Polynomial::Names& rest) {
  const size_t src_w = words_for(vars.size());
  const size_t w = words_for(vars.size() - 1);
  const size_t n = keys.size() / src_w;
  sc.to.resize(vars.size() + 1);
  for (size_t i = 0; i < sc.to.size(); ++i) sc.to[i] = static_cast<int>(i <= v ? i : i - 1);
  sc.to[v + 1] = -1;
  relayout(keys.data(), n, src_w, sc.to, w, sc.rows);
  for (size_t t = 0; t < n; ++t) {
    const u64* key = &keys[t * src_w];
    store(&sc.rows[t * w], 0, static_cast<std::uint8_t>(stored(key, 0) - stored(key, v + 1) - 1));
  }
  std::vector<std::string> names = vars;
  names.erase(names.begin() + static_cast<std::ptrdiff_t>(v));
  rest = share(std::move(names));
  return w;
}

/// Sort the terms in sc.rows / sc.coefs (keys of w words) and sum those
/// with equal keys into sc.res / sc.res_coefs; true when a sum cancelled.
bool sort_and_combine(Scratch& sc, size_t w) {
  sc.order.resize(sc.coefs.size());
  std::iota(sc.order.begin(), sc.order.end(), 0u);
  const u64* rows = sc.rows.data();
  std::sort(sc.order.begin(), sc.order.end(), [rows, w](std::uint32_t x, std::uint32_t y) {
    return key_less(rows + x * w, rows + y * w, w);
  });
  bool cancelled = false;
  sc.res.clear();
  sc.res_coefs.clear();
  for (size_t k = 0; k < sc.order.size();) {
    const u64* r = rows + sc.order[k] * w;
    Rational c = sc.coefs[sc.order[k]];
    for (++k; k < sc.order.size() && std::equal(r, r + w, rows + sc.order[k] * w); ++k)
      c += sc.coefs[sc.order[k]];
    if (c.is_zero()) {
      cancelled = true;
      continue;
    }
    append_key(sc.res, r, w);
    sc.res_coefs.push_back(c);
  }
  return cancelled;
}

/// The rendering of a term's monomial, e.g. "i^2*N".
std::string monomial_str(const Polynomial& p, size_t t) {
  std::string s;
  for (size_t v = 0; v < p.vars().size(); ++v) {
    const int e = p.exponent(t, v);
    if (e == 0) continue;
    if (!s.empty()) s += "*";
    s += p.vars()[v];
    if (e != 1) s += "^" + std::to_string(e);
  }
  return s;
}

}  // namespace

Polynomial::Polynomial(const Rational& c) {
  if (c.is_zero()) return;
  keys_.push_back(~u64{0});
  coefs_.push_back(c);
}

Polynomial Polynomial::variable(const std::string& name) {
  Polynomial p;
  p.vars_ = share({name});
  p.keys_.push_back(~u64{0} >> 16);  // degree 1, exponent 1
  p.coefs_.emplace_back(1);
  return p;
}

const std::vector<std::string>& Polynomial::vars() const { return list(vars_); }

Rational Polynomial::constant_term() const {
  return !is_zero() && term_degree(0) == 0 ? coefs_[0] : Rational();
}

void Polynomial::set_terms(const Names& vars, const std::vector<u64>& keys,
                           const std::vector<Rational>& coefs, bool prune) {
  vars_ = vars;
  keys_.assign(keys.begin(), keys.end());
  coefs_.assign(coefs.begin(), coefs.end());
  if (!prune) return;
  // Drop the variables no term mentions any more; the term order stays.
  std::vector<int>& to = scratch().to;
  to.assign(nvars() + 1, 0);
  int kept = 0;
  for (size_t v = 0; v < nvars(); ++v) {
    bool used = false;
    for (size_t t = 0; t < num_terms() && !used; ++t) used = exponent(t, v) != 0;
    to[v + 1] = used ? ++kept : -1;
  }
  if (kept == static_cast<int>(nvars())) return;
  std::vector<std::string> names;
  for (size_t v = 0; v < nvars(); ++v)
    if (to[v + 1] > 0) names.push_back((*vars_)[v]);
  std::vector<u64> old;
  old.swap(keys_);
  relayout(old.data(), num_terms(), words_for(nvars()), to, words_for(names.size()), keys_);
  vars_ = share(std::move(names));
}

// sum() and product() read their operands before writing `out`.
void Polynomial::sum(const Polynomial& a, const Polynomial& b, const Rational& k,
                     Polynomial& out) {
  if (k.is_zero()) {
    if (&out != &a) out = a;
    return;
  }
  const bool one = k == Rational(1);
  const bool minus_one = k == Rational(-1);
  auto scaled = [&](const Rational& c) { return one ? c : minus_one ? -c : c * k; };
  Scratch& sc = scratch();
  const Names vars = union_vars(a.vars_, b.vars_);
  const size_t w = words_for(list(vars).size());
  const u64* ra = widen(a.vars(), a.keys_, list(vars), sc.a);
  const u64* rb = widen(b.vars(), b.keys_, list(vars), sc.b);
  sc.res.clear();
  sc.res_coefs.clear();
  auto append = [&](const u64* key, const Rational& c) {
    append_key(sc.res, key, w);
    sc.res_coefs.push_back(c);
  };
  const size_t na = a.num_terms();
  const size_t nb = b.num_terms();
  bool cancelled = false;
  size_t i = 0;
  size_t j = 0;
  while (i < na || j < nb) {
    if (j == nb || (i < na && key_less(ra + i * w, rb + j * w, w))) {
      append(ra + i * w, a.coefs_[i]);
      ++i;
    } else if (i == na || key_less(rb + j * w, ra + i * w, w)) {
      append(rb + j * w, scaled(b.coefs_[j]));
      ++j;
    } else {
      const Rational c = a.coefs_[i] + scaled(b.coefs_[j]);
      if (c.is_zero()) {
        cancelled = true;
      } else {
        append(ra + i * w, c);
      }
      ++i;
      ++j;
    }
  }
  out.set_terms(vars, sc.res, sc.res_coefs, cancelled);
}

void Polynomial::product(const Polynomial& a, const Polynomial& b, Polynomial& out) {
  if (a.is_zero() || b.is_zero()) {
    out = Polynomial();
    return;
  }
  if (a.is_constant() || b.is_constant()) {
    // Scaling by a nonzero constant keeps every term and their order.
    const Polynomial& p = a.is_constant() ? b : a;
    const Rational k = a.is_constant() ? a.coefs_[0] : b.coefs_[0];
    if (&out != &p) out = p;
    for (Rational& c : out.coefs_) c = c * k;
    return;
  }
  Scratch& sc = scratch();
  const Names vars = union_vars(a.vars_, b.vars_);
  const size_t w = words_for(list(vars).size());
  const u64* ra = widen(a.vars(), a.keys_, list(vars), sc.a);
  const u64* rb = widen(b.vars(), b.keys_, list(vars), sc.b);
  const size_t na = a.num_terms();
  const size_t nb = b.num_terms();
  if (a.total_degree() + b.total_degree() > 255)
    throw OverflowError("Polynomial: degree beyond 255");
  sc.rows.resize(na * nb * w);
  sc.coefs.resize(na * nb);
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      for (size_t k = 0; k < w; ++k)
        sc.rows[(i * nb + j) * w + k] = add_bytes(add_bytes(ra[i * w + k], rb[j * w + k]), kOnes);
      sc.coefs[i * nb + j] = a.coefs_[i] * b.coefs_[j];
    }
  }
  const bool cancelled = sort_and_combine(sc, w);
  out.set_terms(vars, sc.res, sc.res_coefs, cancelled);
}

Polynomial Polynomial::operator-() const {
  Polynomial r = *this;
  for (Rational& c : r.coefs_) c = -c;
  return r;
}

Polynomial Polynomial::operator+(const Polynomial& o) const {
  Polynomial r;
  sum(*this, o, Rational(1), r);
  return r;
}

Polynomial Polynomial::operator-(const Polynomial& o) const {
  Polynomial r;
  sum(*this, o, Rational(-1), r);
  return r;
}

Polynomial Polynomial::operator*(const Polynomial& o) const {
  Polynomial r;
  product(*this, o, r);
  return r;
}

Polynomial Polynomial::operator*(const Rational& s) const {
  if (s.is_zero()) return {};
  Polynomial r = *this;
  for (Rational& c : r.coefs_) c = c * s;
  return r;
}

Polynomial Polynomial::operator/(const Rational& s) const {
  if (s.is_zero()) throw SpecError("Polynomial: division by zero scalar");
  return *this * (Rational(1) / s);
}

Polynomial Polynomial::pow(unsigned e) const {
  Polynomial r(Rational(1));
  Polynomial base = *this;
  while (e > 0) {
    if (e & 1u) r *= base;
    e >>= 1u;
    if (e > 0) base *= base;
  }
  return r;
}

int Polynomial::var_index(const std::string& var) const {
  const auto it = std::lower_bound(vars().begin(), vars().end(), var);
  return it == vars().end() || *it != var ? -1 : static_cast<int>(it - vars().begin());
}

int Polynomial::degree_in(const std::string& var) const {
  const int v = var_index(var);
  int d = 0;
  for (size_t t = 0; t < num_terms() && v >= 0; ++t)
    d = std::max(d, exponent(t, static_cast<size_t>(v)));
  return d;
}

std::vector<Polynomial> Polynomial::coefficients_in(const std::string& var) const {
  const int v = var_index(var);
  if (v < 0) return {*this};
  Scratch& sc = scratch();
  Names rest;
  const size_t w = drop_var(vars(), keys_, static_cast<size_t>(v), sc, rest);
  // Terms sharing var's exponent keep their order once it is removed.
  std::vector<Polynomial> coeffs(static_cast<size_t>(degree_in(var)) + 1);
  for (size_t e = 0; e < coeffs.size(); ++e) {
    sc.res.clear();
    sc.res_coefs.clear();
    for (size_t t = 0; t < num_terms(); ++t) {
      if (exponent(t, static_cast<size_t>(v)) != static_cast<int>(e)) continue;
      append_key(sc.res, &sc.rows[t * w], w);
      sc.res_coefs.push_back(coefs_[t]);
    }
    coeffs[e].set_terms(rest, sc.res, sc.res_coefs, true);
  }
  return coeffs;
}

Polynomial Polynomial::substitute(const std::string& var, const Polynomial& value) const {
  if (var_index(var) < 0) return *this;
  return horner(coefficients_in(var), value);
}

Polynomial Polynomial::horner(const std::vector<Polynomial>& coeffs, const Polynomial& x) {
  Polynomial r;
  for (size_t e = coeffs.size(); e-- > 0;) {
    product(r, x, r);
    sum(r, coeffs[e], Rational(1), r);
  }
  return r;
}

Polynomial Polynomial::derivative(const std::string& var) const {
  // d/dvar sum_e c_e * var^e = sum_{e >= 1} e * c_e * var^(e-1).
  std::vector<Polynomial> coeffs = coefficients_in(var);
  coeffs.erase(coeffs.begin());
  for (size_t e = 0; e < coeffs.size(); ++e)
    coeffs[e] = coeffs[e] * Rational(static_cast<i64>(e) + 1);
  return horner(coeffs, variable(var));
}

template <class T, class Map>
std::vector<T> Polynomial::values_of(const Map& vals, const char* who) const {
  std::vector<T> x;
  for (const std::string& v : vars()) {
    auto it = vals.find(v);
    if (it == vals.end()) throw SpecError(std::string(who) + ": missing value for " + v);
    x.push_back(it->second);
  }
  return x;
}

Rational Polynomial::eval(const std::map<std::string, Rational>& vals) const {
  const auto x = values_of<Rational>(vals, "Polynomial::eval");
  Rational acc(0);
  for (size_t t = 0; t < num_terms(); ++t) {
    Rational term = coefs_[t];
    for (size_t v = 0; v < nvars(); ++v)
      for (int k = 0; k < exponent(t, v); ++k) term *= x[v];
    acc += term;
  }
  return acc;
}

i128 Polynomial::eval_i128(const std::map<std::string, i64>& vals) const {
  const auto x = values_of<i64>(vals, "Polynomial::eval_i128");
  const i64 den = denominator_lcm();
  i128 acc = 0;
  for (size_t t = 0; t < num_terms(); ++t) {
    i128 term = checked_mul(static_cast<i128>(coefs_[t].num()), den / coefs_[t].den());
    for (size_t v = 0; v < nvars(); ++v)
      if (const int e = exponent(t, v))
        term = checked_mul(term, ipow_checked(x[v], static_cast<unsigned>(e)));
    acc = checked_add(acc, term);
  }
  return exact_div(acc, den);
}

i64 Polynomial::denominator_lcm() const {
  i64 l = 1;
  for (const Rational& c : coefs_) l = lcm_i64(l, c.den());
  return l;
}

std::string Polynomial::str() const {
  if (is_zero()) return "0";
  std::string s;
  // Render highest-degree terms first for readability.
  for (size_t t = num_terms(); t-- > 0;) {
    const Rational& c = coefs_[t];
    Rational shown = c;
    if (s.empty()) {
      if (c.num() < 0) {
        s += "-";
        shown = -c;
      }
    } else {
      s += c.num() >= 0 ? " + " : " - ";
      if (c.num() < 0) shown = -c;
    }
    if (term_degree(t) == 0) {
      s += shown.str();
    } else if (shown == Rational(1)) {
      s += monomial_str(*this, t);
    } else {
      s += shown.str() + "*" + monomial_str(*this, t);
    }
  }
  return s;
}

CompiledPoly::CompiledPoly(const Polynomial& p, std::span<const std::string> order) {
  den_ = p.denominator_lcm();
  std::vector<i64> slot;
  for (const std::string& v : p.vars()) {
    auto it = std::find(order.begin(), order.end(), v);
    if (it == order.end())
      throw SpecError("CompiledPoly: variable " + v + " missing from slot order");
    slot.push_back(it - order.begin());
  }
  size_t size = 0;
  for (size_t t = 0; t < p.num_terms(); ++t) size += 2 + static_cast<size_t>(p.term_degree(t));
  code_.reserve(size);
  for (size_t t = 0; t < p.num_terms(); ++t) {
    const Rational& c = p.coef(t);
    code_.push_back(checked_mul_i64(c.num(), den_ / c.den()));
    code_.push_back(p.term_degree(t));
    for (size_t v = 0; v < slot.size(); ++v)
      code_.insert(code_.end(), static_cast<size_t>(p.exponent(t, v)), slot[v]);
  }
}

double CompiledPoly::value_bound(const double* lo, const double* hi) const {
  auto widest = [](double a, double b) { return std::max(std::fabs(a), std::fabs(b)); };
  double worst = 0.0;
  double sum_lo = 0.0;
  double sum_hi = 0.0;
  for_each_term([&](i64 coef, const i64* f, const i64* end) {
    // The term's range after each factor.
    double v_lo = static_cast<double>(coef);
    double v_hi = v_lo;
    for (; f < end; ++f) {
      const double p[] = {v_lo * lo[*f], v_lo * hi[*f], v_hi * lo[*f], v_hi * hi[*f]};
      v_lo = *std::min_element(p, p + 4);
      v_hi = *std::max_element(p, p + 4);
      worst = std::max(worst, widest(v_lo, v_hi));
    }
    sum_lo += v_lo;
    sum_hi += v_hi;
    worst = std::max({worst, widest(v_lo, v_hi), widest(sum_lo, sum_hi)});
  });
  return worst;
}

long double CompiledPoly::eval_ld(std::span<const long double> point) const {
  long double acc = 0.0L;
  for_each_term([&](i64 coef, const i64* f, const i64* end) {
    long double v = static_cast<long double>(coef);
    for (; f < end; ++f) v *= point[static_cast<size_t>(*f)];
    acc += v;
  });
  return acc / static_cast<long double>(den_);
}

}  // namespace nrc

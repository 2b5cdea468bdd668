#include "polyhedral/domain.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/int128.hpp"

namespace nrc {
namespace {

/// A loop bound resolved once per walk: each term reads an outer loop
/// index by position or a parameter's value, so a point costs a few
/// multiply-adds instead of name lookups.  Terms keep the bound's order
/// and AffineExpr::eval's checked arithmetic, so values and overflow
/// errors are the ones AffineExpr::eval gives.
struct SlotBound {
  struct Term {
    i64 coef;
    int slot;   // outer loop position, or -1: a parameter, `value`
    i64 value;
  };
  i64 cst = 0;
  std::vector<Term> terms;
  std::string missing;  // a variable with no value; eval() throws for it

  SlotBound(const AffineExpr& a, const NestSpec& spec, int level, const ParamMap& params)
      : cst(a.constant_term()) {
    for (const auto& [v, c] : a.coefficients()) {
      int slot = -1;
      for (int q = 0; q < level; ++q)
        if (spec.at(q).var == v) slot = q;
      if (slot >= 0) {
        terms.push_back({c, slot, 0});
      } else if (auto it = params.find(v); it != params.end()) {
        terms.push_back({c, -1, it->second});
      } else if (missing.empty()) {
        missing = v;
      }
    }
  }

  i64 eval(const std::vector<i64>& idx) const {
    if (!missing.empty()) throw SpecError("AffineExpr::eval: missing value for " + missing);
    i64 acc = cst;
    for (const Term& t : terms) {
      const i64 x = t.slot >= 0 ? idx[static_cast<size_t>(t.slot)] : t.value;
      acc = checked_add_i64(acc, checked_mul_i64(t.coef, x));
    }
    return acc;
  }
};

/// Lexicographic walk over the domain.  `visit(point)` returning false
/// stops it, as does the first empty range when `stop_at_empty` is set.
class Walker {
 public:
  Walker(const NestSpec& spec, const ParamMap& params)
      : idx_(static_cast<size_t>(spec.depth()), 0) {
    for (int k = 0; k < spec.depth(); ++k) {
      lo_.emplace_back(spec.at(k).lower, spec, k, params);
      hi_.emplace_back(spec.at(k).upper, spec, k, params);
    }
  }

  bool stop_at_empty = false;
  bool saw_empty = false;

  template <class Visit>
  void run(Visit&& visit) {
    go(0, visit);
  }

 private:
  template <class Visit>
  bool go(size_t k, Visit& visit) {
    if (k == idx_.size()) return visit(std::span<const i64>(idx_.data(), idx_.size()));
    const i64 lo = lo_[k].eval(idx_);
    const i64 hi = hi_[k].eval(idx_);
    if (hi <= lo) {
      saw_empty = true;
      if (stop_at_empty) return false;
    }
    for (i64 v = lo; v < hi; ++v) {
      idx_[k] = v;
      if (!go(k + 1, visit)) return false;
    }
    return true;
  }

  std::vector<SlotBound> lo_, hi_;
  std::vector<i64> idx_;
};

}  // namespace

void walk_domain(const NestSpec& spec, const ParamMap& params,
                 const std::function<void(std::span<const i64>)>& fn) {
  spec.validate();
  Walker(spec, params).run([&](std::span<const i64> p) {
    fn(p);
    return true;
  });
}

i64 count_domain_brute(const NestSpec& spec, const ParamMap& params) {
  spec.validate();
  i64 n = 0;
  Walker(spec, params).run([&](std::span<const i64>) {
    ++n;
    return true;
  });
  return n;
}

std::vector<std::vector<i64>> domain_points(const NestSpec& spec, const ParamMap& params) {
  std::vector<std::vector<i64>> pts;
  walk_domain(spec, params,
              [&](std::span<const i64> p) { pts.emplace_back(p.begin(), p.end()); });
  return pts;
}

i64 rank_brute(const NestSpec& spec, const ParamMap& params, std::span<const i64> point) {
  spec.validate();
  i64 r = 0;
  bool found = false;
  Walker(spec, params).run([&](std::span<const i64> p) {
    ++r;
    found = std::equal(p.begin(), p.end(), point.begin());
    return !found;
  });
  return found ? r : 0;
}

bool has_no_empty_ranges(const NestSpec& spec, const ParamMap& params, i64 max_points) {
  Walker w(spec, params);
  w.stop_at_empty = true;
  i64 n = 0;
  w.run([&](std::span<const i64>) { return ++n < max_points; });
  return !w.saw_empty;
}

}  // namespace nrc

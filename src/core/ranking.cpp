#include "core/ranking.hpp"

#include "math/faulhaber.hpp"
#include "support/error.hpp"

namespace nrc {

RankingSystem build_ranking_system(const NestSpec& spec) {
  spec.validate();
  for (const auto& p : spec.params())
    if (p == kPcVar) throw SpecError("NestSpec: parameter name 'pc' is reserved");
  for (const auto& l : spec.loops())
    if (l.var == kPcVar) throw SpecError("NestSpec: loop variable name 'pc' is reserved");

  RankingSystem rs;
  rs.nest = spec;
  const int c = spec.depth();

  // S_k = sum_{t = l_k}^{u_k - 1} S_{k+1}(i_0..i_{k-1}, t) (subtree_counts) and
  // rank = 1 + sum_k  sum_{t = l_k}^{i_k - 1} S_{k+1}(i_0..i_{k-1}, t)
  // share S_{k+1}'s antiderivative Q_k and Q_k(l_k - 1).
  const Polynomial one(Rational(1));
  rs.subtree.resize(static_cast<size_t>(c) + 1);
  rs.subtree[static_cast<size_t>(c)] = one;
  std::vector<Polynomial> rank_part(static_cast<size_t>(c));
  for (int k = c - 1; k >= 0; --k) {
    const Loop& l = spec.at(k);
    const auto Q = antiderivative(rs.subtree[static_cast<size_t>(k) + 1], l.var);
    const auto at = [&Q](const Polynomial& x) { return Polynomial::horner(Q, x); };
    const Polynomial below = at(l.lower.to_poly() - one);
    rs.subtree[static_cast<size_t>(k)] = at(l.upper.to_poly() - one) - below;
    rank_part[static_cast<size_t>(k)] = at(Polynomial::variable(l.var) - one) - below;
  }
  rs.rank = one;
  for (const Polynomial& part : rank_part) rs.rank += part;

  // prefix_rank[k] = substitute_trailing_lexmin(r, spec, k): each level
  // substitutes one loop more than the level below it.
  rs.prefix_rank.resize(static_cast<size_t>(c));
  rs.prefix_rank[static_cast<size_t>(c) - 1] = rs.rank;
  for (int k = c - 2; k >= 0; --k) {
    const Loop& next = spec.at(k + 1);
    rs.prefix_rank[static_cast<size_t>(k)] =
        rs.prefix_rank[static_cast<size_t>(k) + 1].substitute(next.var, next.lower.to_poly());
  }

  // r(lexmax) telescopes to the subtree count of the whole nest.
  rs.total = rs.subtree[0];
  return rs;
}

}  // namespace nrc

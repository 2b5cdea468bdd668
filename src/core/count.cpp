#include "core/count.hpp"

#include "core/ranking.hpp"

namespace nrc {

std::vector<Polynomial> subtree_counts(const NestSpec& spec) {
  return build_ranking_system(spec).subtree;
}

Polynomial count_polynomial(const NestSpec& spec) { return subtree_counts(spec)[0]; }

}  // namespace nrc

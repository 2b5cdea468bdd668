// Figure 8 reproduction: the curve family r(i,0,0) - pc of the Fig. 6
// nest for pc = 1..10, i in [-2.5, 3] — the illustration of §IV-D's
// argument that the curves are parallel translates, so the convenient
// symbolic root branch is the same for every pc.
//
// Emits CSV (i, then one column per pc) to stdout, ready for plotting.

#include <cstdio>

#include "core/ranking.hpp"
#include "polyhedral/lexmin.hpp"

using namespace nrc;

int main() {
  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N") - 1)
      .loop("j", aff::c(0), aff::v("i") + 1)
      .loop("k", aff::v("j"), aff::v("i") + 1);
  const RankingSystem rs = build_ranking_system(nest);

  // r(i, 0, 0): substitute j = 0, k = 0 (their lexmins at the origin).
  const Polynomial r_i00 =
      rs.rank.substitute("j", Polynomial(0)).substitute("k", Polynomial(0));

  std::printf("# Figure 8: r(i,0,0) - pc for the Fig. 6 nest\n");
  std::printf("# r(i,0,0) = %s (parameter-free)\n", r_i00.str().c_str());
  std::printf("i");
  for (int pc = 1; pc <= 10; ++pc) std::printf(",pc=%d", pc);
  std::printf("\n");

  for (double i = -2.5; i <= 3.0 + 1e-9; i += 0.1) {
    std::printf("%.2f", i);
    // Evaluate the rational polynomial at the real point.
    double value = 0.0;
    for (size_t t = 0; t < r_i00.num_terms(); ++t) {
      double term = r_i00.coef(t).to_double();
      for (int e = 0; e < r_i00.term_degree(t); ++e) term *= i;
      value += term;
    }
    for (int pc = 1; pc <= 10; ++pc) std::printf(",%.4f", value - pc);
    std::printf("\n");
  }
  return 0;
}

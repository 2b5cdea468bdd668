#ifndef NRC_WIDE_C
#define NRC_WIDE_C
/* Exact wide arithmetic for guard walks and level coefficients:
 * parameter-shifted nests overflow 64-bit intermediates. */
#if defined(__SIZEOF_INT128__)
typedef __int128 nrc_wide;
#else
typedef long long nrc_wide; /* demotion: no 128-bit type here */
#endif
#endif /* NRC_WIDE_C */
#ifndef NRC_QUAD_SOLVER_C
#define NRC_QUAD_SOLVER_C
/* Real-arithmetic root estimators, the C transliteration of the
 * library's core/real_solvers.hpp at double precision.  An estimate is
 * the floor of the largest real root within half a step of the level
 * range [lb, ub]; it feeds an exact integer correction guard.  A 0
 * return means no root lies in the range and the caller starts its
 * correction from a bound.  No C99 complex anywhere. */
static int nrc_pick_root(const double *r, int n, long long lb, long long ub,
                         long long *est) {
  const double lo = (double)lb - 0.5;
  const double hi = (double)ub + 0.5;
  int found = 0;
  double best = lo;
  int i;
  for (i = 0; i < n; i++) {
    if (r[i] >= lo && r[i] <= hi && (!found || r[i] > best)) {
      best = r[i];
      found = 1;
    }
  }
  if (!found) return 0;
  *est = (long long)floor(best + 0x1.12e0be826d695p-30);
  return 1;
}
/* A2 t^2 + A1 t + A0: the upward crossing, (-A1 + sqrt(disc)) / (2 A2),
 * in the form that does not cancel. */
static int nrc_quad_est(double a0, double a1, double a2, long long lb, long long ub,
                        long long *est) {
  const double disc = a1 * a1 - 4.0 * a2 * a0;
  double sq, r;
  if (a2 == 0.0 || !(disc >= 0.0)) return 0;
  sq = sqrt(disc);
  r = a1 > 0.0 ? -2.0 * a0 / (a1 + sq) : (sq - a1) / (2.0 * a2);
  return nrc_pick_root(&r, 1, lb, ub, est);
}
#endif /* NRC_QUAD_SOLVER_C */
static void tri_collapsed(long long N, double *x) {
  const long long __nrc_total = (long long)(((nrc_wide)N*(nrc_wide)N + (nrc_wide)N) / 2);
  long long i, j;
  #pragma omp parallel for private(i, j) schedule(static, 64)
  for (long long pc = 1; pc <= __nrc_total; pc++) {
    if ((pc - 1) % 64 == 0) {
      {
        const double __nrc_A0 = (double)(-2*(nrc_wide)pc + 2);
        const double __nrc_A1 = (double)(2*(nrc_wide)N + 1);
        const double __nrc_A2 = (double)(-1);
        long long __nrc_est;
        i = nrc_quad_est(__nrc_A0, __nrc_A1, __nrc_A2, (0), (N), &__nrc_est) ? __nrc_est : (0);
      }
      if (i < (0)) i = (0);
      if (i > (N) - 1) i = (N) - 1;
      while (i > (0) && ((-(nrc_wide)i*(nrc_wide)i + 2*(nrc_wide)N*(nrc_wide)i + (nrc_wide)i + 2) / 2) > pc) i -= 1;
      while (i < (N) - 1 && ((-(nrc_wide)i*(nrc_wide)i + 2*(nrc_wide)N*(nrc_wide)i - (nrc_wide)i + 2*(nrc_wide)N + 2) / 2) <= pc) i += 1;
      j = (long long)((i) + (pc - ((-(nrc_wide)i*(nrc_wide)i + 2*(nrc_wide)N*(nrc_wide)i + (nrc_wide)i + 2) / 2)));
    }
    x[i] += (double)j;
    /* advance to the next iteration of the original nest */
    j++;
    if (j >= N) {
      i++;
      j = i;
    }
  }
}

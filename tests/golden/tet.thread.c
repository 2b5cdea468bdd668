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
#ifndef NRC_REAL_SOLVERS_C
#define NRC_REAL_SOLVERS_C
/* Cardano/Viete and Ferrari. */
static int nrc_quad_roots(double b, double c, double *r) {
  const double disc = b * b - 4.0 * c;
  if (!(disc >= 0.0)) return 0;
  r[0] = -(b + copysign(sqrt(disc), b)) / 2.0;
  r[1] = c / r[0];
  return 2;
}
static int nrc_cubic_roots(double b, double c, double d, double *r) {
  const double p = c - b * b / 3.0;
  const double q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d;
  const double delta = q * q / 4.0 + p * p * p / 27.0;
  const double shift = b / 3.0;
  if (delta < 0.0) {
    const double m = sqrt(-p / 3.0);
    const double phi = atan2(sqrt(-delta), -q / 2.0);
    const double c0 = cos(phi / 3.0);
    const double s0 = sin(phi / 3.0);
    r[0] = 2.0 * m * c0 - shift;
    r[1] = 2.0 * m * (-c0 / 2.0 - s0 * 0x1.bb67ae8584caap-1) - shift;
    r[2] = 2.0 * m * (-c0 / 2.0 + s0 * 0x1.bb67ae8584caap-1) - shift;
    return 3;
  } else {
    const double sq = sqrt(delta);
    const double u = cbrt(q > 0.0 ? -q / 2.0 - sq : -q / 2.0 + sq);
    double y = 0.0;
    if (u != 0.0) {
      const double v = -p / (3.0 * u);
      y = p > 0.0 ? -q / (u * u + v * v + p / 3.0) : u + v;
    }
    r[0] = y - shift;
    return 1;
  }
}
static int nrc_cubic_est(double a0, double a1, double a2, double a3,
                         long long lb, long long ub, long long *est) {
  double r[3];
  int n;
  if (a3 == 0.0) return 0;
  n = nrc_cubic_roots(a2 / a3, a1 / a3, a0 / a3, r);
  return nrc_pick_root(r, n, lb, ub, est);
}
static int nrc_ferrari_est(double A0, double A1, double A2, double A3,
                           double A4, long long lb, long long ub, long long *est) {
  double b, c, d, e, p, q, r, c2, c1, c0, fw, dfw;
  double w = 0.0;
  double w3[3], y[4], z[2];
  int nw, nz, i;
  int n = 0;
  if (A4 == 0.0) return 0;
  b = A3 / A4;
  c = A2 / A4;
  d = A1 / A4;
  e = A0 / A4;
  /* Depressed quartic y^4 + p y^2 + q y + r (x = y - b/4). */
  p = c - b * b * (3.0 / 8.0);
  q = d - b * c / 2.0 + b * b * b / 8.0;
  r = e - b * d / 4.0 + b * b * c / 16.0 - b * b * b * b * (3.0 / 256.0);
  /* Largest root w >= 0 of the resolvent w^3 + 2p w^2 + (p^2 - 4r) w - q^2,
   * polished by one Newton step. */
  c2 = 2.0 * p;
  c1 = p * p - 4.0 * r;
  c0 = -(q * q);
  nw = nrc_cubic_roots(c2, c1, c0, w3);
  for (i = 0; i < nw; i++)
    if (w3[i] > w) w = w3[i];
  fw = ((w + c2) * w + c1) * w + c0;
  dfw = (3.0 * w + 2.0 * c2) * w + c1;
  if (dfw != 0.0) w -= fw / dfw;
  if (w > 0.0) {
    /* (y^2 + alpha y + beta)(y^2 - alpha y + gamma), alpha^2 = w. */
    const double alpha = sqrt(w);
    const double h = (p + w) / 2.0;
    const double g = q / (2.0 * alpha);
    n = nrc_quad_roots(alpha, h - g, y);
    n += nrc_quad_roots(-alpha, h + g, y + n);
  } else {
    /* Biquadratic: y^2 = z for each real z >= 0 of z^2 + p z + r. */
    nz = nrc_quad_roots(p, r, z);
    for (i = 0; i < nz; i++) {
      if (!(z[i] >= 0.0)) continue;
      y[n++] = sqrt(z[i]);
      y[n++] = -sqrt(z[i]);
    }
  }
  for (i = 0; i < n; i++) y[i] -= b / 4.0;
  return nrc_pick_root(y, n, lb, ub, est);
}
#endif /* NRC_REAL_SOLVERS_C */
static void tet_collapsed(long long N, double *s) {
  const long long __nrc_total = (long long)(((nrc_wide)N*(nrc_wide)N*(nrc_wide)N - (nrc_wide)N) / 6);
  long long i, j, k;
  int __nrc_first = 1;
  #pragma omp parallel for firstprivate(__nrc_first) private(i, j, k) schedule(static)
  for (long long pc = 1; pc <= __nrc_total; pc++) {
    if (__nrc_first) {
      {
        const double __nrc_A0 = (double)(-6*(nrc_wide)pc + 6);
        const double __nrc_A1 = (double)(2);
        const double __nrc_A2 = (double)(3);
        const double __nrc_A3 = (double)(1);
        long long __nrc_est;
        i = nrc_cubic_est(__nrc_A0, __nrc_A1, __nrc_A2, __nrc_A3, (0), (N - 1), &__nrc_est) ? __nrc_est : (0);
      }
      if (i < (0)) i = (0);
      if (i > (N - 1) - 1) i = (N - 1) - 1;
      while (i > (0) && (((nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 3*(nrc_wide)i*(nrc_wide)i + 2*(nrc_wide)i + 6) / 6) > pc) i -= 1;
      while (i < (N - 1) - 1 && (((nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 6*(nrc_wide)i*(nrc_wide)i + 11*(nrc_wide)i + 12) / 6) <= pc) i += 1;
      {
        const double __nrc_A0 = (double)((nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 3*(nrc_wide)i*(nrc_wide)i - 6*(nrc_wide)pc + 2*(nrc_wide)i + 6);
        const double __nrc_A1 = (double)(6*(nrc_wide)i + 9);
        const double __nrc_A2 = (double)(-3);
        long long __nrc_est;
        j = nrc_quad_est(__nrc_A0, __nrc_A1, __nrc_A2, (0), (i + 1), &__nrc_est) ? __nrc_est : (0);
      }
      if (j < (0)) j = (0);
      if (j > (i + 1) - 1) j = (i + 1) - 1;
      while (j > (0) && (((nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 3*(nrc_wide)j*(nrc_wide)j + 3*(nrc_wide)i*(nrc_wide)i + 6*(nrc_wide)i*(nrc_wide)j + 9*(nrc_wide)j + 2*(nrc_wide)i + 6) / 6) > pc) j -= 1;
      while (j < (i + 1) - 1 && (((nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 3*(nrc_wide)j*(nrc_wide)j + 3*(nrc_wide)i*(nrc_wide)i + 6*(nrc_wide)i*(nrc_wide)j + 3*(nrc_wide)j + 8*(nrc_wide)i + 12) / 6) <= pc) j += 1;
      k = (long long)((j) + (pc - (((nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 3*(nrc_wide)j*(nrc_wide)j + 3*(nrc_wide)i*(nrc_wide)i + 6*(nrc_wide)i*(nrc_wide)j + 9*(nrc_wide)j + 2*(nrc_wide)i + 6) / 6)));
      __nrc_first = 0;
    }
    s[i] += (double)(j + k);
    /* advance to the next iteration of the original nest */
    k++;
    if (k >= i + 1) {
      j++;
      if (j >= i + 1) {
        i++;
        j = 0;
      }
      k = j;
    }
  }
}

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
#ifndef NRC_REAL_SOLVERS_C
#define NRC_REAL_SOLVERS_C
/* Guarded real-arithmetic root estimators (Cardano/Viete and Ferrari),
 * the C transliteration of the library's core/real_solvers.hpp at double
 * precision.  Estimates feed floor() + an exact integer correction guard;
 * a 0 return means the formula degenerated here and the caller must fall
 * back to its demotion guard.  No C99 complex arithmetic anywhere. */
static double nrc_cardano_re(double b, double c, double d, int branch,
                             double *im) {
  const double p = c - b * b / 3.0;
  const double q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d;
  const double delta = q * q / 4.0 + p * p * p / 27.0;
  double re, iv = 0.0;
  if (delta < 0.0) {
    const double m = sqrt(-p / 3.0);
    const double phi = atan2(sqrt(-delta), -q / 2.0);
    re = 2.0 * m * cos(phi / 3.0 + 0x1.0c152382d7366p+1 * (double)branch) - b / 3.0;
  } else {
    const double v = -q / 2.0 + sqrt(delta);
    const double m = cbrt(fabs(v));
    static const double cpos[3] = {1.0, -0.5, -0.5};
    static const double spos[3] = {0.0, 0x1.bb67ae8584caap-1, -0x1.bb67ae8584caap-1};
    static const double cneg[3] = {0.5, -1.0, 0.5};
    static const double sneg[3] = {0x1.bb67ae8584caap-1, 0.0, -0x1.bb67ae8584caap-1};
    const double cosw = v < 0.0 ? cneg[branch] : cpos[branch];
    const double sinw = v < 0.0 ? sneg[branch] : spos[branch];
    const double po3m = p / (3.0 * m);
    re = (m - po3m) * cosw - b / 3.0;
    iv = (m + po3m) * sinw;
  }
  *im = iv;
  return re;
}
static int nrc_est_in_range(double root) {
  return isfinite(root) && root >= -0x1.feb3dd06766p+62 && root <= 0x1.feb3dd06766p+62;
}
static int nrc_cubic_est(double a0, double a1, double a2, double a3,
                         int branch, long long *est) {
  double im;
  double re;
  if (a3 == 0.0) return 0;
  re = nrc_cardano_re(a2 / a3, a1 / a3, a0 / a3, branch, &im);
  if (!nrc_est_in_range(re)) return 0;
  *est = (long long)floor(re + 0x1.12e0be826d695p-30);
  return 1;
}
static int nrc_ferrari_est(double A0, double A1, double A2, double A3,
                           double A4, int branch, long long *est) {
  if (A4 == 0.0) return 0;
  {
    const double b = A3 / A4;
    const double c = A2 / A4;
    const double d = A1 / A4;
    const double e = A0 / A4;
    /* Depressed quartic y^4 + p y^2 + q y + r (x = y - b/4). */
    const double p = c - b * b * (3.0 / 8.0);
    const double q = d - b * c / 2.0 + b * b * b / 8.0;
    const double r = e - b * d / 4.0 + b * b * c / 16.0 -
                     b * b * b * b * (3.0 / 256.0);
    const int rb = branch / 4;
    const int qb = branch % 4;
    /* Resolvent cubic w^3 + 2p w^2 + (p^2 - 4r) w - q^2 = 0. */
    double wi;
    const double wr = nrc_cardano_re(2.0 * p, p * p - 4.0 * r, -(q * q), rb, &wi);
    /* alpha = principal complex sqrt of w, unfolded to real pairs;
     * q/alpha = q*conj(alpha)/|w|. */
    const double aw = hypot(wr, wi);
    const double ar = sqrt((aw + wr) / 2.0);
    const double ai = copysign(sqrt((aw - wr) / 2.0), wi);
    const double qar = q * ar / aw;
    const double qai = -q * ai / aw;
    const double sg = qb < 2 ? -1.0 : 1.0;
    const double Dr = wr - 2.0 * (p + wr + sg * qar);
    const double Di = -wi - 2.0 * sg * qai;
    const double sr = sqrt((hypot(Dr, Di) + Dr) / 2.0);
    const double y = ((qb < 2 ? -ar : ar) + ((qb & 1) ? -sr : sr)) / 2.0;
    const double root = y - b / 4.0;
    if (!nrc_est_in_range(root)) return 0;
    *est = (long long)floor(root + 0x1.12e0be826d695p-30);
  }
  return 1;
}
#endif /* NRC_REAL_SOLVERS_C */
static void simplex4sh_collapsed(long long N, double *s) {
  const long long __nrc_total = (long long)(((nrc_wide)N*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 22*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 167*(nrc_wide)N*(nrc_wide)N + 482*(nrc_wide)N) / 24);
  long long i, j, k, l;
  #pragma omp parallel for private(i, j, k, l) schedule(static, 64)
  for (long long pc = 1; pc <= __nrc_total; pc++) {
    if ((pc - 1) % 64 == 0) {
      {
        const double __nrc_A0 = (double)(-12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N - 252*(nrc_wide)N*(nrc_wide)N - 24*(nrc_wide)pc - 1704*(nrc_wide)N - 3600);
        const double __nrc_A1 = (double)(4*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 102*(nrc_wide)N*(nrc_wide)N + 838*(nrc_wide)N + 2186);
        const double __nrc_A2 = (double)(-6*(nrc_wide)N*(nrc_wide)N - 102*(nrc_wide)N - 419);
        const double __nrc_A3 = (double)(4*(nrc_wide)N + 34);
        const double __nrc_A4 = (double)(-1);
        long long __nrc_est;
        i = nrc_ferrari_est(__nrc_A0, __nrc_A1, __nrc_A2, __nrc_A3, __nrc_A4, 1, &__nrc_est) ? __nrc_est : (3);
      }
      if (i < (3)) i = (3);
      if (i > (N + 3) - 1) i = (N + 3) - 1;
      while (i > (3) && ((-(nrc_wide)i*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 6*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 34*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 102*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 102*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i - 419*(nrc_wide)i*(nrc_wide)i - 252*(nrc_wide)N*(nrc_wide)N + 838*(nrc_wide)N*(nrc_wide)i + 2186*(nrc_wide)i - 1704*(nrc_wide)N - 3600) / 24) > pc) i -= 1;
      while (i < (N + 3) - 1 && ((-(nrc_wide)i*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 6*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 30*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 8*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 90*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 90*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i - 323*(nrc_wide)i*(nrc_wide)i - 156*(nrc_wide)N*(nrc_wide)N + 646*(nrc_wide)N*(nrc_wide)i + 1446*(nrc_wide)i - 964*(nrc_wide)N - 1800) / 24) <= pc) i += 1;
      {
        const double __nrc_A0 = (double)(-(nrc_wide)i*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 6*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 30*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 90*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 90*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i - 323*(nrc_wide)i*(nrc_wide)i - 228*(nrc_wide)N*(nrc_wide)N + 646*(nrc_wide)N*(nrc_wide)i - 24*(nrc_wide)pc + 1446*(nrc_wide)i - 1368*(nrc_wide)N - 2472);
        const double __nrc_A1 = (double)(12*(nrc_wide)N*(nrc_wide)N + 144*(nrc_wide)N + 404);
        const double __nrc_A2 = (double)(-12*(nrc_wide)N - 72);
        const double __nrc_A3 = (double)(4);
        long long __nrc_est;
        j = nrc_cubic_est(__nrc_A0, __nrc_A1, __nrc_A2, __nrc_A3, 1, &__nrc_est) ? __nrc_est : (i - 2);
      }
      if (j < (i - 2)) j = (i - 2);
      if (j > (N + 3) - 1) j = (N + 3) - 1;
      while (j > (i - 2) && ((-(nrc_wide)i*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 6*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)j*(nrc_wide)j*(nrc_wide)j + 30*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)j + 90*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)j*(nrc_wide)j - 90*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i - 72*(nrc_wide)j*(nrc_wide)j - 323*(nrc_wide)i*(nrc_wide)i - 228*(nrc_wide)N*(nrc_wide)N + 144*(nrc_wide)N*(nrc_wide)j + 646*(nrc_wide)N*(nrc_wide)i + 404*(nrc_wide)j + 1446*(nrc_wide)i - 1368*(nrc_wide)N - 2472) / 24) > pc) j -= 1;
      while (j < (N + 3) - 1 && ((-(nrc_wide)i*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 6*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)j*(nrc_wide)j*(nrc_wide)j + 30*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)j + 90*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)j*(nrc_wide)j - 90*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i - 60*(nrc_wide)j*(nrc_wide)j - 323*(nrc_wide)i*(nrc_wide)i - 216*(nrc_wide)N*(nrc_wide)N + 120*(nrc_wide)N*(nrc_wide)j + 646*(nrc_wide)N*(nrc_wide)i + 272*(nrc_wide)j + 1446*(nrc_wide)i - 1236*(nrc_wide)N - 2136) / 24) <= pc) j += 1;
      k = (long long)floor((((-((2*(double)N + 11) / 2.0)) + sqrt(((((2*(double)N + 11) / 2.0) * ((2*(double)N + 11) / 2.0)) - ((-2) * ((-(double)i*(double)i*(double)i*(double)i + 4*(double)N*(double)N*(double)N*(double)i - 6*(double)N*(double)N*(double)i*(double)i + 4*(double)N*(double)i*(double)i*(double)i + 4*(double)j*(double)j*(double)j + 30*(double)i*(double)i*(double)i - 12*(double)N*(double)N*(double)N + 12*(double)N*(double)N*(double)j + 90*(double)N*(double)N*(double)i - 12*(double)N*(double)j*(double)j - 90*(double)N*(double)i*(double)i - 60*(double)j*(double)j - 323*(double)i*(double)i - 228*(double)N*(double)N + 120*(double)N*(double)j + 646*(double)N*(double)i - 24*(double)pc + 272*(double)j + 1446*(double)i - 1368*(double)N - 2472) / 24.0))))) / (-1)));
      if (k < (j)) k = (j);
      if (k > (N + 4) - 1) k = (N + 4) - 1;
      while (k > (j) && ((-(nrc_wide)i*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 6*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)j*(nrc_wide)j*(nrc_wide)j + 30*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)j + 90*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)j*(nrc_wide)j - 90*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)k*(nrc_wide)k - 60*(nrc_wide)j*(nrc_wide)j - 323*(nrc_wide)i*(nrc_wide)i - 228*(nrc_wide)N*(nrc_wide)N + 24*(nrc_wide)N*(nrc_wide)k + 120*(nrc_wide)N*(nrc_wide)j + 646*(nrc_wide)N*(nrc_wide)i + 132*(nrc_wide)k + 272*(nrc_wide)j + 1446*(nrc_wide)i - 1368*(nrc_wide)N - 2472) / 24) > pc) k -= 1;
      while (k < (N + 4) - 1 && ((-(nrc_wide)i*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 6*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)j*(nrc_wide)j*(nrc_wide)j + 30*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)j + 90*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)j*(nrc_wide)j - 90*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)k*(nrc_wide)k - 60*(nrc_wide)j*(nrc_wide)j - 323*(nrc_wide)i*(nrc_wide)i - 228*(nrc_wide)N*(nrc_wide)N + 24*(nrc_wide)N*(nrc_wide)k + 120*(nrc_wide)N*(nrc_wide)j + 646*(nrc_wide)N*(nrc_wide)i + 108*(nrc_wide)k + 272*(nrc_wide)j + 1446*(nrc_wide)i - 1344*(nrc_wide)N - 2352) / 24) <= pc) k += 1;
      l = (long long)((k) + (pc - ((-(nrc_wide)i*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 6*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i + 4*(nrc_wide)j*(nrc_wide)j*(nrc_wide)j + 30*(nrc_wide)i*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)N + 12*(nrc_wide)N*(nrc_wide)N*(nrc_wide)j + 90*(nrc_wide)N*(nrc_wide)N*(nrc_wide)i - 12*(nrc_wide)N*(nrc_wide)j*(nrc_wide)j - 90*(nrc_wide)N*(nrc_wide)i*(nrc_wide)i - 12*(nrc_wide)k*(nrc_wide)k - 60*(nrc_wide)j*(nrc_wide)j - 323*(nrc_wide)i*(nrc_wide)i - 228*(nrc_wide)N*(nrc_wide)N + 24*(nrc_wide)N*(nrc_wide)k + 120*(nrc_wide)N*(nrc_wide)j + 646*(nrc_wide)N*(nrc_wide)i + 132*(nrc_wide)k + 272*(nrc_wide)j + 1446*(nrc_wide)i - 1368*(nrc_wide)N - 2472) / 24)));
    }
    s[i] += (double)(j + k + l);
    /* advance to the next iteration of the original nest */
    l++;
    if (l >= N + 5) {
      k++;
      if (k >= N + 4) {
        j++;
        if (j >= N + 3) {
          i++;
          j = i - 2;
        }
        k = j;
      }
      l = k;
    }
  }
}

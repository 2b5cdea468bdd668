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
static void tri_collapsed(long long N, double *x) {
  const long long __nrc_total = (long long)(((nrc_wide)N*(nrc_wide)N + (nrc_wide)N) / 2);
  long long i, j;
  int __nrc_first = 1;
  #pragma omp parallel for firstprivate(__nrc_first) private(i, j) schedule(static)
  for (long long pc = 1; pc <= __nrc_total; pc += 8) {
    if (__nrc_first) {
      i = (long long)floor((((-((2*(double)N + 1) / 2.0)) + sqrt(((((2*(double)N + 1) / 2.0) * ((2*(double)N + 1) / 2.0)) - ((-2) * (-(double)pc + 1))))) / (-1)));
      if (i < (0)) i = (0);
      if (i > (N) - 1) i = (N) - 1;
      while (i > (0) && ((-(nrc_wide)i*(nrc_wide)i + 2*(nrc_wide)N*(nrc_wide)i + (nrc_wide)i + 2) / 2) > pc) i -= 1;
      while (i < (N) - 1 && ((-(nrc_wide)i*(nrc_wide)i + 2*(nrc_wide)N*(nrc_wide)i - (nrc_wide)i + 2*(nrc_wide)N + 2) / 2) <= pc) i += 1;
      j = (long long)((i) + (pc - ((-(nrc_wide)i*(nrc_wide)i + 2*(nrc_wide)N*(nrc_wide)i + (nrc_wide)i + 2) / 2)));
      __nrc_first = 0;
    }
    long long __nrc_T_i[8];
    long long __nrc_T_j[8];
    const long long __nrc_blk = (__nrc_total - pc + 1) < 8 ? (__nrc_total - pc + 1) : 8;
    for (long long __v = 0; __v < __nrc_blk; __v++) {
      __nrc_T_i[__v] = i;
      __nrc_T_j[__v] = j;
      /* advance to the next iteration of the original nest */
      j++;
      if (j >= N) {
        i++;
        j = i;
      }
    }
    #pragma omp simd
    for (long long __v = 0; __v < __nrc_blk; __v++) {
      long long i = __nrc_T_i[__v];
      long long j = __nrc_T_j[__v];
      x[i] += (double)j;
    }
  }
}

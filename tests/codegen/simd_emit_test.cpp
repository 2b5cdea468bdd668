// Golden-structure and integration tests for the §VI-A SimdBlocks
// code-generation style.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "codegen/c_emitter.hpp"

namespace nrc {
namespace {

NestProgram utma_prog() {
  return parse_nest_program(R"(
name utma
params N
array double a[N][N]
array double b[N][N]
array double c[N][N]
loop i = 0 .. N
loop j = i .. N
body {
  c[i][j] = a[i][j] + b[i][j];
}
)");
}

TEST(SimdEmit, StructureMirrorsSectionVIA) {
  const NestProgram prog = utma_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::simd_blocks(8);
  const std::string src = emit_collapsed_function(prog, col, opt);
  // Block stride on the pc loop.
  EXPECT_NE(src.find("for (long long pc = 1; pc <= __nrc_total; pc += 8)"),
            std::string::npos)
      << src;
  // Precomputed tuple arrays + incrementation.
  EXPECT_NE(src.find("long long __nrc_T_i[8];"), std::string::npos);
  EXPECT_NE(src.find("long long __nrc_T_j[8];"), std::string::npos);
  EXPECT_NE(src.find("__nrc_T_i[__v] = i;"), std::string::npos);
  EXPECT_NE(src.find("j++;"), std::string::npos);
  // The simd body rebinds the lane's indices.
  EXPECT_NE(src.find("#pragma omp simd"), std::string::npos);
  EXPECT_NE(src.find("long long i = __nrc_T_i[__v];"), std::string::npos);
  // One recovery per thread (firstprivate flag).
  EXPECT_NE(src.find("firstprivate(__nrc_first)"), std::string::npos);
}

TEST(SimdEmit, RejectsOutOfRangeVlen) {
  // Each loop variable gets a vlen-long staging array per thread, so a
  // vlen past kMaxSimdLanes must not reach the emitted C.
  const NestProgram prog = utma_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  for (const int vlen : {0, kMaxSimdLanes + 1, 100000000}) {
    opt.schedule = Schedule::simd_blocks(vlen);
    EXPECT_THROW(emit_collapsed_function(prog, col, opt), SpecError) << vlen;
    EXPECT_THROW(emit_verification_program(prog, col, opt), SpecError) << vlen;
  }
  opt.schedule = Schedule::simd_blocks(kMaxSimdLanes);
  EXPECT_NE(emit_collapsed_function(prog, col, opt).find("long long __nrc_T_i[256];"),
            std::string::npos);
}

TEST(SimdEmit, CompilesAndVerifies) {
  if (std::system("cc --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no system C compiler";
  const NestProgram prog = utma_prog();
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::simd_blocks(4);
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream out(dir + "/nrc_simd.c");
    out << emit_verification_program(prog, col, opt);
  }
  ASSERT_EQ(std::system(("cc -std=c99 -O2 -fopenmp -o " + dir + "/nrc_simd.bin " + dir +
                         "/nrc_simd.c -lm")
                            .c_str()),
            0);
  for (const char* n : {"1", "5", "37", "64"}) {
    EXPECT_EQ(std::system((dir + "/nrc_simd.bin " + n + " > /dev/null").c_str()), 0)
        << "N=" << n;
  }
}

TEST(SimdEmit, PartialCollapseWithInnerLoopCompiles) {
  if (std::system("cc --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no system C compiler";
  const NestProgram prog = parse_nest_program(R"(
name corrsimd
params N
array double a[N][N]
array double b[N][N]
loop i = 0 .. N-1
loop j = i+1 .. N
collapse 2
body {
  double acc = 0.0;
  for (long k = 0; k < N; k++)
    acc += b[i][k] * b[j][k];
  a[i][j] = acc;
}
)");
  const Collapsed col = collapse(prog.collapsed_nest());
  EmitOptions opt;
  opt.schedule = Schedule::simd_blocks(8);
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream out(dir + "/nrc_simd2.c");
    out << emit_verification_program(prog, col, opt);
  }
  ASSERT_EQ(std::system(("cc -std=c99 -O2 -fopenmp -o " + dir + "/nrc_simd2.bin " + dir +
                         "/nrc_simd2.c -lm")
                            .c_str()),
            0);
  EXPECT_EQ(std::system((dir + "/nrc_simd2.bin 29 > /dev/null").c_str()), 0);
}

}  // namespace
}  // namespace nrc

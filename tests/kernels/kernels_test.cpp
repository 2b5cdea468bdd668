// Cross-variant validation of the evaluation kernels at a small scale:
// every scheduling variant of every kernel must produce the same output
// (the paper: "outputs of collapsed and non-collapsed programs have been
// compared to ensure the correctness of the collapsed loops").
#include <gtest/gtest.h>

#include "kernels/data.hpp"
#include "kernels/registry.hpp"
#include "polyhedral/domain.hpp"

namespace nrc {
namespace {

constexpr double kTestScale = 0.08;  // tiny sizes: correctness only

class KernelVariants : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelVariants, AllVariantsMatchSerialChecksum) {
  auto kernel = make_kernel(GetParam());
  kernel->prepare(kTestScale);

  kernel->run(Variant::SerialOriginal, 1, 0);
  const double expect = kernel->checksum();
  ASSERT_NE(expect, 0.0) << "degenerate kernel output";

  // The production partition differs between 1 and >= 2 threads, and 3
  // threads do not divide the claims evenly.
  for (int threads : {1, 2, 3, 4}) {
    for (Variant v : {Variant::SerialCollapsedSim, Variant::SerialCollapsedSimScalar,
                      Variant::OuterStatic, Variant::OuterDynamic, Variant::CollapsedStatic,
                      Variant::CollapsedStaticBlock, Variant::CollapsedDynamic}) {
      kernel->run(v, threads, 12);
      EXPECT_TRUE(nearly_equal(kernel->checksum(), expect))
          << variant_name(v) << " at " << threads << " threads: " << kernel->checksum()
          << " vs " << expect;
    }
  }
}

TEST_P(KernelVariants, MetadataIsConsistent) {
  auto kernel = make_kernel(GetParam());
  EXPECT_EQ(kernel->info().name, GetParam());
  kernel->prepare(kTestScale);
  EXPECT_GT(kernel->collapsed_iterations(), 0);
  const NestSpec spec = kernel->collapsed_spec();
  EXPECT_EQ(spec.depth(), kernel->info().collapse_depth);
  EXPECT_GE(kernel->info().nest_depth, kernel->info().collapse_depth);
  // The reported collapsed iteration count must match the domain.
  EXPECT_EQ(kernel->collapsed_iterations(),
            count_domain_brute(spec, kernel->bound_params()));
}

std::string name_of(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelVariants,
                         ::testing::ValuesIn(kernel_names()), name_of);

TEST(KernelRegistry, NamesAndFactories) {
  EXPECT_EQ(kernel_names().size(), 11u);  // 9 Polybench-shaped + utma + ltmp
  EXPECT_THROW(make_kernel("nope"), SpecError);
  EXPECT_EQ(make_all_kernels().size(), kernel_names().size());
}

TEST(KernelRegistry, VariantNames) {
  EXPECT_STREQ(variant_name(Variant::SerialOriginal), "serial-original");
  EXPECT_STREQ(variant_name(Variant::CollapsedStatic), "collapsed-auto");
  EXPECT_STREQ(variant_name(Variant::OuterDynamic), "outer-dynamic");
}

TEST(KernelData, MatrixBasics) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  m.fill_lcg(7);
  const double c1 = m.checksum();
  EXPECT_NE(c1, 0.0);
  Matrix m2(3, 4);
  m2.fill_lcg(7);
  EXPECT_EQ(m2.checksum(), c1);  // deterministic init
  m.fill_zero();
  EXPECT_EQ(m.checksum(), 0.0);
  m[1][2] = 5.0;
  EXPECT_EQ(m.row(1)[2], 5.0);
}

TEST(KernelData, NearlyEqual) {
  EXPECT_TRUE(nearly_equal(1.0, 1.0));
  EXPECT_TRUE(nearly_equal(1e9, 1e9 * (1 + 1e-12)));
  EXPECT_FALSE(nearly_equal(1.0, 1.001));
}

}  // namespace
}  // namespace nrc

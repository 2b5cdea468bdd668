// nrc::RuntimeConfig: the folded process-global toggles, the scoped
// override guard, and the contract that
// Collapsed::bind() applies the CURRENT config even when the bind is
// served from the memo.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/collapse.hpp"
#include "core/runtime_config.hpp"

namespace nrc {
namespace {

TEST(RuntimeConfig, DefaultsMatchTheHistoricalToggles) {
  const RuntimeConfig def;
  EXPECT_TRUE(def.f64_guards);
  EXPECT_FALSE(def.bytecode_quartics);
  EXPECT_FALSE(def.force_quartic_demotion);
}

TEST(RuntimeConfig, ScopedOverrideRestoresOnExit) {
  const RuntimeConfig before = runtime_config();
  {
    ScopedRuntimeConfig scope;
    runtime_config().f64_guards = false;
    runtime_config().bytecode_quartics = true;
    EXPECT_FALSE(runtime_config().f64_guards);
  }
  EXPECT_EQ(runtime_config().f64_guards, before.f64_guards);
  EXPECT_EQ(runtime_config().bytecode_quartics, before.bytecode_quartics);
}

TEST(RuntimeConfig, BindAppliesTheConfigToTheReturnedEval) {
  const Collapsed col = collapse(testutil::simplex_4d());
  {
    ScopedRuntimeConfig scope;
    runtime_config().f64_guards = false;
    const CollapsedEval ev = col.bind({{"N", 12}});
    EXPECT_FALSE(ev.f64_guards());
  }
  const CollapsedEval ev = col.bind({{"N", 12}});
  EXPECT_TRUE(ev.f64_guards());
}

TEST(RuntimeConfig, MemoizedRebindHonorsTheCurrentConfig) {
  // The memo stores the PRISTINE eval; the config is applied to the
  // returned copy — so flipping bytecode_quartics between two binds of
  // the same parameters changes the lowering even on a memo hit.
  const Collapsed col = collapse(testutil::simplex_4d());
  const CollapsedEval plain = col.bind({{"N", 12}});
  EXPECT_EQ(plain.solver_kind(0), LevelSolverKind::Quartic);

  ScopedRuntimeConfig scope;
  runtime_config().bytecode_quartics = true;
  const size_t reuses_before = col.bind_reuses();
  const CollapsedEval demoted = col.bind({{"N", 12}});
  EXPECT_GT(col.bind_reuses(), reuses_before);  // served from the memo
  EXPECT_TRUE(demoted.solver_kind(0) == LevelSolverKind::Program ||
              demoted.solver_kind(0) == LevelSolverKind::Interpreted)
      << level_solver_kind_name(demoted.solver_kind(0));

  // And both lowerings recover the same tuples.
  ASSERT_EQ(plain.trip_count(), demoted.trip_count());
  i64 a[8], b[8];
  const size_t d = static_cast<size_t>(plain.depth());
  for (i64 pc = 1; pc <= plain.trip_count(); pc += 7) {
    plain.recover(pc, {a, d});
    demoted.recover(pc, {b, d});
    for (size_t k = 0; k < d; ++k) ASSERT_EQ(a[k], b[k]) << "pc=" << pc;
  }
}

}  // namespace
}  // namespace nrc

#pragma once
// nrcollapse — automatic collapsing of non-rectangular loops.
//
// Umbrella header: pulls in the whole public API.
//
//   #include <nrcollapse.hpp>
//
//   nrc::NestSpec nest;
//   nest.param("N")
//       .loop("i", nrc::aff::c(0), nrc::aff::v("N") - 1)
//       .loop("j", nrc::aff::v("i") + 1, nrc::aff::v("N"));
//   auto col = nrc::collapse(nest);
//   auto cn  = col.bind({{"N", 5000}});
//   nrc::run(cn, nrc::Schedule::per_thread(), [&](std::span<const nrc::i64> ij) {
//     /* body using ij[0], ij[1] */
//   });
//
// nrc::run is the one way to run a collapsed loop: the Schedule value
// names the scheme and carries its parameters (pipeline/schedule.hpp),
// and Schedule::auto_select picks one when the caller has no preference.

#include "codegen/c_emitter.hpp"
#include "codegen/c_for_parser.hpp"
#include "codegen/dsl_parser.hpp"
#include "core/collapse.hpp"
#include "core/count.hpp"
#include "core/increment.hpp"
#include "core/ranking.hpp"
#include "core/unrank_closed.hpp"
#include "core/unrank_newton.hpp"
#include "core/unrank_search.hpp"
#include "core/validate.hpp"
#include "jit/jit_kernel.hpp"
#include "jit/kernel_cache.hpp"
#include "jit/toolchain.hpp"
#include "kernels/data.hpp"
#include "kernels/registry.hpp"
#include "math/faulhaber.hpp"
#include "math/polynomial.hpp"
#include "math/rational.hpp"
#include "pipeline/dispatch.hpp"
#include "pipeline/plan.hpp"
#include "pipeline/plan_cache.hpp"
#include "pipeline/schedule.hpp"
#include "polyhedral/affine.hpp"
#include "polyhedral/domain.hpp"
#include "polyhedral/lexmin.hpp"
#include "polyhedral/nest.hpp"
#include "runtime/baselines.hpp"
#include "runtime/simd_abi.hpp"
#include "runtime/thread_stats.hpp"
#include "serve/protocol.hpp"
#include "serve/serialization.hpp"
#include "symbolic/print_c.hpp"
#include "viz/ascii_domain.hpp"

#pragma once
// Common scaffolding shared by the kernel implementations.

#include <algorithm>
#include <cmath>
#include <optional>

#include "kernels/data.hpp"
#include "kernels/registry.hpp"
#include "pipeline/dispatch.hpp"

namespace nrc {

/// Base class wiring the collapse machinery into a kernel.  Subclasses
/// fill info_, build their nest + data in prepare(), and implement run().
class KernelBase : public IKernel {
 public:
  const KernelInfo& info() const override { return info_; }
  NestSpec collapsed_spec() const override { return col_.nest(); }
  ParamMap bound_params() const override { return params_; }
  i64 collapsed_iterations() const override { return eval_->trip_count(); }

 protected:
  /// Collapse `nest`, bind `params`, cache the evaluator.
  void setup_collapse(const NestSpec& nest, const ParamMap& params) {
    col_ = collapse(nest);
    params_ = params;
    eval_.emplace(col_.bind(params));
  }

  /// Run one of the five collapsed Variants through nrc::run; the
  /// other three are the kernel's own loops and do nothing here.
  /// `best` is the kernel's fastest body: a row-segment body (§VI-A)
  /// where the innermost loop should vectorize, else the tuple body.
  /// `tuple` is the tuple body.  The Fig. 10 serial protocol, the
  /// production pick and the per-thread block scheme take `best`, so
  /// segment kernels run row segments and tuple kernels the §V scalar
  /// walk; the scalar Fig. 10 variant and the per-iteration dynamic
  /// scheme take `tuple`.  CollapsedStatic runs the partition a caller
  /// with no preference gets, Schedule::auto_select: guided dynamic
  /// claims with one recovery each at >= 2 threads, one per-thread walk
  /// at 1 thread.
  template <class Best, class Tuple>
  void run_collapsed(Variant v, int threads, int sims, Best& best, Tuple& tuple) const {
    constexpr bool seg = detail::is_segment_body_v<Best>;
    const CollapsedEval& cn = *eval_;
    switch (v) {
      case Variant::SerialCollapsedSim:
        nrc::run(cn, Schedule::serial_sim(sims), best);
        break;
      case Variant::SerialCollapsedSimScalar:
        nrc::run(cn, Schedule::serial_sim(sims), tuple);
        break;
      case Variant::CollapsedStatic:
        nrc::run(cn, Schedule::auto_select(cn, {threads}), best);
        break;
      case Variant::CollapsedStaticBlock:
        nrc::run(cn, seg ? Schedule::row_segments({threads}) : Schedule::per_thread({threads}),
                 best);
        break;
      case Variant::CollapsedDynamic:
        nrc::run(cn, Schedule::per_iteration(OmpSchedule::Dynamic, {threads}), tuple);
        break;
      default:
        break;
    }
  }

  /// Scaled problem size: round(base * scale), floored at `floor_sz`.
  static i64 scaled(i64 base, double scale, i64 floor_sz = 64) {
    return std::max<i64>(floor_sz, static_cast<i64>(std::llround(
                                       static_cast<double>(base) * scale)));
  }

  KernelInfo info_;
  Collapsed col_;
  std::optional<CollapsedEval> eval_;
  ParamMap params_;

  /// Number of times run() repeats the hot nest inside one timed call.
  /// Light-body kernels finish in ~10 ms on modern hosts, far below the
  /// noise floor of a shared machine; repeating the (idempotent or
  /// variant-invariant) nest restores a measurable duration without
  /// changing any variant ratio.
  int timed_reps_ = 1;
};

}  // namespace nrc

#pragma once
// Evaluation-kernel registry (the workloads of paper §VII).
//
// Eleven kernels: nine Polybench-shaped non-rectangular nests (incl. the
// Pluto-tiled variants the paper uses) plus the paper's own utma and
// ltmp.  Every kernel can run under each scheduling variant so the
// Fig. 9 / Fig. 10 harnesses can sweep uniformly:
//
//   SerialOriginal       — original nest, no OpenMP (Fig. 10 baseline)
//   SerialCollapsedSim   — collapsed loop, serial, `root_eval_sims`
//                          recoveries (Fig. 10 protocol: 12 evaluations),
//                          using the kernel's best execution form
//                          (row segments where the body allows it)
//   SerialCollapsedSimScalar — same protocol but strictly element-wise
//                          incrementation, exactly the code shape of the
//                          paper's Fig. 4 (reproduces the paper's
//                          overhead outliers on light bodies)
//   OuterStatic          — original nest, outermost loop omp schedule(static)
//   OuterDynamic         — original nest, outermost loop omp schedule(dynamic)
//   CollapsedStatic      — collapsed loop under the production pick,
//                          Schedule::auto_select: guided dynamic claims,
//                          one recovery per claim (>= 2 threads); one
//                          per-thread walk (1 thread)
//   CollapsedStaticBlock — collapsed loop, §V per-thread scheme
//                          (one contiguous block and one recovery per thread)
//   CollapsedDynamic     — collapsed loop, per-iteration recovery, dynamic

#include <memory>
#include <string>
#include <vector>

#include "core/collapse.hpp"

namespace nrc {

enum class Variant {
  SerialOriginal,
  SerialCollapsedSim,
  SerialCollapsedSimScalar,
  OuterStatic,
  OuterDynamic,
  CollapsedStatic,
  CollapsedStaticBlock,
  CollapsedDynamic,
};

const char* variant_name(Variant v);

struct KernelInfo {
  std::string name;
  std::string description;
  std::string shape;   ///< triangular / trapezoidal / tiled-triangular / ...
  int nest_depth = 0;  ///< depth of the hot nest
  int collapse_depth = 0;
};

/// One evaluation workload.
class IKernel {
 public:
  virtual ~IKernel() = default;

  virtual const KernelInfo& info() const = 0;

  /// Allocate and initialize data; scale 1.0 gives the default sizes
  /// (paper sizes are larger; the harnesses expose --scale).
  virtual void prepare(double scale) = 0;

  /// Number of iterations of the collapsed domain (reporting).
  virtual i64 collapsed_iterations() const = 0;

  /// Execute one variant.  `threads` applies to parallel variants;
  /// `root_eval_sims` applies to SerialCollapsedSim (paper uses 12).
  virtual void run(Variant v, int threads, int root_eval_sims) = 0;

  /// Checksum of the kernel's output (for cross-variant validation).
  virtual double checksum() const = 0;

  /// The collapsed sub-nest (for reporting / codegen round-trips).
  virtual NestSpec collapsed_spec() const = 0;
  virtual ParamMap bound_params() const = 0;
};

/// All registered kernel names, in the order the paper's figures use.
std::vector<std::string> kernel_names();

/// Factory; throws SpecError for unknown names.
std::unique_ptr<IKernel> make_kernel(const std::string& name);

std::vector<std::unique_ptr<IKernel>> make_all_kernels();

}  // namespace nrc

#include "kernels/registry.hpp"

#include "kernels/correlation.hpp"
#include "kernels/covariance.hpp"
#include "kernels/ltmp.hpp"
#include "kernels/skewed_stencil.hpp"
#include "kernels/symm.hpp"
#include "kernels/syr2k.hpp"
#include "kernels/syrk.hpp"
#include "kernels/tiled.hpp"
#include "kernels/trmm_tri.hpp"
#include "kernels/utma.hpp"
#include "support/error.hpp"

namespace nrc {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::SerialOriginal:
      return "serial-original";
    case Variant::SerialCollapsedSim:
      return "serial-collapsed-sim";
    case Variant::SerialCollapsedSimScalar:
      return "serial-collapsed-sim-scalar";
    case Variant::OuterStatic:
      return "outer-static";
    case Variant::OuterDynamic:
      return "outer-dynamic";
    case Variant::CollapsedStatic:
      return "collapsed-auto";
    case Variant::CollapsedStaticBlock:
      return "collapsed-static-block";
    case Variant::CollapsedDynamic:
      return "collapsed-dynamic";
  }
  return "?";
}

std::vector<std::string> kernel_names() {
  return {"correlation", "correlation_tiled", "covariance", "covariance_tiled",
          "symm",        "syrk",              "syr2k",      "trmm",
          "skewstencil", "utma",              "ltmp"};
}

std::unique_ptr<IKernel> make_kernel(const std::string& name) {
  if (name == "correlation") return std::make_unique<CorrelationKernel>();
  if (name == "correlation_tiled") return std::make_unique<CorrelationTiledKernel>();
  if (name == "covariance") return std::make_unique<CovarianceKernel>();
  if (name == "covariance_tiled") return std::make_unique<CovarianceTiledKernel>();
  if (name == "symm") return std::make_unique<SymmKernel>();
  if (name == "syrk") return std::make_unique<SyrkKernel>();
  if (name == "syr2k") return std::make_unique<Syr2kKernel>();
  if (name == "trmm") return std::make_unique<TrmmTriKernel>();
  if (name == "skewstencil") return std::make_unique<SkewedStencilKernel>();
  if (name == "utma") return std::make_unique<UtmaKernel>();
  if (name == "ltmp") return std::make_unique<LtmpKernel>();
  throw SpecError("make_kernel: unknown kernel '" + name + "'");
}

std::vector<std::unique_ptr<IKernel>> make_all_kernels() {
  std::vector<std::unique_ptr<IKernel>> ks;
  for (const auto& n : kernel_names()) ks.push_back(make_kernel(n));
  return ks;
}

}  // namespace nrc

#pragma once
// C code emission: the back end of the source-to-source tool.
//
// Produces OpenMP C99 code in the styles shown in the paper:
//   * PerIteration — Fig. 3: closed-form recovery at every iteration;
//   * PerThread    — Fig. 4: firstprivate flag, one recovery per thread,
//                    then original-nest index incrementation;
//   * Chunked      — §V: schedule(static, CHUNK) or schedule(dynamic,
//                    CHUNK) with one recovery per chunk;
//   * SimdBlocks   — §VI-A: precompute vlength index tuples, omp simd
//                    body.
// Degree-1 recoveries divide; degree 2-4 recoveries call emitted guarded
// real-arithmetic helpers (quadratic, Cardano/Viete, Ferrari) — the C
// transliteration of the library's core/real_solvers.hpp
// (print_c.hpp::real_solver_helpers_c) — so the generated code computes
// the same estimates as CollapsedEval and never floors a non-finite
// value (the paper's Fig. 3 sqrt and Fig. 7 creal(cpow(...)) forms are
// UB at degenerate points; degeneration now falls back to the exact
// integer-guard walk instead).
//
// The emitter consumes the same Schedule descriptor the runtime
// dispatcher executes (pipeline/schedule.hpp), so a scheme choice made
// once — by hand or by Schedule::auto_select — drives library execution
// and generated C from one source of truth.  Each of the nine runtime
// schemes maps onto the nearest of the four emission styles
// (emission_style below): the chunked schemes emit the Chunked style
// with their chunk and static/dynamic flavour, the SIMD block schemes
// the SimdBlocks style with their vlen, the per-thread family
// (per_thread, row_segments, serial_sim) the Fig. 4 PerThread style,
// and warp_sim emits PerIteration under schedule(static, 1) — the coalesced
// consecutive-iteration deal §VI-B targets, expressed in OpenMP.
//
// emit_verification_program wraps the original and the collapsed
// function in a main() that runs both on identical inputs and compares
// every output array — the end-to-end artifact the integration tests
// compile with the system C compiler and execute.

#include <string>

#include "codegen/dsl_parser.hpp"
#include "core/collapse.hpp"
#include "pipeline/schedule.hpp"

namespace nrc {

enum class RecoveryStyle {
  PerIteration,  ///< Fig. 3: recovery at every iteration
  PerThread,     ///< Fig. 4: one recovery per thread + incrementation
  Chunked,       ///< §V: schedule(static|dynamic, CHUNK), recovery per chunk
  SimdBlocks,    ///< §VI-A: precompute vlength index tuples, omp simd body
};

/// The emission style a Schedule lowers to (see the mapping above).
RecoveryStyle emission_style(const Schedule& s);

/// The OpenMP schedule clause body the emitted pragma carries for a
/// Schedule, e.g. "static", "dynamic", "static, 512", "dynamic, 512".
std::string emission_omp_schedule(const Schedule& s);

struct NestCertificate;

struct EmitOptions {
  /// The scheme to emit; the default Schedule is the Fig. 4 per-thread
  /// scheme.  scheme parameters (chunk, vlen, the static/dynamic
  /// flavour) come from here — a non-positive chunk
  /// lowers to the PerThread style, exactly the fallback nrc::run
  /// executes for the same descriptor.
  Schedule schedule{};
  bool parallel = true;  ///< emit the OpenMP pragma
  /// Optional static certificate for the emitted plan
  /// (analysis/nest_analyzer.hpp).  When set, the emitter refuses
  /// error-severity certificates (SpecError listing the diagnostics;
  /// disable with refuse_on_error = false) and annotates the generated
  /// code with a `/* nrclint: ... */` header rendering the remaining
  /// diagnostics — so generated C carries its own audit trail instead
  /// of silently overflowing where the analyzer predicted trouble.
  const NestCertificate* certificate = nullptr;
  bool refuse_on_error = true;
};

/// The original (non-collapsed) nest as a C function.
std::string emit_original_function(const NestProgram& prog);

/// The collapsed nest as a C function.  `col` must be the result of
/// collapse(prog.collapsed_nest()).  Throws SolveError when a level
/// lacks a closed-form recovery.
std::string emit_collapsed_function(const NestProgram& prog, const Collapsed& col,
                                    const EmitOptions& opt = {});

/// A complete, compilable C program: both functions plus a main() that
/// initializes the arrays identically, runs both versions and compares
/// the results ("OK" / exit 0 on success).
std::string emit_verification_program(const NestProgram& prog, const Collapsed& col,
                                      const EmitOptions& opt = {});

}  // namespace nrc

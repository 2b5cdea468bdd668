#include "codegen/c_emitter.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "analysis/nest_analyzer.hpp"
#include "math/rational.hpp"
#include "support/error.hpp"
#include "symbolic/print_c.hpp"

namespace nrc {
namespace {

/// Small indentation-aware source builder.
struct CodeWriter {
  std::string out;
  int depth = 0;

  void line(std::string_view s) {
    if (s.empty()) {
      out += "\n";
      return;
    }
    for (int i = 0; i < depth; ++i) out += "  ";
    out += s;
    out += "\n";
  }
  /// Each line of `text` (rendered at depth 0) at the current depth.
  void replay(std::string_view text) {
    for (size_t nl; (nl = text.find('\n')) != std::string_view::npos; text.remove_prefix(nl + 1))
      line(text.substr(0, nl));
  }
  void open(const std::string& s) {
    line(s + " {");
    ++depth;
  }
  void close(const std::string& tail = "") {
    --depth;
    line("}" + tail);
  }
};

/// "double (*a)[N]" style parameter for an array declaration.
std::string array_param(const ArrayDecl& a) {
  if (a.dims.size() == 1) return a.elem + " *" + a.name;
  std::string s = a.elem + " (*" + a.name + ")";
  for (size_t d = 1; d < a.dims.size(); ++d) s += "[" + a.dims[d] + "]";
  return s;
}

/// Cast expression turning a flat pointer into the VLA pointer type.
std::string array_cast(const ArrayDecl& a) {
  if (a.dims.size() == 1) return "";
  std::string s = "(" + a.elem + " (*)";
  for (size_t d = 1; d < a.dims.size(); ++d) s += "[" + a.dims[d] + "]";
  return s + ")";
}

/// Product of all dimensions as a C expression (element count).
std::string array_elems(const ArrayDecl& a) {
  std::string s = "(long long)(" + a.dims[0] + ")";
  for (size_t d = 1; d < a.dims.size(); ++d) s += "*(long long)(" + a.dims[d] + ")";
  return s;
}

/// The integer type of every emitted parameter, loop variable and
/// recovered index.  `long long` (not `long`): the library computes in
/// i64, and on LLP64 targets `long` is 32 bits — recovered estimates
/// and trip counts past 2^31 silently truncated.
constexpr const char* kIntT = "long long";

/// Widened integer arithmetic for the emitted guard walks, level
/// coefficients and ranking evaluations: S-shifted (astronomical-
/// parameter) nests overflow 64 bits in the intermediate products
/// (S^4 at depth 4), so every integer_arith polynomial evaluates in
/// nrc_wide — __int128 where the compiler has it, with a demoted
/// long long fallback elsewhere (pre-overflow behaviour, explicitly
/// visible in the generated source).
const char* wide_typedef_c() {
  return
      "#ifndef NRC_WIDE_C\n"
      "#define NRC_WIDE_C\n"
      "/* Exact wide arithmetic for guard walks and level coefficients:\n"
      " * parameter-shifted nests overflow 64-bit intermediates. */\n"
      "#if defined(__SIZEOF_INT128__)\n"
      "typedef __int128 nrc_wide;\n"
      "#else\n"
      "typedef long long nrc_wide; /* demotion: no 128-bit type here */\n"
      "#endif\n"
      "#endif /* NRC_WIDE_C */\n";
}

/// CPrintOptions for integer_arith polynomials: evaluate in nrc_wide.
CPrintOptions wide_int_opts() {
  CPrintOptions opt;
  opt.int_var_cast = "(nrc_wide)";
  return opt;
}

std::string signature(const NestProgram& prog, const std::string& suffix) {
  std::string s = "static void " + prog.name + "_" + suffix + "(";
  bool first = true;
  for (const auto& p : prog.nest.params()) {
    if (!first) s += ", ";
    s += std::string(kIntT) + " " + p;
    first = false;
  }
  for (const auto& a : prog.arrays) {
    if (!first) s += ", ";
    s += array_param(a);
    first = false;
  }
  if (first) s += "void";
  return s + ")";
}

/// The loops of `prog.nest` below the collapsed sub-nest plus the body,
/// emitted as ordinary nested for-loops.
void emit_inner_loops_and_body(CodeWriter& w, const NestProgram& prog) {
  const int c = prog.effective_collapse_depth();
  int opened = 0;
  for (int k = c; k < prog.nest.depth(); ++k) {
    const Loop& l = prog.nest.at(k);
    w.open("for (" + std::string(kIntT) + " " + l.var + " = " + l.lower.str() + "; " +
           l.var + " < " + l.upper.str() + "; " + l.var + "++)");
    ++opened;
  }
  std::istringstream body(prog.body);
  std::string ln;
  while (std::getline(body, ln)) w.line(ln);
  for (int k = 0; k < opened; ++k) w.close();
}

/// Recovery statements for all collapsed indices at the current pc.
///
/// Each non-innermost index is recovered by the closed-form root and
/// then pinned by an exact integer-arithmetic correction against the
/// ranking polynomial.  Degree-1 levels divide; degree 2-4 levels call
/// the real-arithmetic helpers (real_solver_helpers_c) on the
/// integer-scaled level-equation coefficients and the level's range —
/// the same formulas, root selection and coefficient scaling the
/// library engine runs, so the generated C and CollapsedEval estimate
/// identically.  Where no root lies in the range the helper says so and
/// the correction starts from the lower bound.  The paper's raw formulas
/// floor a double, which misplaces the index when the root lands
/// exactly on an integer and the FP value comes out a hair below it;
/// the guard makes the generated code correct for every size at the
/// cost of a few integer operations per recovery (recoveries already
/// run only once per thread/chunk).
void emit_recovery(CodeWriter& w, const Collapsed& col) {
  const NestSpec& sub = col.nest();
  const int c = sub.depth();
  for (int k = 0; k + 1 < c; ++k) {
    const LevelFormula& lf = col.levels()[static_cast<size_t>(k)];
    if (lf.coeffs.empty())
      throw SolveError("emit: level '" + sub.at(k).var +
                       "' has no closed-form recovery (degree " +
                       std::to_string(lf.degree) + ")");
    const std::string& var = sub.at(k).var;
    const std::string lb = "(" + sub.at(k).lower.str() + ")";
    const std::string ub = "(" + sub.at(k).upper.str() + ")";
    // Integer-scaled coefficients A_e = D * a_e (D the common
    // denominator over the level, exactly as bind() scales them for the
    // library solvers; a uniform positive scale leaves the roots
    // untouched).
    i64 den = 1;
    for (const auto& a : lf.coeffs) den = lcm_i64(den, a.denominator_lcm());
    w.line("{");
    ++w.depth;
    for (size_t e = 0; e < lf.coeffs.size(); ++e)
      w.line("const double __nrc_A" + std::to_string(e) + " = (double)" +
             print_poly_c(lf.coeffs[e] * Rational(den), wide_int_opts(),
                          /*integer_arith=*/true) +
             ";");
    if (lf.degree == 1) {
      // A1 x + A0 <= 0 with A1 > 0 along the level (the model); the
      // correction below pins the rounded quotient.
      w.line(var + " = __nrc_A1 > 0.0 ? (" + std::string(kIntT) +
             ")floor(-__nrc_A0 / __nrc_A1) : " + lb + ";");
    } else {
      w.line(std::string(kIntT) + " __nrc_est;");
      std::string call = lf.degree == 2   ? "nrc_quad_est("
                         : lf.degree == 3 ? "nrc_cubic_est("
                                          : "nrc_ferrari_est(";
      for (size_t e = 0; e < lf.coeffs.size(); ++e)
        call += "__nrc_A" + std::to_string(e) + ", ";
      call += lb + ", " + ub + ", &__nrc_est)";
      // Where no root lies in the range (the library would fall to
      // binary search) the exact correction starts from the lower bound.
      w.line(var + " = " + call + " ? __nrc_est : " + lb + ";");
    }
    --w.depth;
    w.line("}");
    // Exact guard: clamp into the level's range, then correct against
    // the integer-valued ranking polynomial (monotone in this index),
    // evaluated in nrc_wide — the plain-long form overflowed on
    // S-shifted nests.
    const Polynomial& Rk = col.ranking().prefix_rank[static_cast<size_t>(k)];
    const Polynomial Rk_next =
        Rk.substitute(var, Polynomial::variable(var) + Polynomial(1));
    w.line("if (" + var + " < " + lb + ") " + var + " = " + lb + ";");
    w.line("if (" + var + " > " + ub + " - 1) " + var + " = " + ub + " - 1;");
    w.line("while (" + var + " > " + lb + " && " +
           print_poly_c(Rk, wide_int_opts(), true) + " > pc) " + var + " -= 1;");
    w.line("while (" + var + " < " + ub + " - 1 && " +
           print_poly_c(Rk_next, wide_int_opts(), true) + " <= pc) " + var + " += 1;");
  }
  // Innermost collapsed index: linear, integer arithmetic (wide for the
  // rank-at-lower-bound evaluation; the index itself fits 64 bits):
  //   i_last = lb + (pc - r(prefix, lb)).
  const int kl = c - 1;
  const Loop& last = sub.at(kl);
  const Polynomial r_at_lb =
      col.ranking().prefix_rank[static_cast<size_t>(kl)].substitute(last.var,
                                                                    last.lower.to_poly());
  w.line(last.var + " = (" + std::string(kIntT) + ")((" + last.lower.str() +
         ") + (pc - " + print_poly_c(r_at_lb, wide_int_opts(), /*integer_arith=*/true) +
         "));");
}

/// The lines of an emission that depend on the Collapsed alone: the
/// __nrc_total declaration, then the recovery (emit_recovery), at depth
/// 0.  Rendered once per symbolic artifact (Collapsed::emitted_recovery_text).
std::string render_fixed_lines(const Collapsed& col) {
  CodeWriter w;
  w.line("const " + std::string(kIntT) + " __nrc_total = (" + std::string(kIntT) + ")" +
         print_poly_c(col.ranking().total, wide_int_opts(), /*integer_arith=*/true) + ";");
  emit_recovery(w, col);
  return w.out;
}

/// Original-nest index incrementation (paper Fig. 4 / §V), cascading
/// odometer over the collapsed indices.
void emit_increment(CodeWriter& w, const Collapsed& col) {
  const NestSpec& sub = col.nest();
  const int c = sub.depth();
  w.line("/* advance to the next iteration of the original nest */");
  w.line(sub.at(c - 1).var + "++;");
  // Cascade: if level k overflowed, bump level k-1, then reset level k.
  for (int k = c - 1; k >= 1; --k) {
    w.open("if (" + sub.at(k).var + " >= " + sub.at(k).upper.str() + ")");
    w.line(sub.at(k - 1).var + "++;");
  }
  for (int k = 1; k <= c - 1; ++k) {
    w.line(sub.at(k).var + " = " + sub.at(k).lower.str() + ";");
    w.close();
  }
}

/// The highest degree among the recovered (non-innermost) collapsed
/// levels: 2 and above need the real-arithmetic helpers
/// (real_solver_helpers_c) beside the emitted function.
int max_solver_degree(const Collapsed& col) {
  const int c = col.nest().depth();
  int d = 0;
  for (int k = 0; k + 1 < c; ++k) d = std::max(d, col.levels()[static_cast<size_t>(k)].degree);
  return d;
}

std::string private_clause(const Collapsed& col) {
  std::string s;
  for (const auto& v : col.nest().loop_vars()) {
    if (!s.empty()) s += ", ";
    s += v;
  }
  return s;
}

}  // namespace

RecoveryStyle emission_style(const Schedule& s) {
  switch (s.scheme) {
    case Scheme::PerIteration:
    case Scheme::WarpSim:  // coalesced consecutive-iteration deal: Fig. 3
                           // under schedule(static, 1)
      return RecoveryStyle::PerIteration;
    case Scheme::Chunked:
    case Scheme::RowSegmentsChunked:
      // A non-positive chunk means the per-thread fallback at runtime
      // (nrc::run); the emission must not diverge from what the same
      // descriptor executes.
      return s.chunk > 0 ? RecoveryStyle::Chunked : RecoveryStyle::PerThread;
    case Scheme::SimdBlocks:
    case Scheme::SimdBlocksChunked:
      return RecoveryStyle::SimdBlocks;
    case Scheme::PerThread:
    case Scheme::RowSegments:
    case Scheme::SerialSim:
      return RecoveryStyle::PerThread;
  }
  return RecoveryStyle::PerThread;
}

std::string emission_omp_schedule(const Schedule& s) {
  switch (s.scheme) {
    case Scheme::PerIteration:
      return s.omp == OmpSchedule::Dynamic ? "dynamic" : "static";
    case Scheme::WarpSim:
      return "static, 1";
    case Scheme::Chunked:
    case Scheme::RowSegmentsChunked:
      // chunk <= 0 lowers to the PerThread style (see emission_style),
      // whose contiguous static split needs a plain schedule(static) in
      // either flavour.  The per-chunk recovery test (pc - 1) % chunk
      // holds under dynamic too: every claim starts on a chunk boundary.
      if (s.chunk <= 0) return "static";
      return (s.omp == OmpSchedule::Dynamic ? "dynamic, " : "static, ") +
             std::to_string(s.chunk);
    default:
      return "static";
  }
}

std::string emit_original_function(const NestProgram& prog) {
  CodeWriter w;
  w.open(signature(prog, "original"));
  int opened = 1;
  for (int k = 0; k < prog.effective_collapse_depth(); ++k) {
    const Loop& l = prog.nest.at(k);
    w.open("for (" + std::string(kIntT) + " " + l.var + " = " + l.lower.str() + "; " +
           l.var + " < " + l.upper.str() + "; " + l.var + "++)");
    ++opened;
  }
  emit_inner_loops_and_body(w, prog);
  for (int k = 0; k < opened; ++k) w.close();
  return w.out;
}

std::string emit_collapsed_function(const NestProgram& prog, const Collapsed& col,
                                    const EmitOptions& opt) {
  // An out-of-range vlen would size the emitted per-thread staging
  // arrays (__nrc_T_<var>[vlen]) past any stack.
  opt.schedule.validate();
  CodeWriter w;
  // Certificate wiring: refuse error-severity plans outright (codegen
  // must not produce C the analyzer proved can overflow), annotate the
  // rest so the generated source carries its own audit trail.
  if (opt.certificate != nullptr) {
    const NestCertificate& cert = *opt.certificate;
    if (opt.refuse_on_error && cert.max_severity() == LintSeverity::Error) {
      std::string msg = "emit: refused by the static analyzer:";
      for (const Diagnostic& d : cert.diagnostics)
        if (d.severity == LintSeverity::Error) msg += "\n  " + d.str();
      throw SpecError(msg);
    }
    w.out += "/* nrclint:\n";
    const std::string block = cert.str();
    size_t pos = 0;
    while (pos < block.size()) {
      size_t nl = block.find('\n', pos);
      if (nl == std::string::npos) nl = block.size();
      w.out += " * " + block.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
    w.out += " */\n";
  }
  // Degree 2-4 recoveries call the guarded real-arithmetic solver
  // helpers; emit them with the function (their include guard keeps a
  // translation unit holding several collapsed functions well-formed).
  w.out += wide_typedef_c();
  if (const int deg = max_solver_degree(col); deg >= 2) w.out += real_solver_helpers_c(deg);
  w.open(signature(prog, "collapsed"));
  const std::string_view fixed = col.emitted_recovery_text(render_fixed_lines);
  const std::string_view recovery = fixed.substr(fixed.find('\n') + 1);
  w.replay(fixed.substr(0, fixed.size() - recovery.size()));
  {
    std::string decl = std::string(kIntT) + " ";
    decl += private_clause(col);
    w.line(decl + ";");
  }

  const std::string omp_sched = emission_omp_schedule(opt.schedule);
  switch (emission_style(opt.schedule)) {
    case RecoveryStyle::PerIteration: {
      if (opt.parallel)
        w.line("#pragma omp parallel for private(" + private_clause(col) + ") schedule(" +
               omp_sched + ")");
      w.open("for (" + std::string(kIntT) + " pc = 1; pc <= __nrc_total; pc++)");
      w.replay(recovery);
      emit_inner_loops_and_body(w, prog);
      w.close();
      break;
    }
    case RecoveryStyle::PerThread: {
      w.line("int __nrc_first = 1;");
      if (opt.parallel)
        w.line("#pragma omp parallel for firstprivate(__nrc_first) private(" +
               private_clause(col) + ") schedule(" + omp_sched + ")");
      w.open("for (" + std::string(kIntT) + " pc = 1; pc <= __nrc_total; pc++)");
      w.open("if (__nrc_first)");
      w.replay(recovery);
      w.line("__nrc_first = 0;");
      w.close();
      emit_inner_loops_and_body(w, prog);
      emit_increment(w, col);
      w.close();
      break;
    }
    case RecoveryStyle::Chunked: {
      if (opt.parallel)
        w.line("#pragma omp parallel for private(" + private_clause(col) + ") schedule(" +
               omp_sched + ")");
      w.open("for (" + std::string(kIntT) + " pc = 1; pc <= __nrc_total; pc++)");
      w.open("if ((pc - 1) % " + std::to_string(opt.schedule.chunk) + " == 0)");
      w.replay(recovery);
      w.close();
      emit_inner_loops_and_body(w, prog);
      emit_increment(w, col);
      w.close();
      break;
    }
    case RecoveryStyle::SimdBlocks: {
      // §VI-A: per thread, recover once; per block of `vlen` iterations,
      // materialize the index tuples by incrementation and run the body
      // under `omp simd` with the indices re-bound per lane.
      const NestSpec& sub = col.nest();
      const std::string vlen = std::to_string(opt.schedule.vlen);
      w.line("int __nrc_first = 1;");
      if (opt.parallel)
        w.line("#pragma omp parallel for firstprivate(__nrc_first) private(" +
               private_clause(col) + ") schedule(" + omp_sched + ")");
      w.open("for (" + std::string(kIntT) + " pc = 1; pc <= __nrc_total; pc += " + vlen + ")");
      w.open("if (__nrc_first)");
      w.replay(recovery);
      w.line("__nrc_first = 0;");
      w.close();
      for (const auto& v : sub.loop_vars())
        w.line(std::string(kIntT) + " __nrc_T_" + v + "[" + vlen + "];");
      w.line("const " + std::string(kIntT) + " __nrc_blk = (__nrc_total - pc + 1) < " +
             vlen + " ? (__nrc_total - pc + 1) : " + vlen + ";");
      w.open("for (" + std::string(kIntT) + " __v = 0; __v < __nrc_blk; __v++)");
      for (const auto& v : sub.loop_vars()) w.line("__nrc_T_" + v + "[__v] = " + v + ";");
      emit_increment(w, col);
      w.close();
      w.line("#pragma omp simd");
      w.open("for (" + std::string(kIntT) + " __v = 0; __v < __nrc_blk; __v++)");
      // Shadow the odometer state with the lane's tuple.
      for (const auto& v : sub.loop_vars())
        w.line(std::string(kIntT) + " " + v + " = __nrc_T_" + v + "[__v];");
      emit_inner_loops_and_body(w, prog);
      w.close();
      w.close();
      break;
    }
  }
  w.close();
  return w.out;
}

std::string emit_verification_program(const NestProgram& prog, const Collapsed& col,
                                      const EmitOptions& opt) {
  CodeWriter w;
  w.line("/* Generated by nrcollapse: verification harness for '" + prog.name + "'.");
  w.line(" * Runs the original and the collapsed nest on identical inputs and");
  w.line(" * compares every output array.  Prints OK and exits 0 on success. */");
  w.line("#include <stdio.h>");
  w.line("#include <stdlib.h>");
  w.line("#include <math.h>");
  w.line("#ifndef M_PI");
  w.line("#define M_PI 3.14159265358979323846");
  w.line("#endif");
  w.line("");
  w.out += emit_original_function(prog);
  w.line("");
  w.out += emit_collapsed_function(prog, col, opt);
  w.line("");

  w.open("static double *nrc_alloc_init(long long n, unsigned seed)");
  w.line("double *p = (double *)malloc(sizeof(double) * (size_t)n);");
  w.line("unsigned s = seed;");
  w.open("for (long long q = 0; q < n; q++)");
  w.line("s = s * 1664525u + 1013904223u;");
  w.line("p[q] = (double)(s % 1000u) / 1000.0;");
  w.close();
  w.line("return p;");
  w.close();
  w.line("");

  w.open("int main(int argc, char **argv)");
  {
    int argi = 1;
    for (const auto& p : prog.nest.params()) {
      w.line("long long " + p + " = 32;");
      w.line("if (argc > " + std::to_string(argi) + ") " + p + " = atoll(argv[" +
             std::to_string(argi) + "]);");
      ++argi;
    }
  }
  unsigned seed = 1;
  for (const auto& a : prog.arrays) {
    const std::string n = array_elems(a);
    w.line("double *" + a.name + "_ref = nrc_alloc_init(" + n + ", " + std::to_string(seed) +
           "u);");
    w.line("double *" + a.name + "_col = nrc_alloc_init(" + n + ", " + std::to_string(seed) +
           "u);");
    ++seed;
  }

  auto call = [&](const std::string& suffix, const std::string& copy) {
    std::string s = prog.name + "_" + suffix + "(";
    bool first = true;
    for (const auto& p : prog.nest.params()) {
      if (!first) s += ", ";
      s += p;
      first = false;
    }
    for (const auto& a : prog.arrays) {
      if (!first) s += ", ";
      s += array_cast(a) + a.name + "_" + copy;
      first = false;
    }
    return s + ");";
  };
  w.line(call("original", "ref"));
  w.line(call("collapsed", "col"));

  w.line("long long bad = 0;");
  for (const auto& a : prog.arrays) {
    w.open("for (long long q = 0; q < " + array_elems(a) + "; q++)");
    w.line("double d = fabs(" + a.name + "_ref[q] - " + a.name + "_col[q]);");
    w.line("if (d > 1e-9 * (fabs(" + a.name + "_ref[q]) + 1.0)) bad++;");
    w.close();
  }
  w.open("if (bad)");
  w.line("printf(\"MISMATCH: %lld elements differ\\n\", bad);");
  w.line("return 1;");
  w.close();
  w.line("printf(\"OK\\n\");");
  w.line("return 0;");
  w.close();
  return w.out;
}

}  // namespace nrc

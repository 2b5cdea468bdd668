// Randomized differential *executor* fuzzer: the paper's claim is
// end-to-end — every parallel scheme (§V per-thread/chunked, §VI-A SIMD
// blocks, §VI-B warp) and the generated C must visit exactly the
// original nest's iteration space — so this harness drives every
// collapsed_for_* executor, the serial simulators and the codegen round
// trip over the same seeded random nests the recovery fuzzer uses
// (testutil::make_fuzz_nest: triangular/tiled/skewed/degenerate), under
// varied thread counts and scheme parameters (chunk > total, chunk near
// the i64 max, vlen non-divisors, warp_size > total), and diffs the
// visited tuple multiset plus an order-insensitive checksum against the
// sequential odometer reference (testutil::run_scheme_differential).
//
// The codegen round trip emits the collapsed C for closed-form-solvable
// fuzz nests, compiles it with the system C compiler (the
// integration_compile_test machinery), runs it, and diffs its visited
// tuples — in original lexicographic order for the serial emission, as
// the order-insensitive checksum for the OpenMP emission — against the
// same reference the library executors were held to.
//
// Slices: the fast deterministic slice runs under the plain tier1 ctest
// label (nrc_executor_fuzz_fast); the long randomized slice
// (NRC_EXEC_FUZZ_DOMAINS domains per class, default 10000, rotating
// through the scheme matrix) is nrc_executor_fuzz_long (labels
// tier1;long), which the CI push-to-main sanitize leg runs under
// ASan/UBSan.
//
// Reproducing a failure: every assertion message carries
// "class=<name> seed=<decimal>"; rerun exactly that case with
//   NRC_FUZZ_CLASS=<name> NRC_FUZZ_SEED=<decimal> \
//     ./nrc_executor_fuzz_test --gtest_filter=ExecutorFuzz.Repro
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "codegen/c_emitter.hpp"
#include "jit/toolchain.hpp"
#include "runtime/execute.hpp"
#include "runtime/segments.hpp"
#include "runtime/simd.hpp"
#include "runtime/warp.hpp"

namespace nrc {
namespace {

using testutil::DomainObservation;
using testutil::FuzzClass;
using testutil::FuzzNest;

constexpr i64 kHugeChunk = std::numeric_limits<i64>::max();

i64 env_i64(const char* name, i64 fallback) {
  const char* e = std::getenv(name);
  return e && *e ? std::atoll(e) : fallback;
}

struct FuzzTally {
  i64 domains = 0;
  i64 scheme_runs = 0;
};

using testutil::block_adapter;
using testutil::segment_adapter;

/// Type-erased tuple visitor / legacy-runner pair, so the whole scheme
/// matrix fits in one table.
using Visit = std::function<void(std::span<const i64>)>;
using LegacyRunner = std::function<void(const CollapsedEval&, const Visit&)>;

/// One entry of the scheme matrix: the Schedule descriptor the unified
/// dispatcher executes, plus the legacy collapsed_for_* call it must be
/// equivalent to.  `group` mirrors the long slice's rotation layout.
struct SchemeCase {
  int group;
  std::string label;
  Schedule sched;
  LegacyRunner legacy;
};

/// The scheme/parameter matrix as one table of Schedules (the hostile
/// parameter classes — chunk/grain > total and near the i64 maximum,
/// vlen non-divisors, warp_size > total — are unchanged from the
/// pre-pipeline call-site matrix).  `nt` is the rotation-selected
/// thread count; in full mode the per-thread group additionally sweeps
/// all thread counts.
std::vector<SchemeCase> scheme_matrix(i64 total, int nt, bool full) {
  std::vector<SchemeCase> m;
  m.push_back({0, "per_iteration/static", Schedule::per_iteration(OmpSchedule::Static, {nt}),
               [nt](const CollapsedEval& c, const Visit& v) {
                 collapsed_for_per_iteration(c, v, OmpSchedule::Static, {nt});
               }});
  m.push_back({0, "per_iteration/dynamic",
               Schedule::per_iteration(OmpSchedule::Dynamic, {nt}),
               [nt](const CollapsedEval& c, const Visit& v) {
                 collapsed_for_per_iteration(c, v, OmpSchedule::Dynamic, {nt});
               }});
  for (const int t : {1, 3, 8}) {
    if (!full && t != nt) continue;
    m.push_back({1, "per_thread t=" + std::to_string(t), Schedule::per_thread({t}),
                 [t](const CollapsedEval& c, const Visit& v) {
                   collapsed_for_per_thread(c, v, {t});
                 }});
  }
  for (const i64 chunk : {i64{1}, i64{7}, total, total + 9, kHugeChunk}) {
    m.push_back({2, "chunked c=" + std::to_string(chunk), Schedule::chunked(chunk, {nt}),
                 [chunk, nt](const CollapsedEval& c, const Visit& v) {
                   collapsed_for_chunked(c, chunk, v, {nt});
                 }});
  }
  for (const i64 grain : {i64{0} /* default */, i64{4}, total + 3, kHugeChunk}) {
    m.push_back({3, "taskloop g=" + std::to_string(grain), Schedule::taskloop(grain, {nt}),
                 [grain, nt](const CollapsedEval& c, const Visit& v) {
                   collapsed_for_taskloop(c, grain, v, {nt});
                 }});
  }
  m.push_back({4, "row_segments", Schedule::row_segments({nt}),
               [nt](const CollapsedEval& c, const Visit& v) {
                 collapsed_for_row_segments(c, segment_adapter(c, v), nt);
               }});
  for (const i64 chunk : {i64{3}, total + 5, kHugeChunk}) {
    m.push_back({5, "row_segments_chunked c=" + std::to_string(chunk),
                 Schedule::row_segments_chunked(chunk, {nt}),
                 [chunk, nt](const CollapsedEval& c, const Visit& v) {
                   collapsed_for_row_segments_chunked(c, chunk, segment_adapter(c, v), nt);
                 }});
  }
  // vlen 4 and 8 are the two lane-group widths (vlen = kGroupLanes and
  // 2x/1x of it depending on the abi leg); 1 and 3 force the degenerate
  // and non-divisor block shapes.
  for (const int vlen : {1, 3, 4, 8}) {
    m.push_back({6, "simd_blocks v=" + std::to_string(vlen),
                 Schedule::simd_blocks(vlen, {nt}),
                 [vlen, nt](const CollapsedEval& c, const Visit& v) {
                   collapsed_for_simd_blocks(c, vlen, block_adapter(c, v), nt);
                 }});
  }
  // {8, 3}: chunk smaller than the wide lane group, so every group's
  // trailing chunks route through the 4-lane/scalar tail batching.
  for (const auto& [vlen, chunk] :
       {std::pair<int, i64>{3, 2}, {4, total + 1}, {8, 3}, {8, kHugeChunk}}) {
    m.push_back({7,
                 "simd_blocks_chunked v=" + std::to_string(vlen) +
                     " c=" + std::to_string(chunk),
                 Schedule::simd_blocks_chunked(vlen, chunk, {nt}),
                 [vlen, chunk, nt](const CollapsedEval& c, const Visit& v) {
                   collapsed_for_simd_blocks_chunked(c, vlen, chunk, block_adapter(c, v),
                                                     nt);
                 }});
  }
  for (const i64 W : {i64{1}, i64{2}, i64{7}, total + 6}) {
    m.push_back({8, "warp W=" + std::to_string(W),
                 Schedule::warp_sim(static_cast<int>(W), {nt}),
                 [W, nt](const CollapsedEval& c, const Visit& v) {
                   collapsed_for_warp_sim(c, static_cast<int>(W), v, nt);
                 }});
  }
  for (const int sims : {1, 3, 1000000}) {
    m.push_back({9, "serial_sim n=" + std::to_string(sims), Schedule::serial_sim(sims),
                 [sims](const CollapsedEval& c, const Visit& v) {
                   collapsed_serial_sim(c, sims, v);
                 }});
  }
  return m;
}

/// Cross-check every execution scheme over one bound domain, through
/// BOTH execution paths: nrc::run(cn, Schedule, visit) — the unified
/// dispatcher, whose internal tuple->segment/block adaptation this
/// exercises — and the legacy collapsed_for_* wrapper (with the
/// adapters the legacy body contracts need).  The two paths must
/// produce the identical tuple multiset and checksum, which pins the
/// wrappers to the dispatcher.  In full mode the whole matrix runs both
/// ways; the long slice rotates a seed-selected group per domain and
/// alternates the path so 10k domains per class stay affordable under
/// sanitizers (every scheme still runs thousands of times per class
/// through each path, just not on every domain).
void check_executors(const CollapsedEval& cn, const std::string& repro, bool full,
                     u64 rotation, FuzzTally* tally) {
  const i64 total = cn.trip_count();
  const DomainObservation ref = testutil::odometer_reference(cn);
  ASSERT_GE(total, 1) << repro;

  const int thread_counts[] = {1, 3, 8};
  const int nt = thread_counts[rotation % 3];
  const int group = static_cast<int>(rotation % 10);
  const bool legacy_path = (rotation / 10) % 2 == 1;

  for (const SchemeCase& sc : scheme_matrix(total, nt, full)) {
    if (!full && sc.group != group) continue;
    if (full || !legacy_path) {
      EXPECT_TRUE(testutil::run_scheme_differential(
          cn, ref, [&](auto&& visit) { nrc::run(cn, sc.sched, visit); }))
          << repro << "scheme=" << sc.label << " path=nrc::run("
          << sc.sched.describe() << ")";
      ++tally->scheme_runs;
    }
    if (full || legacy_path) {
      EXPECT_TRUE(testutil::run_scheme_differential(
          cn, ref, [&](auto&& visit) { sc.legacy(cn, Visit(visit)); }))
          << repro << "scheme=" << sc.label << " path=legacy";
      ++tally->scheme_runs;
    }
  }
}

/// Run one seeded case end to end (shared by the sweeps and the
/// env-driven Repro test).
void run_case(const FuzzNest& fc, bool full, FuzzTally* tally) {
  if (fc.expect_empty) return;  // bind() rejection is the recovery fuzzer's job
  CollapseOptions opts;
  opts.calibration = fc.calibration;
  try {
    const Collapsed col = collapse(fc.nest, opts);
    for (const i64 nv : testutil::fuzz_bind_values(fc)) {
      ParamMap p = fc.fixed_params;
      p["N"] = nv;
      const CollapsedEval cn = col.bind(p);
      check_executors(cn, fc.repro() + "\nN=" + std::to_string(nv) + "\n", full,
                      fc.seed + static_cast<u64>(nv), tally);
      if (::testing::Test::HasFatalFailure()) return;
      ++tally->domains;
    }
  } catch (const std::exception& ex) {
    FAIL() << fc.repro() << "unexpected exception: " << ex.what();
  }
}

void run_fuzz(FuzzClass cls, i64 domains_target, u64 seed_base, bool full) {
  FuzzTally tally;
  u64 seed = seed_base;
  while (tally.domains < domains_target) {
    run_case(testutil::make_fuzz_nest(cls, seed++), full, &tally);
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure())
      return;
  }
  std::printf("[exec fuzz %-10s] domains=%lld scheme_runs=%lld\n",
              testutil::fuzz_class_name(cls), static_cast<long long>(tally.domains),
              static_cast<long long>(tally.scheme_runs));
  EXPECT_GT(tally.scheme_runs, 0);
}

// ------------------------------------------------- fast deterministic slice

TEST(ExecutorFuzz, Triangular) {
  run_fuzz(FuzzClass::Triangular, env_i64("NRC_EXEC_FUZZ_FAST_DOMAINS", 30), 0x7100,
           /*full=*/true);
}
TEST(ExecutorFuzz, Tiled) {
  run_fuzz(FuzzClass::Tiled, env_i64("NRC_EXEC_FUZZ_FAST_DOMAINS", 30), 0x7200,
           /*full=*/true);
}
TEST(ExecutorFuzz, Skewed) {
  run_fuzz(FuzzClass::Skewed, env_i64("NRC_EXEC_FUZZ_FAST_DOMAINS", 30), 0x7300,
           /*full=*/true);
}
TEST(ExecutorFuzz, Degenerate) {
  run_fuzz(FuzzClass::Degenerate, env_i64("NRC_EXEC_FUZZ_FAST_DOMAINS", 30), 0x7400,
           /*full=*/true);
}

// ----------------------------------------------------------------- codegen
//
// Round trip through the source-to-source back end: emit the collapsed
// C, compile with the system cc, run, and diff the visited tuples
// against the library's odometer reference.  The serial emission is
// compared tuple-by-tuple in original lexicographic order; the OpenMP
// emission accumulates the same order-insensitive checksum the library
// harness uses (testutil::tuple_mix transliterated into the emitted
// body) so any thread interleaving must still visit the exact multiset.

bool have_cc() { return jit::toolchain_available(); }

/// Write and compile a generated program once through the shared
/// toolchain driver (jit/toolchain.hpp): mkstemp temps with
/// deterministic cleanup, NRC_JIT_CC / CC compiler override, OpenMP
/// flag only when the probe accepts it.  The emitted source does not
/// depend on the parameter values — those arrive via argv, so one
/// binary serves the whole bind sweep.  result.ok is false on compile
/// failure (the compiler log lands in the failure message); the binary
/// is unlinked when the result goes out of scope.
jit::CompileResult compile_program(const std::string& src, const std::string& tag) {
  std::vector<std::string> flags = {"-std=c99", "-O2"};
  const std::string omp = jit::openmp_flag(jit::resolve_compiler());
  if (!omp.empty()) flags.push_back(omp);
  jit::CompileResult res = jit::compile_c(src, flags, ".bin");
  if (!res.ok)
    ADD_FAILURE() << "compilation failed (" << tag << ", " << res.compiler << "):\n"
                  << res.log << "\nsource:\n" << src;
  return res;
}

/// Run a compiled round-trip binary, capturing stdout.
bool run_capture(const std::string& bin_path, const std::string& args, std::string* out) {
  const jit::OwnedPath out_path = jit::make_temp_file(".out");
  if (std::system((bin_path + " " + args + " > " + out_path.path()).c_str()) != 0) {
    ADD_FAILURE() << "generated program failed for args " << args;
    return false;
  }
  std::ifstream f(out_path.path());
  out->assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  return true;
}

/// The emitted-C transliteration of testutil::tuple_mix for the nest's
/// loop variables, accumulating into the nrc_csum global.
std::string checksum_body(const NestSpec& nest) {
  std::string s;
  s += "unsigned long long __nrc_h = 0x243F6A8885A308D3ULL ^ (0x9E3779B97F4A7C15ULL * " +
       std::to_string(nest.depth()) + "ULL);\n";
  s += "unsigned long long __nrc_x;\n";
  for (const auto& v : nest.loop_vars()) {
    s += "__nrc_x = (unsigned long long)" + v + " + 0x9E3779B97F4A7C15ULL;\n";
    s += "__nrc_x ^= __nrc_x >> 30; __nrc_x *= 0xBF58476D1CE4E5B9ULL;\n";
    s += "__nrc_x ^= __nrc_x >> 27; __nrc_x *= 0x94D049BB133111EBULL;\n";
    s += "__nrc_x ^= __nrc_x >> 31;\n";
    s += "__nrc_h = (__nrc_h ^ __nrc_x) * 0x100000001B3ULL;\n";
  }
  s += "#pragma omp atomic\n";
  s += "nrc_csum += __nrc_h;\n";
  return s;
}

/// printf trace of the tuple, one line per visit, in visit order.
std::string trace_body(const NestSpec& nest) {
  std::string fmt, argl;
  for (const auto& v : nest.loop_vars()) {
    fmt += fmt.empty() ? "%lld" : " %lld";
    argl += ", " + v;
  }
  return "printf(\"" + fmt + "\\n\"" + argl + ");";
}

/// Self-contained C program: the collapsed function plus a main that
/// binds the parameters from argv.
std::string roundtrip_program(const NestProgram& prog, const Collapsed& col,
                              const EmitOptions& opt, bool checksum) {
  std::string s;
  s += "#include <stdio.h>\n#include <stdlib.h>\n#include <math.h>\n";
  if (checksum) s += "static unsigned long long nrc_csum = 0;\n";
  s += emit_collapsed_function(prog, col, opt);
  s += "int main(int argc, char **argv) {\n";
  int argi = 1;
  std::string call = prog.name + "_collapsed(";
  for (const auto& p : prog.nest.params()) {
    s += "  long long " + p + " = atoll(argv[" + std::to_string(argi++) + "]);\n";
    if (call.back() != '(') call += ", ";
    call += p;
  }
  s += "  (void)argc;\n  " + call + ");\n";
  if (checksum) s += "  printf(\"%llu\\n\", nrc_csum);\n";
  s += "  return 0;\n}\n";
  return s;
}

/// Ordered tuple trace of the library's sequential odometer.
std::string odometer_trace(const CollapsedEval& cn) {
  std::string s;
  const size_t d = static_cast<size_t>(cn.depth());
  i64 idx[kMaxDepth];
  cn.recover(1, {idx, d});
  char buf[32];
  for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
    for (size_t k = 0; k < d; ++k) {
      std::snprintf(buf, sizeof(buf), "%s%lld", k ? " " : "",
                    static_cast<long long>(idx[k]));
      s += buf;
    }
    s += "\n";
    if (pc < cn.trip_count()) cn.increment({idx, d});
  }
  return s;
}

/// argv values for the emitted main, one per nest parameter in
/// declaration order (the order roundtrip_program reads them).
std::string bind_args(const NestProgram& prog, const ParamMap& pm) {
  std::string s;
  for (const auto& p : prog.nest.params()) {
    if (!s.empty()) s += " ";
    s += std::to_string(pm.at(p));
  }
  return s;
}

/// Round-trip one closed-form-solvable fuzz nest through every emission
/// style, S-shifted nests included — the emitted nrc_wide (__int128)
/// arithmetic keeps the shifted guard walks exact, so they no longer
/// need a skip here.  Returns the number of emitted programs (0 when
/// the nest is skipped: expected-empty or not fully closed form).
int roundtrip_case(const FuzzNest& fc) {
  if (fc.expect_empty) return 0;
  CollapseOptions opts;
  opts.calibration = fc.calibration;
  NestProgram prog;
  prog.name = "fz";
  prog.nest = fc.nest;
  prog.collapse_depth = 0;
  try {
    const Collapsed col = collapse(fc.nest, opts);
    if (!col.fully_closed_form()) return 0;

    int emitted = 0;
    const std::string tag = std::string(testutil::fuzz_class_name(fc.cls)) + "_" +
                            std::to_string(fc.seed);
    struct StyleCase {
      const char* name;
      EmitOptions opt;
    };
    EmitOptions chunked;
    chunked.schedule = Schedule::chunked(5);
    EmitOptions simd;
    simd.schedule = Schedule::simd_blocks(4);
    EmitOptions periter;
    periter.schedule = Schedule::per_iteration();
    EmitOptions warp;
    warp.schedule = Schedule::warp_sim(4);
    const StyleCase styles[] = {{"thread", {}},
                                {"iter", periter},
                                {"chunk", chunked},
                                {"simd", simd}};

    // Serial emission: exact tuple trace in lexicographic order.
    for (const StyleCase& sc : styles) {
      EmitOptions opt = sc.opt;
      opt.parallel = false;
      prog.body = trace_body(fc.nest);
      const std::string src = roundtrip_program(prog, col, opt, /*checksum=*/false);
      const jit::CompileResult bin = compile_program(src, tag + "_" + sc.name);
      if (!bin.ok) return emitted;
      for (const i64 nv : testutil::fuzz_bind_values(fc)) {
        ParamMap pm = fc.fixed_params;
        pm["N"] = nv;
        const CollapsedEval cn = col.bind(pm);
        std::string got;
        if (!run_capture(bin.artifact.path(), bind_args(prog, pm), &got)) return emitted;
        EXPECT_EQ(got, odometer_trace(cn))
            << fc.repro() << "codegen trace diverges, style=" << sc.name << " N=" << nv;
        ++emitted;
      }
    }

    // OpenMP emission: order-insensitive checksum (PerThread and
    // Chunked exercise the firstprivate-recovery and per-chunk-recovery
    // parallel shapes; warp_sim exercises the Schedule-derived
    // schedule(static, 1) coalesced emission; SimdBlocks stays serial
    // above because an atomic inside its `omp simd` lane loop would be
    // non-conforming).
    for (const StyleCase& sc : {StyleCase{"thread_omp", {}}, StyleCase{"chunk_omp", chunked},
                                StyleCase{"warp_omp", warp}}) {
      EmitOptions opt = sc.opt;
      opt.parallel = true;
      prog.body = checksum_body(fc.nest);
      const std::string src = roundtrip_program(prog, col, opt, /*checksum=*/true);
      const jit::CompileResult bin = compile_program(src, tag + "_" + sc.name);
      if (!bin.ok) return emitted;
      for (const i64 nv : testutil::fuzz_bind_values(fc)) {
        ParamMap pm = fc.fixed_params;
        pm["N"] = nv;
        const CollapsedEval cn = col.bind(pm);
        std::string got;
        if (!run_capture(bin.artifact.path(), bind_args(prog, pm), &got)) return emitted;
        const DomainObservation ref = testutil::odometer_reference(cn, /*cap=*/0);
        EXPECT_EQ(got, std::to_string(ref.checksum) + "\n")
            << fc.repro() << "codegen checksum diverges, style=" << sc.name
            << " N=" << nv;
        ++emitted;
      }
    }
    return emitted;
  } catch (const std::exception& ex) {
    ADD_FAILURE() << fc.repro() << "unexpected exception: " << ex.what();
    return 0;
  }
}

void run_roundtrip(i64 programs_target, u64 seed_base) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler available";
  i64 programs = 0;
  for (const FuzzClass cls : testutil::kFuzzClasses) {
    i64 from_class = 0;
    u64 seed = seed_base;
    while (from_class < programs_target) {
      from_class += roundtrip_case(testutil::make_fuzz_nest(cls, seed++));
      if (::testing::Test::HasFailure()) return;
    }
    programs += from_class;
  }
  std::printf("[exec fuzz codegen] programs=%lld\n", static_cast<long long>(programs));
}

TEST(ExecutorFuzz, CodegenRoundTrip) {
  run_roundtrip(env_i64("NRC_EXEC_FUZZ_CODEGEN_PROGRAMS", 24), 0x51);
}

/// Rerun a single seed from a failure message:
///   NRC_FUZZ_CLASS=<name> NRC_FUZZ_SEED=<decimal> \
///     ./nrc_executor_fuzz_test --gtest_filter=ExecutorFuzz.Repro
TEST(ExecutorFuzz, Repro) {
  const char* cls_s = std::getenv("NRC_FUZZ_CLASS");
  const char* seed_s = std::getenv("NRC_FUZZ_SEED");
  if (!cls_s || !seed_s)
    GTEST_SKIP() << "set NRC_FUZZ_CLASS and NRC_FUZZ_SEED to rerun one case";
  FuzzClass cls = FuzzClass::Triangular;
  bool found = false;
  for (const FuzzClass c : testutil::kFuzzClasses) {
    if (std::string(cls_s) == testutil::fuzz_class_name(c)) {
      cls = c;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "unknown NRC_FUZZ_CLASS '" << cls_s << "'";
  FuzzTally tally;
  const FuzzNest fc = testutil::make_fuzz_nest(cls, std::strtoull(seed_s, nullptr, 0));
  std::printf("%s\n", fc.repro().c_str());
  run_case(fc, /*full=*/true, &tally);
  if (have_cc()) roundtrip_case(fc);
}

// ----------------------------------------- long randomized slice (label: long)
//
// NRC_EXEC_FUZZ_DOMAINS domains per class (default 10000), rotating
// through the scheme matrix per domain (every 16th domain runs the full
// matrix); wired into the push-to-main CI sanitize leg, where the whole
// slice runs under ASan/UBSan.

void run_fuzz_long(FuzzClass cls, u64 seed_base) {
  const i64 target = env_i64("NRC_EXEC_FUZZ_DOMAINS", 10000);
  FuzzTally tally;
  u64 seed = seed_base;
  while (tally.domains < target) {
    const FuzzNest fc = testutil::make_fuzz_nest(cls, seed);
    run_case(fc, /*full=*/seed % 16 == 0, &tally);
    ++seed;
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure())
      return;
  }
  std::printf("[exec fuzz %-10s long] domains=%lld scheme_runs=%lld\n",
              testutil::fuzz_class_name(cls), static_cast<long long>(tally.domains),
              static_cast<long long>(tally.scheme_runs));
}

TEST(ExecutorFuzzLong, Triangular) { run_fuzz_long(FuzzClass::Triangular, 0xB100); }
TEST(ExecutorFuzzLong, Tiled) { run_fuzz_long(FuzzClass::Tiled, 0xB200); }
TEST(ExecutorFuzzLong, Skewed) { run_fuzz_long(FuzzClass::Skewed, 0xB300); }
TEST(ExecutorFuzzLong, Degenerate) { run_fuzz_long(FuzzClass::Degenerate, 0xB400); }

TEST(ExecutorFuzzLong, CodegenRoundTrip) {
  run_roundtrip(env_i64("NRC_EXEC_FUZZ_CODEGEN_LONG_PROGRAMS", 120), 0x5151);
}

}  // namespace
}  // namespace nrc

#include "jit/jit_kernel.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "analysis/nest_analyzer.hpp"
#include "codegen/c_emitter.hpp"
#include "jit/toolchain.hpp"
#include "support/error.hpp"

namespace nrc {

namespace {

/// FNV-1a over a byte string: the content-hash for disk-cache
/// filenames and sidecars.  Not cryptographic — it only needs to make
/// accidental corruption and stale-source collisions detectable.
u64 fnv1a64(const std::string& s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(u64 v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string s;
  char buf[4096];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
    s.append(buf, static_cast<size_t>(in.gcount()));
  return s;
}

/// Atomic-enough write: temp file in the same directory, then rename.
bool write_file_atomic(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) {
      ::unlink(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

/// The first line of a compiler log — enough context for a status
/// string without dumping pages of diagnostics.
std::string first_line(const std::string& s) {
  const size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

constexpr const char* kFillVar = "nrc_buf";
constexpr const char* kCbVar = "nrc_cb";

}  // namespace

std::string JitKernel::schedule_key(const Schedule& s) {
  // Only the emission-relevant fragment: thread-count and warp-size
  // differences execute the same generated code; the omp clause keeps
  // the static and dynamic chunked flavours apart.
  std::string key;
  switch (emission_style(s)) {
    case RecoveryStyle::PerIteration:
      key = "periter";
      break;
    case RecoveryStyle::PerThread:
      key = "perthread";
      break;
    case RecoveryStyle::Chunked:
      key = "chunked";
      break;
    case RecoveryStyle::SimdBlocks:
      key = "simd,v" + std::to_string(s.vlen);
      break;
  }
  return key + "/omp(" + emission_omp_schedule(s) + ")";
}

std::string JitKernel::render_source(const CollapsePlan& plan, const Schedule& s,
                                     bool parallel) {
  const NestSpec& nest = plan.nest();
  const int d = nest.depth();
  const ParamMap& params = plan.params();

  // Argument list calling an emitted collapsed function with every nest
  // parameter folded to its bound literal — `cc -O2` then inlines the
  // static function and constant-folds coefficients, guards and level
  // ranges, which is the whole point of the specialization.
  std::string lit_args;
  for (const std::string& p : nest.params())
    lit_args += std::to_string(params.at(p)) + "LL, ";

  std::string src;
  src += "/* Generated by nrcollapse JIT: specialized recovery kernel.\n";
  src += " * plan: trip " + std::to_string(plan.eval().trip_count()) + ", depth " +
         std::to_string(d) + "\n";
  src += " * schedule: " + s.describe() + "\n */\n";
  // The emitted solver helpers use math.h functions AND macros
  // (isfinite): without the header the macro degrades to an implicit
  // function that only surfaces at dlopen as an undefined symbol.
  src += "#include <math.h>\n\n";
  src += "typedef void (*nrc_body_fn)(void *ctx, const long long *idx);\n\n";

  // --- run: the emitted collapsed function with the body replaced by a
  // callback invocation.  The callback and its context ride in through
  // a two-slot pointer array passed as an (emitter-visible) array
  // parameter, so the generated function stays pure and re-entrant.
  {
    NestProgram prog;
    prog.name = "nrc_run";
    prog.nest = nest;
    prog.collapse_depth = 0;  // collapse every level: no inner loops
    prog.arrays.push_back(ArrayDecl{"void *", kCbVar, {"2"}});
    const std::vector<std::string> vars = nest.loop_vars();
    std::string body = "{\n  long long __nrc_idx[" + std::to_string(d) + "];\n";
    for (int k = 0; k < d; ++k)
      body += "  __nrc_idx[" + std::to_string(k) + "] = " + vars[static_cast<size_t>(k)] +
              ";\n";
    body += std::string("  ((nrc_body_fn)(") + kCbVar + "[0]))(" + kCbVar +
            "[1], __nrc_idx);\n}";
    prog.body = body;

    EmitOptions opt;
    opt.schedule = s;
    opt.parallel = parallel;
    src += emit_collapsed_function(prog, plan.collapsed(), opt);
    src += "\n";
  }

  // --- fill: same specialization, fixed chunked schedule, the body a
  // rank-indexed store (`pc` is in scope in the Chunked style; writes
  // are disjoint across threads).  No callback at all.
  {
    NestProgram prog;
    prog.name = "nrc_fill";
    prog.nest = nest;
    prog.collapse_depth = 0;
    prog.arrays.push_back(ArrayDecl{"long long", kFillVar, {"1"}});
    const std::vector<std::string> vars = nest.loop_vars();
    std::string body = "{\n";
    for (int k = 0; k < d; ++k)
      body += "  " + std::string(kFillVar) + "[(pc - 1) * " + std::to_string(d) + " + " +
              std::to_string(k) + "] = " + vars[static_cast<size_t>(k)] + ";\n";
    body += "}";
    prog.body = body;

    EmitOptions opt;
    opt.schedule = Schedule::chunked(1024);
    opt.parallel = parallel;
    src += emit_collapsed_function(prog, plan.collapsed(), opt);
    src += "\n";
  }

  // --- exported C ABI.
  src += "void nrc_kernel_run(void *ctx, nrc_body_fn body) {\n";
  src += "  void *" + std::string(kCbVar) + "[2];\n";
  src += "  " + std::string(kCbVar) + "[0] = (void *)body;\n";
  src += "  " + std::string(kCbVar) + "[1] = ctx;\n";
  src += "  nrc_run_collapsed(" + lit_args + kCbVar + ");\n";
  src += "}\n\n";
  src += "long long nrc_kernel_fill(long long *" + std::string(kFillVar) + ") {\n";
  src += "  nrc_fill_collapsed(" + lit_args + kFillVar + ");\n";
  src += "  return " + std::to_string(plan.eval().trip_count()) + "LL;\n";
  src += "}\n\n";
  src += "long long nrc_kernel_total(void) { return " +
         std::to_string(plan.eval().trip_count()) + "LL; }\n\n";
  src += "int nrc_kernel_abi_version(void) { return " + std::to_string(kAbiVersion) +
         "; }\n";
  return src;
}

std::shared_ptr<const JitKernel> JitKernel::build(
    std::shared_ptr<const CollapsePlan> plan, const Schedule& s, const JitOptions& opt) {
  auto kernel = std::shared_ptr<JitKernel>(new JitKernel(std::move(plan), s));
  JitKernel& k = *kernel;
  BuildInfo& info = k.info_;
  info.compiler = jit::resolve_compiler();

  auto fallback = [&](std::string reason) {
    info.compiled = false;
    info.fallback_reason = std::move(reason);
    k.run_fn_ = nullptr;
    k.fill_fn_ = nullptr;
    if (k.handle_ != nullptr) {
      ::dlclose(k.handle_);
      k.handle_ = nullptr;
    }
    return kernel;
  };

  // Rung 1: the analyzer's verdict gates codegen exactly like the
  // emitter's refuse_on_error — never compile C the static analysis
  // proved can overflow.
  if (k.plan_->analyze().max_severity() == LintSeverity::Error)
    return fallback("analyzer certificate is error-severity");

  // Rung 2: a level without a closed-form recovery cannot be emitted.
  try {
    const std::string omp = jit::openmp_flag(info.compiler);
    k.source_ = render_source(*k.plan_, s, opt.parallel && !omp.empty());
  } catch (const Error& e) {
    return fallback(std::string("emit: ") + e.what());
  }

  // Rung 3: no toolchain.
  if (!jit::compiler_works(info.compiler))
    return fallback("no C toolchain (" + info.compiler + ")");

  std::vector<std::string> flags = {"-O2", "-shared", "-fPIC", "-std=c99"};
  if (opt.parallel) {
    const std::string omp = jit::openmp_flag(info.compiler);
    if (!omp.empty()) flags.push_back(omp);
  }
  std::string flags_tag;
  for (const std::string& f : flags) flags_tag += f + " ";

  // Disk cache: content-hash filename over (source, compiler, flags),
  // sidecar holding the object's own hash so corruption is detected.
  std::string cache_dir = opt.cache_dir;
  if (cache_dir.empty() && opt.use_disk_cache) {
    if (const char* d = std::getenv("NRC_JIT_CACHE_DIR"); d && *d) cache_dir = d;
  }
  // We only ever dlopen a PRIVATE temp file, never the shared cache
  // path: a mapped ELF that another process can truncate or overwrite
  // is a SIGBUS waiting to happen, and the cache dir is by design
  // shared and externally writable.  The temp is unlinked right after
  // dlopen (the mapping survives the unlink), so nothing leaks either.
  jit::OwnedPath private_so;
  std::string cached_so;
  if (!cache_dir.empty() && opt.use_disk_cache) {
    const std::string key =
        hex64(fnv1a64(k.source_ + '\n' + info.compiler + '\n' + flags_tag));
    cached_so = cache_dir + "/nrc-" + key + ".so";
    const std::string meta_path = cached_so + ".meta";
    const std::string so_bytes = read_file(cached_so);
    if (!so_bytes.empty()) {
      const std::string meta = read_file(meta_path);
      const std::string want = "nrc-jit-so v1\nhash " + hex64(fnv1a64(so_bytes)) + "\n";
      if (meta == want) {
        // Disk hit: dlopen a private copy of the verified bytes.
        try {
          jit::OwnedPath tmp = jit::make_temp_file(".so");
          if (write_file_atomic(tmp.path(), so_bytes)) {
            private_so = std::move(tmp);
            info.from_disk = true;
          }
        } catch (const Error&) {
          // No writable temp dir: fall through to a fresh compile.
        }
      } else {
        // Rejected by content hash: remove both halves and rebuild.
        ::unlink(cached_so.c_str());
        ::unlink(meta_path.c_str());
      }
    }
  }

  jit::CompileResult cr;  // keeps the temp artifact alive until dlopen'd
  if (private_so.empty()) {
    cr = jit::compile_c(k.source_, flags, ".so");
    info.compile_ns = cr.compile_ns;
    if (!cr.ok) return fallback("compile failed: " + first_line(cr.log));
    if (!cached_so.empty()) {
      const std::string so_bytes = read_file(cr.artifact.path());
      // A read-only cache dir is not an error: the temp object serves.
      if (write_file_atomic(cached_so, so_bytes))
        write_file_atomic(cached_so + ".meta",
                          "nrc-jit-so v1\nhash " + hex64(fnv1a64(so_bytes)) + "\n");
    }
    private_so = std::move(cr.artifact);
  }

  k.handle_ = ::dlopen(private_so.path().c_str(), RTLD_NOW | RTLD_LOCAL);
  // `private_so` unlinks when it goes out of scope; the mapping
  // survives the unlink.
  if (k.handle_ == nullptr) {
    const char* err = ::dlerror();
    return fallback(std::string("dlopen failed: ") + (err ? err : "?"));
  }
  auto* run_fn = reinterpret_cast<void (*)(void*, BodyFn)>(::dlsym(k.handle_, "nrc_kernel_run"));
  auto* fill_fn =
      reinterpret_cast<long long (*)(long long*)>(::dlsym(k.handle_, "nrc_kernel_fill"));
  auto* total_fn = reinterpret_cast<long long (*)()>(::dlsym(k.handle_, "nrc_kernel_total"));
  auto* abi_fn = reinterpret_cast<int (*)()>(::dlsym(k.handle_, "nrc_kernel_abi_version"));
  if (run_fn == nullptr || fill_fn == nullptr || total_fn == nullptr || abi_fn == nullptr)
    return fallback("dlsym failed: incomplete kernel ABI");
  if (abi_fn() != kAbiVersion)
    return fallback("ABI version mismatch: kernel " + std::to_string(abi_fn()) +
                    ", runtime " + std::to_string(kAbiVersion));
  if (total_fn() != k.trip_count())
    return fallback("trip-count mismatch: kernel " + std::to_string(total_fn()) +
                    ", plan " + std::to_string(k.trip_count()));

  k.run_fn_ = run_fn;
  k.fill_fn_ = fill_fn;
  info.compiled = true;
  return kernel;
}

JitKernel::~JitKernel() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

i64 JitKernel::fill(std::span<i64> buf) const {
  const i64 total = trip_count();
  const size_t need = static_cast<size_t>(total) * static_cast<size_t>(depth());
  if (buf.size() < need)
    throw SpecError("jit fill: buffer holds " + std::to_string(buf.size()) +
                    " values, domain needs " + std::to_string(need));
  static_assert(sizeof(long long) == sizeof(i64));
  if (fill_fn_ != nullptr) return fill_fn_(reinterpret_cast<long long*>(buf.data()));
  // Fallback: the library's batched consecutive-rank recovery.
  const CollapsedEval& cn = plan_->eval();
  const i64 d = cn.depth();
  constexpr i64 kBlock = 1024;
  for (i64 pc = 1; pc <= total; pc += kBlock) {
    const i64 n = std::min<i64>(kBlock, total - pc + 1);
    cn.recover_block(pc, n, buf.subspan(static_cast<size_t>((pc - 1) * d),
                                        static_cast<size_t>(n * d)));
  }
  return total;
}

}  // namespace nrc

// collapse_tool — the source-to-source tool of paper §VII as a CLI.
//
// Reads a nest program in the DSL (see codegen/dsl_parser.hpp; examples
// under examples/specs/) and emits OpenMP C code with the nest collapsed
// and the original indices recovered from the single loop index.
//
// Usage:
//   collapse_tool [flags] [file.nest]        (stdin when no file)
//
// Flags:
//   --emit=function     collapsed function only (default)
//   --emit=original     the original nest as a function
//   --emit=program      self-verifying program (original + collapsed + main)
//   --emit=describe     symbolic report (ranking polynomial, roots)
//   --style=thread      one recovery per thread, Fig. 4 (default)
//   --style=iteration   recovery at every iteration, Fig. 3
//   --style=chunk=N     schedule(static, N), recovery per chunk (§V)
//   --style=simd=N      §VI-A block scheme with vlength N (1..256)
//   --cfor              input is a plain C for-nest (optionally preceded by
//                       '#pragma omp ... collapse(n)') instead of the DSL
//
// Example:
//   ./examples/collapse_tool --emit=program examples/specs/correlation.nest \
//     | cc -xc - -O2 -fopenmp -lm -o verify && ./verify 100

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "nrcollapse.hpp"

using namespace nrc;

namespace {

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: collapse_tool [--emit=function|original|program|describe]\n"
               "                     [--style=thread|iteration|chunk=N|simd=N]\n"
               "                     [--cfor] [file.nest]\n");
  std::exit(code);
}

/// The N of --style=chunk=N / --style=simd=N: a whole decimal number in
/// [1, max], digits only; anything else is a usage error.  At most 19
/// digits, so the value always fits the unsigned parse.
long long parse_count(const std::string& text, long long max) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos)
    usage(2);
  const unsigned long long n = std::stoull(text);
  if (n < 1 || n > static_cast<unsigned long long>(max)) usage(2);
  return static_cast<long long>(n);
}

}  // namespace

int main(int argc, char** argv) {
  std::string emit = "function";
  EmitOptions opt;
  std::string path;
  bool cfor = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--emit=", 0) == 0) {
      emit = arg.substr(7);
    } else if (arg == "--style=thread") {
      opt.schedule = Schedule::per_thread();
    } else if (arg == "--style=iteration") {
      opt.schedule = Schedule::per_iteration();
    } else if (arg.rfind("--style=chunk=", 0) == 0) {
      opt.schedule = Schedule::chunked(parse_count(arg.substr(14), INT64_MAX));
    } else if (arg.rfind("--style=simd=", 0) == 0) {
      opt.schedule =
          Schedule::simd_blocks(static_cast<int>(parse_count(arg.substr(13), kMaxSimdLanes)));
    } else if (arg == "--cfor") {
      cfor = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(2);
    } else {
      path = arg;
    }
  }

  std::string text;
  if (path.empty()) {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  try {
    const NestProgram prog = cfor ? parse_c_for_nest(text) : parse_nest_program(text);
    const Collapsed col = collapse(prog.collapsed_nest());
    if (emit == "function") {
      std::fputs(emit_collapsed_function(prog, col, opt).c_str(), stdout);
    } else if (emit == "original") {
      std::fputs(emit_original_function(prog).c_str(), stdout);
    } else if (emit == "program") {
      std::fputs(emit_verification_program(prog, col, opt).c_str(), stdout);
    } else if (emit == "describe") {
      std::fputs(col.describe().c_str(), stdout);
    } else {
      usage(2);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "collapse_tool: %s\n", e.what());
    return 1;
  }
  return 0;
}

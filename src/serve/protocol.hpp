#pragma once
// nrcd line protocol: the transport-free half of the serving front end.
//
// The nrcd server (examples/nrcd.cpp) speaks a newline-delimited text
// protocol; everything except the sockets lives here so the protocol is
// unit-testable (tests/pipeline/serve_test.cpp) and the serving hammer
// can drive the exact request path in-process.
//
// Request framing:
//
//   <verb> [name=value,name=value,...]\n     header: verb + parameters
//   <nest text: C-for or DSL lines>          (verbs that take a nest)
//   .\n                                      lone-dot terminator
//
// One request may span at most kMaxRequestBytes, header line included;
// read_request throws ParseError past that, and nrcd answers with an
// error and drops the connection.
//
// Verbs:
//   describe  nest+params -> the plan's describe() report (includes
//             the auto-selected schedule).  On a hit the symbolic
//             report and the certificate come from memos (see
//             CollapsePlan::describe); the schedule, jit and plan-cache
//             lines are rendered per request.
//   emit      nest+params -> the collapsed nest as OpenMP C (the
//             auto-selected schedule drives the emission style)
//   run       nest+params -> execute through the dispatcher, reply with
//             an order-insensitive checksum (the sum of tuple_mix over
//             the domain) and the trip count.  The walk hands the body
//             row segments: each row's prefix is hashed once and the
//             innermost range summed in a plain loop.  run never
//             compiles: jitrun is the one verb that reaches the JIT.
//   jitrun    nest+params -> execute through the JIT-compiled
//             specialized kernel (jit/jit_kernel.hpp) via the
//             process-global KernelCache; replies with the run verb's
//             checksum/trip lines plus a "jit <status>" line ("jit"
//             when a compiled kernel ran, "fallback: <reason>" when
//             the library dispatcher served the request — no
//             toolchain, failed compile, error-severity certificate)
//   lint      nest+params -> the static analyzer's certificate block
//             (analysis/nest_analyzer.hpp): per-check verdicts plus
//             structured diagnostics.  Never an err response for nests
//             that parse: bind failures, overflowing trips and unbound
//             parameters come back as NRC-* diagnostics, and what run
//             would refuse under ServeLimits is reported as NRC-W005.
//             Served from the plan cache: a nest that builds is certified
//             from its cached plan (analyze(plan)), so the header carries
//             the real outcome/build_ns.  Only a failing build is
//             analyzed uncached (analyze_nest), and it leaves no cache
//             entry.
//   stats     (no nest section) -> the plan cache's stats_line() plus
//             the process-global kernel cache's jit line (hits, misses,
//             compiles, disk hits, fallbacks, summed compile ns)
//   quit      (no nest section) -> acknowledged; the server closes the
//             connection
//
// The nest text is auto-detected: lines starting with "for" or
// "#pragma" parse as the C-for surface syntax, anything else as the
// nest DSL.  All plans flow through one PlanCache, keyed on the request
// itself (the nest text, the sorted parameters, the collapse options;
// PlanCache::get_keyed), so a repeated request is a hit that never
// parses its text: describe, run, jitrun and lint hits hash the bytes
// and answer from the cached plan.  The text is parsed on a miss (the
// build needs the nest), by emit (it prints the request's own body and
// declarations), and by lint's uncached fallback.  A second spelling of
// a cached nest is its own entry, built by a bind alone ("symbolic").
// A nest text over kMaxTextKeyBytes is parsed on every request and
// keyed by structure.  Every response header carries the outcome
// attribution of the cache lookup.
//
// Response framing (payload is length-prefixed so clients never guess):
//
//   ok <payload-bytes> outcome=<hit|symbolic|cold|-> build_ns=<n>\n
//   <payload-bytes of payload>
//   err <payload-bytes>\n
//   <payload-bytes of error message>

#include <iosfwd>
#include <span>
#include <string>

#include "codegen/dsl_parser.hpp"
#include "pipeline/plan_cache.hpp"

namespace nrc::serve {

/// Server-side resource limits.
struct ServeLimits {
  /// run refuses domains with more iterations than this (a remote
  /// client must not be able to buy unbounded compute with three lines
  /// of text).  describe/emit have no such limit — they are O(depth).
  i64 max_run_trip = 50'000'000;
};

struct Request {
  std::string verb;
  ParamMap params;
  std::string nest_text;  ///< empty for stats/quit
};

struct Response {
  bool ok = true;
  std::string payload;  ///< reply body; the error message when !ok
  std::string outcome = "-";
  i64 build_ns = 0;
};

/// Bytes read_request accepts for one request, header line included.
inline constexpr size_t kMaxRequestBytes = size_t{1} << 20;

/// The longest nest text handle_request keys the plan cache by its
/// bytes.  A longer text is parsed and keyed by structure, so padding
/// (comments, body text) cannot pin more than this per cached entry.
inline constexpr size_t kMaxTextKeyBytes = 4096;

/// True for verbs whose request carries a nest section ("describe",
/// "emit", "run", "jitrun", "lint"); stats/quit are header-only.
bool verb_has_nest(const std::string& verb);

/// Read one request.  Returns false on a clean end-of-stream before a
/// header; throws ParseError on a malformed header, a nest section
/// missing its "." terminator, or a request over kMaxRequestBytes.
bool read_request(std::istream& is, Request& out);

/// Render a request in wire format (client side; used by the tests and
/// the nrcd self-test client).
std::string format_request(const Request& req);

/// Render a response in wire format.
std::string format_response(const Response& r);

/// Read one response (client side).  Returns false on end-of-stream;
/// throws ParseError on malformed framing.
bool read_response(std::istream& is, Response& out);

/// Auto-detect and parse the nest text (C-for vs DSL); throws
/// ParseError.
NestProgram parse_nest_text(const std::string& text);

/// The run/jitrun checksum's per-tuple word: a chained splitmix mix of
/// the recovered indices, outermost first.  The reply's checksum is the
/// sum of this over every visited tuple mod 2^64, so it does not depend
/// on the schedule, the thread count or the visit order.  Because the
/// chain runs outermost first, run computes the prefix's part once per
/// row and only the last step per innermost index.
u64 tuple_mix(std::span<const i64> idx);

/// Serve one request against `cache`.  Never throws: every nrc::Error
/// (parse failures — which leave no cache entry —, empty domains,
/// refused limits, binds refused for
/// overflow, a recovery that throws inside the parallel walk) becomes
/// an ok=false response with the message as payload — except under lint,
/// which certifies the cached plan and turns a failing build into
/// NRC-* diagnostics through the uncached analyze_nest().
Response handle_request(PlanCache& cache, const Request& req,
                        const ServeLimits& limits = {});

}  // namespace nrc::serve

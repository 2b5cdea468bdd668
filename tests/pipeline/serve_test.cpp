// The serving layer: wire framing round-trips, handle_request over all
// verbs (with per-request cost attribution), the serving trip limit,
// plan serialization byte-identity on every kernel nest, corrupt-record
// rejection, and the snapshot/warm_start cache round trip.
#include <gtest/gtest.h>

#include <omp.h>

#include <sstream>
#include <thread>

#include "../test_util.hpp"
#include "analysis/nest_analyzer.hpp"
#include "codegen/c_for_parser.hpp"
#include "codegen/dsl_parser.hpp"
#include "pipeline/plan_cache.hpp"
#include "polyhedral/domain.hpp"
#include "serve/protocol.hpp"
#include "serve/serialization.hpp"
#include "support/error.hpp"

namespace nrc {
namespace {

constexpr const char* kTriCFor =
    "for (i = 0; i < N - 1; i++)\n"
    "  for (j = i + 1; j < N; j++) {\n"
    "    /* body */;\n"
    "  }\n";

serve::Request make_req(const std::string& verb, ParamMap params,
                        const std::string& nest_text = "") {
  serve::Request req;
  req.verb = verb;
  req.params = std::move(params);
  req.nest_text = nest_text;
  return req;
}

/// Everything above describe()'s live cache-stats line.
std::string sans_stats(const std::string& s) { return s.substr(0, s.find("plan cache:")); }

TEST(ServeProtocol, RequestWireRoundTrip) {
  const serve::Request req = make_req("describe", {{"M", 7}, {"N", 2000}}, kTriCFor);
  std::istringstream wire(serve::format_request(req));
  serve::Request back;
  ASSERT_TRUE(serve::read_request(wire, back));
  EXPECT_EQ(back.verb, "describe");
  EXPECT_EQ(back.params, req.params);
  EXPECT_EQ(back.nest_text, req.nest_text);

  // Header-only verbs carry no nest section and no terminator.
  std::istringstream wire2(serve::format_request(make_req("stats", {})));
  ASSERT_TRUE(serve::read_request(wire2, back));
  EXPECT_EQ(back.verb, "stats");
  EXPECT_TRUE(back.params.empty());
  EXPECT_FALSE(serve::read_request(wire2, back));  // clean EOF
}

TEST(ServeProtocol, ResponseWireRoundTrip) {
  serve::Response resp;
  resp.payload = "line one\nline two\n";
  resp.outcome = "cold";
  resp.build_ns = 12345;
  std::istringstream wire(serve::format_response(resp));
  serve::Response back;
  ASSERT_TRUE(serve::read_response(wire, back));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.payload, resp.payload);
  EXPECT_EQ(back.outcome, "cold");
  EXPECT_EQ(back.build_ns, 12345);

  const serve::Response err{false, "boom\n", "-", 0};
  std::istringstream wire2(serve::format_response(err));
  ASSERT_TRUE(serve::read_response(wire2, back));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.payload, "boom\n");
}

TEST(ServeProtocol, MalformedRequestsThrowParseError) {
  serve::Request req;
  std::istringstream unterminated("describe N=5\nfor (i = 0; i < N; i++) { /* body */; }\n");
  EXPECT_THROW(serve::read_request(unterminated, req), ParseError);

  std::istringstream bad_param("describe N=abc\nfor (i = 0; i < N; i++) {}\n.\n");
  EXPECT_THROW(serve::read_request(bad_param, req), ParseError);

  std::istringstream truncated_resp("ok 100 outcome=hit build_ns=0\nshort");
  serve::Response resp;
  EXPECT_THROW(serve::read_response(truncated_resp, resp), ParseError);
}

/// read_request on `wire`: the ParseError message, or "" when it parsed.
std::string read_request_error(const std::string& wire) {
  std::istringstream is(wire);
  serve::Request req;
  try {
    serve::read_request(is, req);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(ServeProtocol, RequestsOverTheByteCapThrowParseError) {
  const size_t two_mib = 2 * serve::kMaxRequestBytes;
  const std::string line(79, 'x');
  std::string nest;
  while (nest.size() < two_mib) nest += line + "\n";

  // An unterminated nest section: without the cap it would be buffered
  // whole before the missing '.' is noticed.
  const std::string unterminated = "describe N=5\n" + nest;
  EXPECT_NE(read_request_error(unterminated).find("request cap"), std::string::npos);
  // One 2 MiB header line.
  const std::string header = "describe " + std::string(two_mib, 'N') + "\n.\n";
  EXPECT_NE(read_request_error(header).find("request cap"), std::string::npos);

  // The cap stops the read near 1 MiB, not at the end of the stream.
  std::istringstream is(unterminated);
  serve::Request req;
  EXPECT_THROW(serve::read_request(is, req), ParseError);
  EXPECT_LE(static_cast<size_t>(is.tellg()), serve::kMaxRequestBytes + 1);

  // A request of exactly the cap, terminator included, still reads; one
  // byte more does not.
  const std::string head = "describe N=5\n";
  const std::string body = nest.substr(0, serve::kMaxRequestBytes - head.size() - 3);
  ASSERT_EQ((head + body + "\n.\n").size(), serve::kMaxRequestBytes);
  EXPECT_EQ(read_request_error(head + body + "\n.\n"), "");
  EXPECT_NE(read_request_error(head + body + "x\n.\n").find("request cap"), std::string::npos);
}

TEST(ServeHandle, DescribeAttributesColdHitSymbolic) {
  PlanCache cache(16, 2);
  const serve::Request req = make_req("describe", {{"N", 100}}, kTriCFor);

  const serve::Response cold = serve::handle_request(cache, req);
  ASSERT_TRUE(cold.ok) << cold.payload;
  EXPECT_EQ(cold.outcome, "cold");
  EXPECT_GT(cold.build_ns, 0);
  EXPECT_NE(cold.payload.find("lowered solver"), std::string::npos) << cold.payload;

  const serve::Response hit = serve::handle_request(cache, req);
  EXPECT_EQ(hit.outcome, "hit");
  // describe() ends with the LIVE cache-stats line; everything above it
  // comes from the shared immutable plan and must match exactly.
  EXPECT_EQ(sans_stats(hit.payload), sans_stats(cold.payload));

  const serve::Response sym =
      serve::handle_request(cache, make_req("describe", {{"N", 101}}, kTriCFor));
  EXPECT_EQ(sym.outcome, "symbolic");
}

TEST(ServeHandle, EmitReturnsTheCollapsedFunction) {
  PlanCache cache(16, 2);
  const serve::Response resp =
      serve::handle_request(cache, make_req("emit", {{"N", 50}}, kTriCFor));
  ASSERT_TRUE(resp.ok) << resp.payload;
  EXPECT_NE(resp.payload.find("for ("), std::string::npos) << resp.payload;
  EXPECT_NE(resp.payload.find("/* body */"), std::string::npos) << resp.payload;
}

TEST(ServeHandle, RunChecksumIsSyntaxAndRepeatInvariant) {
  PlanCache cache(16, 2);
  const serve::Response c_run =
      serve::handle_request(cache, make_req("run", {{"N", 30}}, kTriCFor));
  ASSERT_TRUE(c_run.ok) << c_run.payload;
  EXPECT_NE(c_run.payload.find("trip 435"), std::string::npos) << c_run.payload;

  // The same domain through the DSL surface syntax: identical tuples,
  // identical order-insensitive checksum.
  NestProgram prog = parse_c_for_nest(kTriCFor);
  const serve::Response dsl_run = serve::handle_request(
      cache, make_req("run", {{"N", 30}}, render_nest_program(prog)));
  ASSERT_TRUE(dsl_run.ok) << dsl_run.payload;
  EXPECT_EQ(dsl_run.payload, c_run.payload);

  // And repeated runs (now cache hits) stay bit-identical.
  const serve::Response again =
      serve::handle_request(cache, make_req("run", {{"N", 30}}, kTriCFor));
  EXPECT_EQ(again.outcome, "hit");
  EXPECT_EQ(again.payload, c_run.payload);
}

/// The run reply for `nest_text` at `params`, and what it must be: the
/// sum of tuple_mix over a plain odometer of the same domain.
void expect_run_matches_odometer(PlanCache& cache, const std::string& nest_text,
                                 const ParamMap& params, const std::string& where) {
  const NestSpec nest = serve::parse_nest_text(nest_text).collapsed_nest();
  u64 sum = 0;
  i64 trip = 0;
  for (const auto& pt : domain_points(nest, params)) {
    sum += serve::tuple_mix(pt);
    ++trip;
  }
  const serve::Response r = serve::handle_request(cache, make_req("run", params, nest_text));
  ASSERT_TRUE(r.ok) << where << "\n" << r.payload;
  EXPECT_EQ(r.payload,
            "checksum " + std::to_string(sum) + "\ntrip " + std::to_string(trip) + "\n")
      << where;
}

// run sums tuple_mix one row segment at a time, hashing each row's
// prefix once.  The reply must equal the per-tuple sum over a plain
// odometer at every depth (depth 5 past the specialised walks), on rows
// of a single point, through both surface syntaxes, and at 1 and 4
// threads (4 threads pick the dynamic row_segments_chunked schedule).
TEST(ServeHandle, RunChecksumMatchesTheOdometer) {
  const struct {
    const char* name;
    const char* cfor;
    ParamMap params;
  } cases[] = {
      {"depth 1", "for (i = 3; i < N; i++) { /* body */; }\n", {{"N", 300}}},
      {"depth 2", kTriCFor, {{"N", 90}}},
      {"rows of one point",
       "for (i = 0; i < N; i++)\n"
       "  for (j = i; j < i + 1; j++) { /* body */; }\n",
       {{"N", 200}}},
      {"depth 3",
       "for (i = 0; i < N; i++)\n"
       "  for (j = i; j < N; j++)\n"
       "    for (k = j; k < N; k++) { /* body */; }\n",
       {{"N", 20}}},
      {"depth 4 shifted",
       "for (i = S; i < S + N; i++)\n"
       "  for (j = i; j < S + N; j++)\n"
       "    for (k = j; k < S + N; k++)\n"
       "      for (l = k; l < S + N + 2; l++) { /* body */; }\n",
       {{"N", 9}, {"S", 1000}}},
      {"depth 5",
       "for (i = 0; i < N; i++)\n"
       "  for (j = i; j < N; j++)\n"
       "    for (k = 0; k < 3; k++)\n"
       "      for (l = 0; l < 2; l++)\n"
       "        for (m = j; m < N; m++) { /* body */; }\n",
       {{"N", 12}}},
  };
  const int saved = omp_get_max_threads();
  bool dynamic_chunks = false;
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    PlanCache cache(16, 2);
    for (const auto& c : cases) {
      const std::string where = std::string(c.name) + " at " + std::to_string(threads) + " threads";
      expect_run_matches_odometer(cache, c.cfor, c.params, where);
      const NestProgram prog = parse_c_for_nest(c.cfor);
      expect_run_matches_odometer(cache, render_nest_program(prog), c.params, where + " (DSL)");
      const Schedule pick = CollapsePlan::build(prog.collapsed_nest(), c.params)->auto_schedule();
      dynamic_chunks = dynamic_chunks || (pick.scheme == Scheme::RowSegmentsChunked &&
                                          pick.omp == OmpSchedule::Dynamic);
    }
  }
  omp_set_num_threads(saved);
  EXPECT_TRUE(dynamic_chunks) << "no case took the dynamic row_segments_chunked walk";
}

// The 4-deep simplex shifted by S = 3*10^10 has 70 points, but its rank
// polynomial's terms reach ~10^43: bind refuses it, so run answers with
// an err reply (the recovery used to throw inside the parallel region
// and abort the server), and the next request is served as usual.
TEST(ServeHandle, RunOverflowIsAnErrReplyNotAnAbort) {
  const std::string shifted =
      "for (i = S; i < S + N; i++)\n"
      "  for (j = i; j < S + N; j++)\n"
      "    for (k = j; k < S + N; k++)\n"
      "      for (l = k; l < S + N; l++) { /* body */; }\n";
  PlanCache cache(16, 2);
  const serve::Response far = serve::handle_request(
      cache, make_req("run", {{"N", 5}, {"S", 30'000'000'000}}, shifted));
  EXPECT_FALSE(far.ok);
  EXPECT_NE(far.payload.find("rank evaluation"), std::string::npos) << far.payload;
  EXPECT_FALSE(serve::handle_request(
                   cache, make_req("describe", {{"N", 5}, {"S", 30'000'000'000}}, shifted))
                   .ok);
  const serve::Response lint = serve::handle_request(
      cache, make_req("lint", {{"N", 5}, {"S", 30'000'000'000}}, shifted));
  ASSERT_TRUE(lint.ok);
  EXPECT_NE(lint.payload.find("NRC-E001"), std::string::npos) << lint.payload;

  expect_run_matches_odometer(cache, shifted, {{"N", 5}, {"S", 1'000'000'000}}, "S=10^9");
}

TEST(ServeHandle, RunRefusesDomainsOverTheServingLimit) {
  PlanCache cache(16, 2);
  serve::ServeLimits limits;
  limits.max_run_trip = 100;
  const serve::Response resp =
      serve::handle_request(cache, make_req("run", {{"N", 100}}, kTriCFor), limits);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.payload.find("serving limit"), std::string::npos) << resp.payload;
  // describe on the same domain is still fine — the limit gates run only.
  EXPECT_TRUE(
      serve::handle_request(cache, make_req("describe", {{"N", 100}}, kTriCFor), limits).ok);
}

TEST(ServeHandle, LintReportsCertificateAndServeLimit) {
  PlanCache cache(16, 2);
  serve::ServeLimits limits;
  limits.max_run_trip = 100;

  // Over the run limit: lint stays ok and reports NRC-W005 instead of
  // refusing the way run does.
  const serve::Response over =
      serve::handle_request(cache, make_req("lint", {{"N", 100}}, kTriCFor), limits);
  ASSERT_TRUE(over.ok) << over.payload;
  EXPECT_NE(over.payload.find("certificates: trip-i64 yes"), std::string::npos)
      << over.payload;
  EXPECT_NE(over.payload.find("NRC-W005"), std::string::npos) << over.payload;

  // Under the limit: a clean certificate, no W005.
  const serve::Response small =
      serve::handle_request(cache, make_req("lint", {{"N", 10}}, kTriCFor), limits);
  ASSERT_TRUE(small.ok);
  EXPECT_NE(small.payload.find("lint: clean"), std::string::npos) << small.payload;

  // Bind failures come back as diagnostics, not an err response: the
  // failed build falls back to the uncached analyze_nest and leaves no
  // cache entry behind.
  const size_t before = cache.size();
  const serve::Response unbound =
      serve::handle_request(cache, make_req("lint", {}, kTriCFor), limits);
  ASSERT_TRUE(unbound.ok);
  EXPECT_NE(unbound.payload.find("NRC-E001"), std::string::npos) << unbound.payload;
  EXPECT_EQ(cache.size(), before);

  // The run refusal names the lint verb as the non-refusing alternative.
  const serve::Response refused =
      serve::handle_request(cache, make_req("run", {{"N", 100}}, kTriCFor), limits);
  ASSERT_FALSE(refused.ok);
  EXPECT_NE(refused.payload.find("NRC-W005"), std::string::npos) << refused.payload;
}

// lint certifies the cached plan: a primed key is a hit, a fresh one
// builds and caches, and the payload is analyze_nest()'s certificate
// for every bindable nest.
TEST(ServeHandle, LintIsServedFromThePlanCache) {
  PlanCache cache(16, 2);
  const serve::ServeLimits limits;
  ASSERT_TRUE(
      serve::handle_request(cache, make_req("describe", {{"N", 50}}, kTriCFor), limits).ok);
  const serve::Response hit =
      serve::handle_request(cache, make_req("lint", {{"N", 50}}, kTriCFor), limits);
  ASSERT_TRUE(hit.ok) << hit.payload;
  EXPECT_EQ(hit.outcome, "hit");
  const std::string certificate =
      analyze_nest(parse_c_for_nest(kTriCFor).collapsed_nest(), {{"N", 50}}).str();
  EXPECT_EQ(hit.payload, certificate);
  // A serving-limit warning goes on a copy of the plan's certificate:
  // the next lint and describe of the same plan do not carry it.
  serve::ServeLimits tight;
  tight.max_run_trip = 10;
  const serve::Response warned =
      serve::handle_request(cache, make_req("lint", {{"N", 50}}, kTriCFor), tight);
  EXPECT_NE(warned.payload.find("NRC-W005"), std::string::npos) << warned.payload;
  EXPECT_EQ(serve::handle_request(cache, make_req("lint", {{"N", 50}}, kTriCFor), limits).payload,
            certificate);
  const serve::Response described =
      serve::handle_request(cache, make_req("describe", {{"N", 50}}, kTriCFor), limits);
  EXPECT_EQ(described.payload.find("NRC-W005"), std::string::npos) << described.payload;
  EXPECT_NE(described.payload.find(certificate), std::string::npos) << described.payload;

  const size_t before = cache.size();
  const serve::Response fresh =
      serve::handle_request(cache, make_req("lint", {{"N", 60}}, kTriCFor), limits);
  ASSERT_TRUE(fresh.ok) << fresh.payload;
  EXPECT_EQ(fresh.outcome, "symbolic");
  EXPECT_GT(fresh.build_ns, 0);
  EXPECT_EQ(cache.size(), before + 1);

  for (const auto& sc : testutil::closed_form_shapes()) {
    const ParamMap p = testutil::uniform_params(sc.nest, 7);
    if (!has_no_empty_ranges(sc.nest, p)) continue;  // outside the model
    NestProgram prog;
    prog.nest = sc.nest;
    const serve::Response r =
        serve::handle_request(cache, make_req("lint", p, render_nest_program(prog)), limits);
    ASSERT_TRUE(r.ok) << sc.name << "\n" << r.payload;
    EXPECT_NE(r.outcome, "-") << sc.name;
    EXPECT_EQ(r.payload, analyze_nest(sc.nest, p).str()) << sc.name;
  }
}

TEST(ServeHandle, ErrorsBecomeErrResponsesNotExceptions) {
  PlanCache cache(16, 2);
  const serve::Response unknown = serve::handle_request(cache, make_req("frobnicate", {}));
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.payload.find("unknown verb"), std::string::npos);

  // A nest that parses but fails to bind (missing parameter) errs too.
  const serve::Response unbound = serve::handle_request(cache, make_req("describe", {}, kTriCFor));
  EXPECT_FALSE(unbound.ok);

  const serve::Response stats = serve::handle_request(cache, make_req("stats", {}));
  ASSERT_TRUE(stats.ok);
  EXPECT_NE(stats.payload.find("plan cache:"), std::string::npos);
}

/// kTriCFor with a comment of `pad` bytes between the two loop headers.
std::string padded_tri(size_t pad, char fill) {
  return "for (i = 0; i < N - 1; i++) /*" + std::string(pad, fill) +
         "*/\n"
         "  for (j = i + 1; j < N; j++) {\n"
         "    /* body */;\n"
         "  }\n";
}

// nrcd keys its entries on the request text, so a second spelling of a
// cached nest misses the plan shards; the symbolic table is keyed on
// structure, so it still skips collapse() and pays only a bind.
TEST(ServeHandle, SecondSpellingIsASymbolicHitWithTheSameReplies) {
  const std::string dsl = render_nest_program(parse_c_for_nest(kTriCFor));
  const ParamMap p = {{"N", 40}};
  for (const char* verb : {"describe", "run", "lint"}) {
    PlanCache fresh(16, 2);
    const serve::Response c_for = serve::handle_request(fresh, make_req(verb, p, kTriCFor));
    const serve::Response again = serve::handle_request(fresh, make_req(verb, p, dsl));
    ASSERT_TRUE(c_for.ok && again.ok) << verb << "\n" << c_for.payload << again.payload;
    EXPECT_EQ(c_for.outcome, "cold") << verb;
    EXPECT_EQ(again.outcome, "symbolic") << verb;
    EXPECT_EQ(sans_stats(again.payload), sans_stats(c_for.payload)) << verb;
    EXPECT_EQ(fresh.size(), 2u) << verb;
    EXPECT_EQ(serve::handle_request(fresh, make_req(verb, p, dsl)).outcome, "hit") << verb;
  }
}

// A text that does not parse is a failed build: an err reply each time,
// and no entry stays behind under its text key.
TEST(ServeHandle, MalformedTextIsAnErrReplyAndLeavesNoEntry) {
  PlanCache cache(16, 2);
  ASSERT_TRUE(serve::handle_request(cache, make_req("describe", {{"N", 9}}, kTriCFor)).ok);
  const size_t before = cache.size();
  const std::string broken = "for (i = 0; i < N; i++\n  for (j = 0; j < i; j++) { }\n";
  for (const char* verb : {"describe", "describe", "run", "emit", "lint"}) {
    const serve::Response r = serve::handle_request(cache, make_req(verb, {{"N", 9}}, broken));
    EXPECT_FALSE(r.ok) << verb << ": " << r.payload;
    EXPECT_EQ(cache.size(), before) << verb;
  }
}

// Texts over kMaxTextKeyBytes are keyed by structure: padding cannot pin
// more than that bound of key bytes per entry.
TEST(ServeHandle, TextsOverTheKeyBoundShareOneStructureEntry) {
  PlanCache cache(16, 2);
  const ParamMap p = {{"N", 30}};
  const std::string a = padded_tri(serve::kMaxTextKeyBytes, 'a');
  const std::string b = padded_tri(serve::kMaxTextKeyBytes, 'b');
  ASSERT_GT(a.size(), serve::kMaxTextKeyBytes);
  const serve::Response first = serve::handle_request(cache, make_req("describe", p, a));
  const serve::Response second = serve::handle_request(cache, make_req("describe", p, b));
  ASSERT_TRUE(first.ok && second.ok) << first.payload << second.payload;
  EXPECT_EQ(first.outcome, "cold");
  EXPECT_EQ(second.outcome, "hit");
  EXPECT_EQ(cache.size(), 1u);
  const auto entries = cache.completed_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first,
            plan_cache_key(parse_c_for_nest(kTriCFor).collapsed_nest(), p, {}));

  // At the bound, the text is the key: two paddings are two entries.
  const size_t fit = serve::kMaxTextKeyBytes - (a.size() - serve::kMaxTextKeyBytes);
  const std::string c = padded_tri(fit, 'c');
  ASSERT_EQ(c.size(), serve::kMaxTextKeyBytes);
  EXPECT_EQ(serve::handle_request(cache, make_req("describe", p, c)).outcome, "symbolic");
  EXPECT_EQ(serve::handle_request(cache, make_req("describe", p, padded_tri(fit, 'd'))).outcome,
            "symbolic");
  EXPECT_EQ(cache.size(), 3u);
  for (const auto& [key, plan] : cache.completed_entries())
    EXPECT_LE(key.size(), serve::kMaxTextKeyBytes + plan_cache_key(plan->nest(), p, {}).size());
}

// Eight clients on one text key: one build, and every reply is the same
// bytes (describe above its live cache-stats line).
TEST(ServeHandle, ConcurrentHitsOnOneTextKeyAgree) {
  PlanCache cache(16, 2);
  const ParamMap p = {{"N", 120}};
  const char* const verbs[] = {"describe", "run", "lint"};
  std::string want[3];
  for (int v = 0; v < 3; ++v) {
    const serve::Response r = serve::handle_request(cache, make_req(verbs[v], p, kTriCFor));
    ASSERT_TRUE(r.ok) << r.payload;
    want[v] = sans_stats(r.payload);
  }
  constexpr int kThreads = 8, kRounds = 40;
  std::vector<std::string> bad(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const int v = (r + t) % 3;
        const serve::Response resp =
            serve::handle_request(cache, make_req(verbs[v], p, kTriCFor));
        if (!resp.ok || resp.outcome != "hit" || sans_stats(resp.payload) != want[v])
          bad[static_cast<size_t>(t)] = std::string(verbs[v]) + " " + resp.outcome + "\n" +
                                        resp.payload;
      }
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[static_cast<size_t>(t)], "") << t;
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(ServeSerialization, RoundTripIsByteIdenticalOnEveryKernelNest) {
  for (const auto& sc : testutil::closed_form_shapes()) {
    const ParamMap p = testutil::uniform_params(sc.nest, 7);
    if (!has_no_empty_ranges(sc.nest, p)) continue;  // outside the model
    const auto cold = CollapsePlan::build(sc.nest, p);
    const std::string record = cold->serialize();

    const auto back = CollapsePlan::deserialize(record);
    // serialize() is stable: re-serializing the rebuilt plan reproduces
    // the record byte for byte.
    EXPECT_EQ(back->serialize(), record) << sc.name;
    ASSERT_EQ(back->eval().trip_count(), cold->eval().trip_count()) << sc.name;

    // And the rebuilt plan recovers the identical tuple at every pc.
    i64 a[8], b[8];
    const size_t d = static_cast<size_t>(cold->eval().depth());
    for (i64 pc = 1; pc <= cold->eval().trip_count(); ++pc) {
      cold->eval().recover(pc, {a, d});
      back->eval().recover(pc, {b, d});
      for (size_t k = 0; k < d; ++k)
        ASSERT_EQ(a[k], b[k]) << sc.name << " pc=" << pc << " level=" << k;
    }
  }
}

TEST(ServeSerialization, ModelParamsRideTheRecord) {
  // Valid only where S > N + 59: the rebuild needs the record's model
  // check point, or collapse() refuses the nest.
  NestSpec n;
  n.param("N").param("S");
  n.loop("i", aff::c(0), aff::v("N")).loop("j", aff::c(0), aff::v("S") - aff::v("N") - 59);
  CollapseOptions opts;
  opts.model_params = {{"N", 3}, {"S", 70}};
  const auto plan = CollapsePlan::build(n, {{"N", 4}, {"S", 80}}, opts);
  const std::string record = plan->serialize();
  EXPECT_NE(record.find("model N=3\nmodel S=70\n"), std::string::npos) << record;
  EXPECT_EQ(CollapsePlan::deserialize(record)->serialize(), record);
}

TEST(ServeSerialization, CorruptRecordsAreRejected) {
  const auto plan = CollapsePlan::build(testutil::triangular_strict(), {{"N", 20}});
  std::string record = plan->serialize();

  // Valid solver names that don't match what the rebuild chooses: the
  // integrity check fires.
  std::string tampered = record;
  const size_t pos = tampered.find("innermost-linear");
  ASSERT_NE(pos, std::string::npos) << record;
  tampered.replace(pos, std::string("innermost-linear").size(), "binary-search");
  EXPECT_THROW(CollapsePlan::deserialize(tampered), SpecError);

  // Names of lowerings the library no longer has are not solver kinds.
  for (const char* retired : {"bytecode-program", "interpreted"}) {
    std::string old = record;
    old.replace(pos, std::string("innermost-linear").size(), retired);
    EXPECT_THROW(CollapsePlan::deserialize(old), ParseError) << retired;
  }

  EXPECT_THROW(CollapsePlan::deserialize(std::string("garbage here\n")), ParseError);
  EXPECT_THROW(CollapsePlan::deserialize(std::string()), ParseError);
  // A record cut off mid-nest is malformed, not silently accepted.
  EXPECT_THROW(CollapsePlan::deserialize(record.substr(0, record.size() / 2)), ParseError);
}

TEST(ServeSerialization, SnapshotWarmStartRoundTripsTheCache) {
  PlanCache a(16, 2);
  a.get(testutil::triangular_strict(), {{"N", 50}});
  a.get(testutil::triangular_strict(), {{"N", 60}});
  a.get(testutil::tetrahedral_fig6(), {{"N", 9}});

  std::stringstream snap;
  EXPECT_EQ(a.snapshot(snap), 3u);

  PlanCache b(16, 2);
  EXPECT_EQ(b.warm_start(snap), 3u);
  EXPECT_EQ(b.size(), 3u);
  const PlanCacheStats s = b.stats();
  EXPECT_EQ(s.misses, 3);
  // The two triangular domains share one symbolic build on replay.
  EXPECT_EQ(s.symbolic_hits, 1);

  // The restarted cache serves the replayed domains as full hits.
  EXPECT_EQ(b.get_with_outcome(testutil::triangular_strict(), {{"N", 50}}).outcome,
            GetOutcome::Hit);
  EXPECT_EQ(b.get_with_outcome(testutil::tetrahedral_fig6(), {{"N", 9}}).outcome,
            GetOutcome::Hit);

  // Warm-starting from a corrupt stream throws rather than half-loading,
  // and so does a stream of bare records (the keyless format 1).
  PlanCache c(16, 2);
  std::istringstream bad("nrcplan 99\n");
  EXPECT_THROW(c.warm_start(bad), ParseError);
  std::istringstream keyless(CollapsePlan::build(testutil::triangular_strict(), {{"N", 50}})
                                 ->serialize());
  EXPECT_THROW(c.warm_start(keyless), ParseError);
  std::string cut = snap.str();
  cut.resize(cut.find("nrcplan"));
  std::istringstream truncated(cut);
  EXPECT_THROW(c.warm_start(truncated), ParseError);
  std::istringstream empty("");
  EXPECT_EQ(c.warm_start(empty), 0u);
}

// A snapshot keeps each entry's key: the restarted cache answers the
// same wire requests as full hits, with the same replies.
TEST(ServeSerialization, WarmStartServesTheSameWireRequestsAsHits) {
  const std::string dsl = render_nest_program(parse_c_for_nest(kTriCFor));
  const struct {
    const char* verb;
    std::string text;
    ParamMap params;
  } reqs[] = {{"describe", kTriCFor, {{"N", 70}}},
              {"run", kTriCFor, {{"N", 70}}},
              {"lint", dsl, {{"N", 71}}},
              {"describe", padded_tri(serve::kMaxTextKeyBytes, 'x'), {{"N", 72}}}};
  PlanCache a(16, 2);
  std::vector<std::string> replies;
  for (const auto& r : reqs) {
    const serve::Response resp = serve::handle_request(a, make_req(r.verb, r.params, r.text));
    ASSERT_TRUE(resp.ok) << resp.payload;
    replies.push_back(sans_stats(resp.payload));
  }
  a.get(testutil::tetrahedral_fig6(), {{"N", 9}});  // a library (structure) key
  std::stringstream snap;
  EXPECT_EQ(a.snapshot(snap), 4u);

  PlanCache b(16, 2);
  EXPECT_EQ(b.warm_start(snap), 4u);
  EXPECT_EQ(b.stats().misses, 4);
  for (size_t i = 0; i < std::size(reqs); ++i) {
    for (const char* verb : {"describe", "run", "lint"}) {
      const serve::Response resp =
          serve::handle_request(b, make_req(verb, reqs[i].params, reqs[i].text));
      ASSERT_TRUE(resp.ok) << resp.payload;
      EXPECT_EQ(resp.outcome, "hit") << verb << " on request " << i;
      if (verb == std::string(reqs[i].verb))
        EXPECT_EQ(sans_stats(resp.payload), replies[i]) << verb << " on request " << i;
    }
  }
  EXPECT_EQ(b.get_with_outcome(testutil::tetrahedral_fig6(), {{"N", 9}}).outcome,
            GetOutcome::Hit);
  EXPECT_EQ(b.stats().misses, 4);
}

}  // namespace
}  // namespace nrc

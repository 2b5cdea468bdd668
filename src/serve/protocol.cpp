#include "serve/protocol.hpp"

#include <algorithm>
#include <atomic>
#include <istream>
#include <optional>
#include <sstream>

#include "analysis/nest_analyzer.hpp"
#include "codegen/c_emitter.hpp"
#include "codegen/c_for_parser.hpp"
#include "jit/kernel_cache.hpp"
#include "support/error.hpp"

namespace nrc::serve {

namespace {

std::string strip_ws(const std::string& s) {
  const size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Parse the header's "name=value,name=value" parameter list.
ParamMap parse_params(const std::string& text) {
  ParamMap params;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find_first_of(",;", pos);
    if (end == std::string::npos) end = text.size();
    const std::string tok = strip_ws(text.substr(pos, end - pos));
    pos = end + 1;
    if (tok.empty()) continue;
    const size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
      throw ParseError("request: malformed parameter '" + tok + "'");
    try {
      size_t used = 0;
      const i64 v = std::stoll(tok.substr(eq + 1), &used);
      if (used != tok.size() - eq - 1) throw std::invalid_argument(tok);
      params[strip_ws(tok.substr(0, eq))] = v;
    } catch (const std::exception&) {
      throw ParseError("request: malformed parameter '" + tok + "'");
    }
  }
  return params;
}

/// One line into `line` (without its '\n'), charging every byte it
/// consumes, the newline included, to `budget`: a request past
/// kMaxRequestBytes throws before the rest of it is buffered.  False at
/// end of stream with nothing read, like std::getline.
bool getline_capped(std::istream& is, std::string& line, size_t& budget) {
  line.clear();
  std::streambuf* sb = is.rdbuf();
  size_t left = budget;  // a local: stores to `line` may alias `budget`
  for (;;) {
    const int c = sb->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      budget = left;
      is.setstate(std::ios::eofbit);
      return !line.empty();
    }
    if (left == 0)
      throw ParseError("request: over the " + std::to_string(kMaxRequestBytes) +
                       "-byte request cap");
    --left;
    if (c == '\n') {
      budget = left;
      return true;
    }
    line.push_back(static_cast<char>(c));
  }
}

std::atomic<u64> g_walks{0};
thread_local u64 tl_walk = 0;        ///< the walk tl_sum belongs to
thread_local u64* tl_sum = nullptr;  ///< this thread's slot in that walk

/// The run checksum's accumulator: per-thread cache-line-padded partial
/// sums, added up once after the walk, so each add (one per row segment
/// under run, one per tuple under jitrun) is a plain add instead of an
/// atomic one.  A thread claims a slot on its first add of a walk (the
/// walk's serial number tells a stale claim from a live one), so any
/// team gets distinct slots — the dispatcher's or a JIT kernel's,
/// whatever OpenMP runtime it was built against.  Threads beyond kSlots
/// share one atomic overflow sum.
class PartialSums {
 public:
  void add(u64 v) {
    if (tl_walk != id_) claim();
    if (tl_sum != nullptr)
      *tl_sum += v;
    else
      overflow_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Call after the walk has joined.
  u64 total() const {
    u64 sum = overflow_.load(std::memory_order_relaxed);
    const size_t claimed = std::min(next_.load(std::memory_order_relaxed), kSlots);
    for (size_t i = 0; i < claimed; ++i) sum += slots_[i].sum;
    return sum;
  }

 private:
  static constexpr size_t kSlots = 64;

  void claim() {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    tl_sum = nullptr;
    if (i < kSlots) {
      slots_[i].sum = 0;
      tl_sum = &slots_[i].sum;
    }
    tl_walk = id_;
  }

  struct alignas(64) Slot {
    u64 sum;  ///< set when the slot is claimed
  };
  const u64 id_ = g_walks.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot slots_[kSlots];
  std::atomic<size_t> next_{0};
  std::atomic<u64> overflow_{0};
};

constexpr u64 kMixSeed = 0x9e3779b97f4a7c15ULL;

/// One splitmix step of tuple_mix's chain: index v folded into hash h.
inline u64 mix_step(u64 h, i64 v) {
  u64 x = static_cast<u64>(v) + kMixSeed + h;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

u64 tuple_mix(std::span<const i64> idx) {
  u64 h = kMixSeed;
  for (const i64 v : idx) h = mix_step(h, v);
  return h;
}

bool verb_has_nest(const std::string& verb) {
  return verb == "describe" || verb == "emit" || verb == "run" ||
         verb == "jitrun" || verb == "lint";
}

bool read_request(std::istream& is, Request& out) {
  std::string line;
  size_t budget = kMaxRequestBytes;
  // Skip blank lines between requests; EOF here is a clean end.
  for (;;) {
    if (!getline_capped(is, line, budget)) return false;
    if (!strip_ws(line).empty()) break;
  }

  Request req;
  std::istringstream header(strip_ws(line));
  header >> req.verb;
  std::string rest;
  std::getline(header, rest);
  req.params = parse_params(rest);

  if (verb_has_nest(req.verb)) {
    bool terminated = false;
    while (getline_capped(is, line, budget)) {
      if (strip_ws(line) == ".") {
        terminated = true;
        break;
      }
      req.nest_text += line;
      req.nest_text += '\n';
    }
    if (!terminated)
      throw ParseError("request: nest section missing its '.' terminator");
  }
  out = std::move(req);
  return true;
}

std::string format_request(const Request& req) {
  std::string s = req.verb;
  bool first = true;
  for (const auto& [name, v] : req.params) {
    s += first ? " " : ",";
    s += name + "=" + std::to_string(v);
    first = false;
  }
  s += "\n";
  if (verb_has_nest(req.verb)) {
    s += req.nest_text;
    if (!req.nest_text.empty() && req.nest_text.back() != '\n') s += '\n';
    s += ".\n";
  }
  return s;
}

std::string format_response(const Response& r) {
  std::string s;
  if (r.ok) {
    s = "ok " + std::to_string(r.payload.size()) + " outcome=" + r.outcome +
        " build_ns=" + std::to_string(r.build_ns) + "\n";
  } else {
    s = "err " + std::to_string(r.payload.size()) + "\n";
  }
  s += r.payload;
  return s;
}

bool read_response(std::istream& is, Response& out) {
  std::string line;
  if (!std::getline(is, line)) return false;
  std::istringstream header(line);
  std::string status;
  size_t nbytes = 0;
  header >> status >> nbytes;
  if (status != "ok" && status != "err")
    throw ParseError("response: malformed status line '" + line + "'");
  Response r;
  r.ok = status == "ok";
  std::string tok;
  while (header >> tok) {
    if (tok.rfind("outcome=", 0) == 0) r.outcome = tok.substr(8);
    if (tok.rfind("build_ns=", 0) == 0) r.build_ns = std::stoll(tok.substr(9));
  }
  r.payload.resize(nbytes);
  is.read(r.payload.data(), static_cast<std::streamsize>(nbytes));
  if (static_cast<size_t>(is.gcount()) != nbytes)
    throw ParseError("response: truncated payload");
  out = std::move(r);
  return true;
}

NestProgram parse_nest_text(const std::string& text) {
  // First non-blank line decides the surface syntax.
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::string s = strip_ws(line);
    if (s.empty()) continue;
    if (s.rfind("for", 0) == 0 || s.rfind("#pragma", 0) == 0)
      return parse_c_for_nest(text);
    break;
  }
  return parse_nest_program(text);
}

namespace {

/// The plan-cache key of a request whose nest text is at most
/// kMaxTextKeyBytes: the text itself, length-prefixed, then the
/// parameters and options as in plan_cache_key().  The "text:" prefix
/// never starts a structure key (those start with the rendered nest).
/// Empty for a longer text, which is keyed by structure instead.
std::string request_key(const Request& req) {
  if (req.nest_text.size() > kMaxTextKeyBytes) return {};
  std::string key = "text:";
  key += std::to_string(req.nest_text.size());
  key += '\n';
  key += req.nest_text;
  key += plan_cache_key_suffix(req.params, CollapseOptions{});
  return key;
}

}  // namespace

Response handle_request(PlanCache& cache, const Request& req, const ServeLimits& limits) {
  Response resp;
  try {
    if (req.verb == "stats") {
      resp.payload = cache.stats_line() + "\n" + kernel_cache().stats_line() + "\n";
      return resp;
    }
    if (req.verb == "quit") {
      resp.payload = "bye\n";
      return resp;
    }
    if (!verb_has_nest(req.verb))
      throw ParseError("request: unknown verb '" + req.verb + "'");

    // The nest text is parsed only when something needs the program: a
    // plan build (a miss), emit (it prints the request's own body and
    // declarations) and lint's uncached fallback.  A parse error is a
    // failed build: an err reply, and no entry stays cached.
    std::optional<NestProgram> prog;
    auto program = [&]() -> const NestProgram& {
      if (!prog) prog = parse_nest_text(req.nest_text);
      return *prog;
    };
    auto nest_of = [&] { return program().collapsed_nest(); };
    const std::string key = request_key(req);
    auto get = [&] {
      return key.empty() ? cache.get_with_outcome(nest_of(), req.params)
                         : cache.get_keyed(key, nest_of, req.params);
    };

    if (req.verb == "lint") {
      // A nest that builds is certified from its cached plan (a hit costs
      // microseconds; a miss builds and caches the plan run would use).
      // Only a failing build is analyzed uncached: analyze_nest never
      // throws, so broken nests (empty domains, overflowing trips,
      // unbound parameters) still get their diagnostics instead of an
      // err response, and the failed build leaves no cache entry.
      std::shared_ptr<const CollapsePlan> plan;
      try {
        GetResult got = get();
        resp.outcome = get_outcome_name(got.outcome);
        resp.build_ns = got.build_ns;
        plan = std::move(got.plan);
      } catch (const Error&) {
      }
      // Serving limits are analyzer diagnostics here: what run would
      // refuse, lint reports as NRC-W005 with the same numbers.
      auto refused = [&limits](const NestCertificate& c) {
        return c.bind_ok && c.total_trip > limits.max_run_trip;
      };
      if (plan && !refused(plan->analyze())) {
        resp.payload = plan->certificate_text();
        return resp;
      }
      // A copy: the plan's own certificate stays free of serving limits.
      NestCertificate cert = plan ? plan->analyze() : analyze_nest(nest_of(), req.params);
      if (refused(cert)) {
        cert.diagnostics.push_back(Diagnostic{
            "NRC-W005", LintSeverity::Warn, -1,
            "run would be refused: domain has " + std::to_string(cert.total_trip) +
                " iterations, over the serving limit of " +
                std::to_string(limits.max_run_trip),
            "describe/emit stay available; shrink the domain to run remotely"});
      }
      resp.payload = cert.str();
      return resp;
    }

    GetResult got = get();
    resp.outcome = get_outcome_name(got.outcome);
    resp.build_ns = got.build_ns;
    const CollapsePlan& plan = *got.plan;

    if (req.verb == "describe") {
      resp.payload = plan.describe();
    } else if (req.verb == "emit") {
      NestProgram emittable = program();
      if (emittable.body.empty()) emittable.body = "/* body */;";
      EmitOptions emit;
      emit.schedule = plan.auto_schedule();
      resp.payload = emit_collapsed_function(emittable, plan.collapsed(), emit);
    } else {  // run / jitrun
      if (plan.eval().trip_count() > limits.max_run_trip)
        throw SpecError(req.verb + ": domain has " +
                        std::to_string(plan.eval().trip_count()) +
                        " iterations, over the serving limit of " +
                        std::to_string(limits.max_run_trip) +
                        " [NRC-W005 serve-limit; the lint verb reports this "
                        "without refusing]");
      const Schedule sched = plan.auto_schedule();
      PartialSums checksum;
      std::string jit_line;
      if (req.verb == "jitrun") {
        // The kernel calls back once per tuple; its own fallback ladder
        // guarantees an answer.
        auto kernel = plan.jit(sched);
        kernel->run([&checksum](std::span<const i64> idx) { checksum.add(tuple_mix(idx)); });
        jit_line = "jit " + kernel->status() + "\n";
      } else {
        // The same sum, one row segment at a time: the prefix is hashed
        // once per row, and the innermost range is a plain loop of one
        // mix step per j into a local sum.
        nrc::run(plan, sched, [&checksum](std::span<const i64> prefix, i64 j0, i64 j1) {
          const u64 h = tuple_mix(prefix);
          u64 sum = 0;
          for (i64 j = j0; j < j1; ++j) sum += mix_step(h, j);
          checksum.add(sum);
        });
      }
      resp.payload = "checksum " + std::to_string(checksum.total()) + "\ntrip " +
                     std::to_string(plan.eval().trip_count()) + "\n" + jit_line;
    }
    return resp;
  } catch (const Error& e) {
    return Response{false, std::string(e.what()) + "\n", "-", 0};
  }
}

}  // namespace nrc::serve

#include "serve/serialization.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "codegen/dsl_parser.hpp"
#include "pipeline/plan_cache.hpp"
#include "support/error.hpp"

namespace nrc {

namespace {

/// Parse "name=value" with an i64 value; throws ParseError.
std::pair<std::string, i64> parse_binding(const std::string& tok, const char* what) {
  const size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0)
    throw ParseError(std::string("plan record: malformed ") + what + " '" + tok + "'");
  try {
    size_t used = 0;
    const i64 v = std::stoll(tok.substr(eq + 1), &used);
    if (used != tok.size() - eq - 1) throw std::invalid_argument(tok);
    return {tok.substr(0, eq), v};
  } catch (const std::exception&) {
    throw ParseError(std::string("plan record: malformed ") + what + " '" + tok + "'");
  }
}

void write_record(std::ostream& os, const NestSpec& nest, const ParamMap& params,
                  const CollapseOptions& opts,
                  const std::vector<LevelSolverKind>& solvers) {
  os << "nrcplan " << serve::kPlanFormatVersion << "\n";
  os << "opts build_closed_form=" << (opts.build_closed_form ? 1 : 0)
     << " max_closed_degree=" << kMaxClosedDegree << "\n";
  for (const auto& [name, v] : opts.model_params) os << "model " << name << "=" << v << "\n";
  for (const auto& [name, v] : params) os << "param " << name << "=" << v << "\n";
  os << "solvers";
  for (const LevelSolverKind k : solvers) os << " " << level_solver_kind_name(k);
  os << "\n";
  // The nest rides through the DSL renderer: every nest the library
  // accepts round-trips parse(render(nest)) == nest, and none of the
  // rendered lines can collide with the "endplan" terminator.
  NestProgram prog;
  prog.name = "plan";
  prog.nest = nest;
  os << "nest\n" << render_nest_program(prog) << "endplan\n";
}

}  // namespace

namespace serve {

LevelSolverKind level_solver_kind_from_name(const std::string& name) {
  for (const LevelSolverKind k :
       {LevelSolverKind::InnermostLinear, LevelSolverKind::ExactDivision,
        LevelSolverKind::Quadratic, LevelSolverKind::Cubic, LevelSolverKind::Quartic,
        LevelSolverKind::Search})
    if (name == level_solver_kind_name(k)) return k;
  throw ParseError("plan record: unknown solver kind '" + name + "'");
}

bool read_plan_record(std::istream& is, PlanRecord& out) {
  std::string line;
  // Skip blank lines between records; clean EOF here means "no more".
  for (;;) {
    if (!std::getline(is, line)) return false;
    if (!line.empty() && line.find_first_not_of(" \t\r") != std::string::npos) break;
  }

  std::istringstream header(line);
  std::string kw;
  int version = 0;
  header >> kw >> version;
  if (kw != "nrcplan") throw ParseError("plan record: expected 'nrcplan', got '" + line + "'");
  if (version != kPlanFormatVersion)
    throw ParseError("plan record: unsupported version " + std::to_string(version));

  PlanRecord rec;
  bool saw_opts = false, saw_solvers = false, saw_nest = false;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    ls >> kw;
    if (kw.empty()) continue;
    if (kw == "opts") {
      std::string tok;
      while (ls >> tok) {
        const auto [name, v] = parse_binding(tok, "option");
        if (name == "build_closed_form")
          rec.opts.build_closed_form = v != 0;
        else if (name == "max_closed_degree") {
          if (v != kMaxClosedDegree)
            throw ParseError("plan record: max_closed_degree must be " +
                             std::to_string(kMaxClosedDegree) + ", got " + std::to_string(v));
        }
        else
          throw ParseError("plan record: unknown option '" + name + "'");
      }
      saw_opts = true;
    } else if (kw == "model") {
      std::string tok;
      ls >> tok;
      const auto [name, v] = parse_binding(tok, "model parameter");
      rec.opts.model_params[name] = v;
    } else if (kw == "param") {
      std::string tok;
      ls >> tok;
      const auto [name, v] = parse_binding(tok, "parameter");
      rec.params[name] = v;
    } else if (kw == "solvers") {
      std::string tok;
      while (ls >> tok) rec.solvers.push_back(level_solver_kind_from_name(tok));
      saw_solvers = true;
    } else if (kw == "nest") {
      std::string dsl;
      bool terminated = false;
      while (std::getline(is, line)) {
        if (line == "endplan") {
          terminated = true;
          break;
        }
        dsl += line;
        dsl += '\n';
      }
      if (!terminated) throw ParseError("plan record: missing 'endplan' terminator");
      rec.nest = parse_nest_program(dsl).nest;
      saw_nest = true;
      break;  // the nest block ends the record
    } else {
      throw ParseError("plan record: unknown keyword '" + kw + "'");
    }
  }
  if (!saw_opts || !saw_solvers || !saw_nest)
    throw ParseError("plan record: truncated (opts/solvers/nest required)");
  out = std::move(rec);
  return true;
}

}  // namespace serve

// ------------------------------------------------ CollapsePlan persistence

void CollapsePlan::serialize(std::ostream& os) const { os << serialize(); }

const std::string& CollapsePlan::serialize() const {
  std::call_once(record_once_, [this] {
    std::ostringstream os;
    write_record(os, nest(), params(), options(), solver_kinds());
    record_ = os.str();
  });
  return record_;
}

std::shared_ptr<const CollapsePlan> CollapsePlan::deserialize(std::istream& is) {
  serve::PlanRecord rec;
  if (!serve::read_plan_record(is, rec))
    throw ParseError("plan record: empty stream");
  auto plan = CollapsePlan::build(rec.nest, rec.params, rec.opts);
  if (plan->solver_kinds() != rec.solvers)
    throw SpecError(
        "plan record: recorded solver kinds do not match this build's lowering "
        "(corrupt record, or a snapshot taken by a build that lowers differently)");
  return plan;
}

std::shared_ptr<const CollapsePlan> CollapsePlan::deserialize(const std::string& s) {
  std::istringstream is(s);
  return deserialize(is);
}

// -------------------------------------------------- PlanCache persistence

size_t PlanCache::snapshot(std::ostream& os) const {
  os << "nrcsnap " << serve::kSnapshotFormatVersion << "\n";
  size_t n = 0;
  for (const auto& [key, plan] : completed_entries()) {
    os << "key " << key.size() << "\n" << key << "\n";
    plan->serialize(os);
    ++n;
  }
  return n;
}

size_t PlanCache::warm_start(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) return 0;  // an empty stream holds no plans
  if (line != "nrcsnap " + std::to_string(serve::kSnapshotFormatVersion))
    throw ParseError("snapshot: expected 'nrcsnap " +
                     std::to_string(serve::kSnapshotFormatVersion) + "', got '" + line + "'");
  size_t n = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream header(line);
    std::string kw;
    size_t len = 0;
    if (!(header >> kw >> len) || kw != "key" || len > serve::kMaxSnapshotKeyBytes)
      throw ParseError("snapshot: malformed key line '" + line + "'");
    std::string key(len, '\0');
    if (!is.read(key.data(), static_cast<std::streamsize>(len)) || is.get() != '\n')
      throw ParseError("snapshot: truncated key");
    serve::PlanRecord rec;
    if (!serve::read_plan_record(is, rec)) throw ParseError("snapshot: key without a plan");
    const GetResult r = get_keyed(key, [&rec] { return rec.nest; }, rec.params, rec.opts);
    if (r.plan->solver_kinds() != rec.solvers)
      throw SpecError(
          "warm_start: recorded solver kinds do not match this build's lowering");
    ++n;
  }
  return n;
}

}  // namespace nrc

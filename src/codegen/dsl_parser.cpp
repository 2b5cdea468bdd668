#include "codegen/dsl_parser.hpp"

#include <cctype>
#include <sstream>

#include "support/error.hpp"

namespace nrc {
namespace {

// ---------------------------------------------------------------------------
// Affine expression parser: expr := term (('+'|'-') term)*
//                           term := factor ('*' factor)*
//                           factor := INT | IDENT | '-' factor | '(' expr ')'
// with the affine restriction that a product has at most one non-constant
// operand.
// ---------------------------------------------------------------------------

struct AffParser {
  std::string_view s;
  size_t at = 0;

  void skip_ws() {
    while (at < s.size() && std::isspace(static_cast<unsigned char>(s[at]))) ++at;
  }

  bool eat(char c) {
    skip_ws();
    if (at < s.size() && s[at] == c) {
      ++at;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return at < s.size() ? s[at] : '\0';
  }

  [[noreturn]] void fail(const std::string& what) {
    throw ParseError("affine expression '" + std::string(s) + "': " + what + " at offset " +
                     std::to_string(at));
  }

  AffineExpr parse() {
    AffineExpr e = expr();
    skip_ws();
    if (at != s.size()) fail("trailing characters");
    return e;
  }

  AffineExpr expr() {
    AffineExpr acc = term();
    for (;;) {
      if (eat('+')) {
        acc += term();
      } else if (eat('-')) {
        acc -= term();
      } else {
        return acc;
      }
    }
  }

  AffineExpr term() {
    AffineExpr acc = factor();
    while (eat('*')) {
      const AffineExpr rhs = factor();
      if (acc.is_constant()) {
        acc = rhs * acc.constant_term();
      } else if (rhs.is_constant()) {
        acc = acc * rhs.constant_term();
      } else {
        fail("non-affine product of two variables");
      }
    }
    return acc;
  }

  AffineExpr factor() {
    skip_ws();
    if (eat('-')) return -factor();
    if (eat('(')) {
      AffineExpr e = expr();
      if (!eat(')')) fail("expected ')'");
      return e;
    }
    if (at < s.size() && std::isdigit(static_cast<unsigned char>(s[at]))) {
      i64 v = 0;
      while (at < s.size() && std::isdigit(static_cast<unsigned char>(s[at]))) {
        if (__builtin_mul_overflow(v, 10, &v) || __builtin_add_overflow(v, s[at] - '0', &v))
          fail("integer literal exceeds INT64_MAX");
        ++at;
      }
      return AffineExpr(v);
    }
    if (at < s.size() &&
        (std::isalpha(static_cast<unsigned char>(s[at])) || s[at] == '_')) {
      const size_t start = at;
      while (at < s.size() &&
             (std::isalnum(static_cast<unsigned char>(s[at])) || s[at] == '_'))
        ++at;
      return AffineExpr::variable(std::string(s.substr(start, at - start)));
    }
    fail("expected a number, identifier, '-' or '('");
  }
};

std::string strip(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string strip_comment(const std::string& line) {
  const size_t h = line.find('#');
  return h == std::string::npos ? line : line.substr(0, h);
}

/// "double a[N][N]" -> ArrayDecl
ArrayDecl parse_array_decl(const std::string& text, int lineno) {
  std::istringstream is(text);
  ArrayDecl d;
  if (!(is >> d.elem)) throw ParseError("line " + std::to_string(lineno) + ": array: missing type");
  std::string rest;
  std::getline(is, rest);
  rest = strip(rest);
  const size_t br = rest.find('[');
  if (br == std::string::npos)
    throw ParseError("line " + std::to_string(lineno) + ": array: missing dimensions");
  d.name = strip(rest.substr(0, br));
  if (d.name.empty())
    throw ParseError("line " + std::to_string(lineno) + ": array: missing name");
  size_t at = br;
  while (at < rest.size()) {
    if (rest[at] != '[')
      throw ParseError("line " + std::to_string(lineno) + ": array: expected '['");
    const size_t close = rest.find(']', at);
    if (close == std::string::npos)
      throw ParseError("line " + std::to_string(lineno) + ": array: missing ']'");
    d.dims.push_back(strip(rest.substr(at + 1, close - at - 1)));
    at = close + 1;
  }
  if (d.dims.empty())
    throw ParseError("line " + std::to_string(lineno) + ": array: no dimensions");
  return d;
}

}  // namespace

AffineExpr parse_affine(const std::string& text) {
  AffParser p{text};
  return p.parse();
}

NestSpec NestProgram::collapsed_nest() const {
  return nest.outer(effective_collapse_depth());
}

int NestProgram::effective_collapse_depth() const {
  return collapse_depth == 0 ? nest.depth() : collapse_depth;
}

std::string render_nest_program(const NestProgram& prog) {
  std::string s;
  s += "name " + prog.name + "\n";
  if (!prog.nest.params().empty()) {
    s += "params";
    for (const auto& p : prog.nest.params()) s += " " + p;
    s += "\n";
  }
  for (const auto& a : prog.arrays) {
    s += "array " + a.elem + " " + a.name;
    for (const auto& d : a.dims) s += "[" + d + "]";
    s += "\n";
  }
  for (const auto& l : prog.nest.loops())
    s += "loop " + l.var + " = " + l.lower.str() + " .. " + l.upper.str() + "\n";
  if (prog.collapse_depth > 0)
    s += "collapse " + std::to_string(prog.collapse_depth) + "\n";
  s += "body {\n" + prog.body + "\n}\n";
  return s;
}

NestProgram parse_nest_program(const std::string& text) {
  NestProgram prog;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  bool saw_body = false;

  while (std::getline(is, line)) {
    ++lineno;
    const std::string stripped = strip(strip_comment(line));
    if (stripped.empty()) continue;

    std::istringstream ls(stripped);
    std::string kw;
    ls >> kw;

    if (kw == "name") {
      ls >> prog.name;
      if (prog.name.empty()) throw ParseError("line " + std::to_string(lineno) + ": empty name");
    } else if (kw == "params") {
      std::string p;
      while (ls >> p) prog.nest.param(p);
    } else if (kw == "array") {
      std::string rest;
      std::getline(ls, rest);
      prog.arrays.push_back(parse_array_decl(strip(rest), lineno));
    } else if (kw == "loop") {
      // loop <var> = <affine> .. <affine>
      std::string var, eq;
      ls >> var >> eq;
      if (eq != "=")
        throw ParseError("line " + std::to_string(lineno) + ": loop: expected '='");
      std::string rest;
      std::getline(ls, rest);
      const size_t dots = rest.find("..");
      if (dots == std::string::npos)
        throw ParseError("line " + std::to_string(lineno) + ": loop: expected '..'");
      try {
        prog.nest.loop(var, parse_affine(strip(rest.substr(0, dots))),
                       parse_affine(strip(rest.substr(dots + 2))));
      } catch (const ParseError& e) {
        throw ParseError("line " + std::to_string(lineno) + ": " + e.what());
      }
    } else if (kw == "collapse") {
      if (!(ls >> prog.collapse_depth) || prog.collapse_depth < 1)
        throw ParseError("line " + std::to_string(lineno) + ": collapse: expected a positive count");
    } else if (kw == "body") {
      // Capture a brace-balanced block, possibly spanning lines.
      std::string tail;
      std::getline(ls, tail);
      std::string block = strip(tail);
      if (block.empty() || block[0] != '{')
        throw ParseError("line " + std::to_string(lineno) + ": body: expected '{'");
      int depth = 0;
      std::string captured;
      std::string cur = block;
      for (;;) {
        for (char ch : cur) {
          if (ch == '{') ++depth;
          if (ch == '}') --depth;
          captured += ch;
          if (depth == 0) break;
        }
        if (depth == 0) break;
        captured += '\n';
        if (!std::getline(is, cur)) {
          throw ParseError("line " + std::to_string(lineno) + ": body: unbalanced braces");
        }
        ++lineno;
      }
      // Strip the outermost braces.
      const size_t open = captured.find('{');
      const size_t close = captured.rfind('}');
      prog.body = strip(captured.substr(open + 1, close - open - 1));
      saw_body = true;
    } else {
      throw ParseError("line " + std::to_string(lineno) + ": unknown keyword '" + kw + "'");
    }
  }

  if (prog.nest.depth() == 0) throw ParseError("nest program has no loops");
  if (!saw_body) throw ParseError("nest program has no body");
  if (prog.collapse_depth > prog.nest.depth())
    throw ParseError("collapse depth exceeds nest depth");
  prog.nest.validate();
  return prog;
}

}  // namespace nrc

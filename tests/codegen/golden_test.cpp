// Golden outputs: Collapsed::describe() and emit_collapsed_function() on
// four nests (tests/golden/*.nest: triangle, Fig. 6 tetrahedron, the
// quartic simplex and its shifted twin) under the four collapse_tool
// styles must match the committed files byte for byte.  Neither output
// depends on the host, so the files hold on every build leg.
//
// The files are collapse_tool's own output; tests/golden/regen.sh
// rewrites them.  A change that moves them must say why.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "codegen/c_emitter.hpp"

namespace nrc {
namespace {

std::string read_golden(const std::string& file) {
  std::ifstream in(std::string(NRC_GOLDEN_DIR) + "/" + file);
  EXPECT_TRUE(in) << "missing golden file " << file;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(GoldenOutputs, DescribeAndEmitMatchTheCommittedFiles) {
  const std::pair<const char*, Schedule> styles[] = {
      {"thread", Schedule::per_thread()},
      {"iteration", Schedule::per_iteration()},
      {"chunk64", Schedule::chunked(64)},
      {"simd8", Schedule::simd_blocks(8)},
  };
  for (const std::string name : {"tri", "tet", "simplex4", "simplex4sh"}) {
    const NestProgram prog = parse_nest_program(read_golden(name + ".nest"));
    const Collapsed col = collapse(prog.collapsed_nest());
    EXPECT_EQ(col.describe(), read_golden(name + ".describe.txt")) << name;
    for (const auto& [style, schedule] : styles) {
      EmitOptions opt;
      opt.schedule = schedule;
      EXPECT_EQ(emit_collapsed_function(prog, col, opt),
                read_golden(name + "." + style + ".c"))
          << name << " --style=" << style;
    }
  }
}

}  // namespace
}  // namespace nrc

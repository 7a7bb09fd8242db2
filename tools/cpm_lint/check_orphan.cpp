// orphan: a src/ header that nothing outside tests/ includes, other than its
// own .cpp, is a module kept alive only by its own unit tests. The check
// reads the include graph of the scanned files, so it is only meaningful on
// a whole-tree scan (the default roots).
#include <set>
#include <string>

#include "check.h"
#include "checks.h"

namespace cpm_lint {
namespace {

const char kName[] = "orphan";

bool is_src_header(const std::string& rel) {
  return path_has_prefix(rel, "src/") && rel.ends_with(".h");
}

/// Where the finding goes: the `#pragma once` line, so a suppression sits
/// naturally above it; line 1 when there is none.
std::size_t report_line(const SourceFile& file) {
  for (const Token& tok : file.tokens) {
    if (tok.kind == TokKind::kPpDirective &&
        tok.text.find("pragma") != std::string::npos &&
        tok.text.find("once") != std::string::npos) {
      return tok.line;
    }
  }
  return 1;
}

class OrphanCheck final : public Check {
 public:
  std::string name() const override { return kName; }
  std::string description() const override {
    return "every src/ header is included by something outside tests/ "
           "other than its own .cpp";
  }

  void run(const SourceFile&, const ProjectContext&,
           std::vector<Finding>&) const override {}

  void run_project(const ProjectContext& ctx,
                   std::vector<Finding>& out) const override {
    std::set<std::string> used;
    for (const IncludeEdge& e : ctx.include_edges) {
      if (!is_src_header(e.to) || path_has_prefix(e.from, "tests/")) continue;
      const std::string own_cpp = e.to.substr(0, e.to.size() - 2) + ".cpp";
      if (e.from != own_cpp) used.insert(e.to);
    }
    for (const SourceFile& file : *ctx.files) {
      if (!is_src_header(file.rel_path) || used.count(file.rel_path) != 0) {
        continue;
      }
      add_finding(file, kName, report_line(file),
                  "orphan module: nothing outside tests/ includes `" +
                      file.rel_path +
                      "` except its own .cpp; give it a gated use or delete "
                      "it with its tests",
                  out);
    }
  }
};

}  // namespace

std::unique_ptr<Check> make_orphan_check() {
  return std::make_unique<OrphanCheck>();
}

}  // namespace cpm_lint

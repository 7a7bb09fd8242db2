#include "check.h"
#include "checks.h"

namespace cpm_lint {

void add_finding(const SourceFile& file, const std::string& check,
                 std::size_t line, std::string message,
                 std::vector<Finding>& out) {
  Finding f;
  f.check = check;
  f.rel_path = file.rel_path;
  f.line = line;
  f.message = std::move(message);
  f.line_text = file.line_text(line);
  out.push_back(std::move(f));
}

bool path_has_prefix(const std::string& rel_path, const std::string& prefix) {
  return rel_path.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::unique_ptr<Check>> all_checks() {
  std::vector<std::unique_ptr<Check>> checks;
  checks.push_back(make_determinism_check());
  checks.push_back(make_parallel_capture_check());
  checks.push_back(make_fp_repro_check());
  checks.push_back(make_layering_check());
  checks.push_back(make_units_check());
  checks.push_back(make_orphan_check());
  return checks;
}

}  // namespace cpm_lint

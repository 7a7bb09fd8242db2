// Per-family check factories (one translation unit per family).
#pragma once

#include <memory>

#include "check.h"

namespace cpm_lint {

std::unique_ptr<Check> make_determinism_check();
std::unique_ptr<Check> make_parallel_capture_check();
std::unique_ptr<Check> make_fp_repro_check();
std::unique_ptr<Check> make_layering_check();
std::unique_ptr<Check> make_units_check();
std::unique_ptr<Check> make_orphan_check();

}  // namespace cpm_lint

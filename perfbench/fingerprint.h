// The machine and build a result was measured on.
#pragma once

#include <string>

namespace perfbench {

/// JSON object: hardware_concurrency, cpu_model, build_type, asserts, simd
/// tier and compiler.
[[nodiscard]] std::string fingerprint_json();

}  // namespace perfbench

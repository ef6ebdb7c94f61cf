#include "fingerprint.h"

#include <cstring>
#include <sstream>
#include <thread>

#include "search/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

// From the processor itself rather than a system file, so the benchmark
// reads nothing outside its checkout.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

}  // namespace

std::string fingerprint_json() {
#if defined(RTDS_DISABLE_ASSERTS)
  constexpr bool asserts = false;
#else
  constexpr bool asserts = true;
#endif
  std::ostringstream os;
  os << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << cpu_model() << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"asserts\": "
     << (asserts ? "true" : "false") << ", \"simd\": \""
     << rtds::search::simd::backend_name() << "\", \"compiler\": \""
     << __VERSION__ << "\"}";
  return os.str();
}

}  // namespace perfbench

// Simulated-time types used throughout the library.
//
// All quantities from the paper (processing times p_i, communication cost C,
// scheduling quanta Q_s, deadlines d_i) are expressed on the simulated clock
// in integer microseconds. Integer ticks keep every experiment bit-for-bit
// reproducible; doubles would make the order of arrivals, phase boundaries
// and completions depend on summation order.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace rtds {

/// A duration on the simulated clock, in microseconds. Plain strong typedef:
/// arithmetic is explicit through the helpers below to avoid unit mistakes.
struct SimDuration {
  std::int64_t us{0};

  constexpr auto operator<=>(const SimDuration&) const = default;

  constexpr SimDuration operator+(SimDuration o) const { return {us + o.us}; }
  constexpr SimDuration operator-(SimDuration o) const { return {us - o.us}; }
  constexpr SimDuration& operator+=(SimDuration o) {
    us += o.us;
    return *this;
  }
  constexpr SimDuration& operator-=(SimDuration o) {
    us -= o.us;
    return *this;
  }
  constexpr SimDuration operator*(std::int64_t k) const { return {us * k}; }
  constexpr std::int64_t operator/(SimDuration o) const { return us / o.us; }
  constexpr SimDuration operator/(std::int64_t k) const { return {us / k}; }
  constexpr SimDuration operator-() const { return {-us}; }

  [[nodiscard]] constexpr bool is_zero() const { return us == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return us < 0; }
  [[nodiscard]] constexpr double seconds() const { return double(us) * 1e-6; }
  [[nodiscard]] constexpr double millis() const { return double(us) * 1e-3; }

  static constexpr SimDuration zero() { return {0}; }
  static constexpr SimDuration max() {
    return {std::numeric_limits<std::int64_t>::max()};
  }
};

/// An instant on the simulated clock (microseconds since simulation start).
struct SimTime {
  std::int64_t us{0};

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(SimDuration d) const { return {us + d.us}; }
  constexpr SimTime operator-(SimDuration d) const { return {us - d.us}; }
  constexpr SimDuration operator-(SimTime o) const { return {us - o.us}; }
  constexpr SimTime& operator+=(SimDuration d) {
    us += d.us;
    return *this;
  }

  static constexpr SimTime zero() { return {0}; }
  static constexpr SimTime max() {
    return {std::numeric_limits<std::int64_t>::max()};
  }
};

constexpr SimDuration usec(std::int64_t v) { return {v}; }
constexpr SimDuration msec(std::int64_t v) { return {v * 1000}; }
constexpr SimDuration sec(std::int64_t v) { return {v * 1'000'000}; }

constexpr SimDuration max_duration(SimDuration a, SimDuration b) {
  return a < b ? b : a;
}
constexpr SimDuration min_duration(SimDuration a, SimDuration b) {
  return a < b ? a : b;
}
constexpr SimDuration clamp_duration(SimDuration v, SimDuration lo,
                                     SimDuration hi) {
  return v < lo ? lo : (hi < v ? hi : v);
}

inline std::string to_string(SimDuration d) {
  return std::to_string(d.us) + "us";
}
inline std::string to_string(SimTime t) {
  return "t+" + std::to_string(t.us) + "us";
}

}  // namespace rtds

// Log-linear histogram of non-negative integer samples, in fixed memory.
//
// Values below 2^11 = 2048 are counted exactly, one slot per value. Above
// that, each range [2^(10+k), 2^(11+k)) is split into 2^10 slots of width
// 2^k, so a slot is never wider than 2^-10 of the values it holds. Values of
// 2^42 or more are counted as overflow. The slots take a fixed 264 KiB
// however many samples arrive, and no range has to be guessed up front.
//
// A quantile is the grouped-data estimate of the nearest-rank sample (the
// ceil(q * n)-th smallest): the slot holding that rank, with integer value v
// taken to cover [v - 0.5, v + 0.5) and the rank interpolated linearly
// across the slot's samples. It is never further than
// max(0.5, relative_error() * x) from the exact nearest-rank sample x.
#pragma once

#include <cstdint>
#include <vector>

namespace rtds {

class Histogram {
 public:
  /// Values below 2^kSubBits are counted exactly.
  static constexpr unsigned kSubBits = 11;
  /// Values of 2^kMaxBits or more are counted as overflow.
  static constexpr unsigned kMaxBits = 42;

  Histogram();

  void add(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

  /// Largest relative width of a slot: 2^(1 - kSubBits) = 2^-10.
  [[nodiscard]] static constexpr double relative_error() {
    return 1.0 / double(std::uint64_t{1} << (kSubBits - 1));
  }

  /// Grouped-data estimate of the q quantile (see above), q in [0, 1]. A
  /// rank that falls among the overflow samples reads 2^kMaxBits. Requires
  /// a non-empty histogram.
  [[nodiscard]] double quantile(double q) const;

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::vector<std::uint64_t> slots_;
  std::uint64_t count_{0};
  std::uint64_t overflow_{0};
};

}  // namespace rtds

// Log-linear histogram of non-negative integers with fixed memory.
//
// With s sub-bits, values below 2^s are counted exactly, one slot per
// value. Above that, the range [2^(s+k-1), 2^(s+k)) is split into 2^(s-1)
// slots of width 2^k, so a slot is never wider than 2^(1-s) of the values
// it holds. Memory is fixed at construction and does not grow with the
// number of samples.
//
// A quantile is the grouped-data estimate: the slot holding the
// nearest-rank sample, with integer value v taken to cover [v-0.5, v+0.5)
// and the rank interpolated linearly across the slot's samples. So a
// quantile that falls inside a run of equal values still says where in the
// run it fell, and it is never further than max(0.5, relative_error() * x)
// from the exact nearest-rank sample x.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class LogLinearHistogram {
 public:
  /// Largest value counted in a slot is below 2^kMaxBits; larger ones are
  /// counted as overflow.
  static constexpr unsigned kMaxBits = 42;

  explicit LogLinearHistogram(unsigned sub_bits = 11)
      : sub_bits_(sub_bits),
        slots_((std::size_t{1} << sub_bits) +
               (kMaxBits - sub_bits) * (std::size_t{1} << (sub_bits - 1))) {}

  [[nodiscard]] double relative_error() const {
    return std::ldexp(1.0, 1 - int(sub_bits_));
  }

  void add(std::uint64_t v) {
    ++count_;
    if (std::bit_width(v) > kMaxBits) {
      ++overflow_;
      return;
    }
    ++slots_[index(v)];
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

  /// Nearest-rank position of quantile q: the ceil(q * n)-th smallest.
  [[nodiscard]] std::uint64_t rank(double q) const {
    const auto r = static_cast<std::uint64_t>(std::ceil(q * double(count_)));
    return std::max<std::uint64_t>(r, 1);
  }

  /// Samples strictly above the q quantile's rank.
  [[nodiscard]] std::uint64_t beyond(double q) const {
    return count_ - std::min(count_, rank(q));
  }

  /// Grouped-data estimate of the q quantile (see above); 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    const std::uint64_t target = rank(q);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (seen + slots_[i] >= target) {
        const double within =
            (double(target - seen) - 0.5) / double(slots_[i]);
        return double(slot_low(i)) - 0.5 + within * double(slot_width(i));
      }
      seen += slots_[i];
    }
    return 0.0;
  }

 private:
  [[nodiscard]] std::size_t index(std::uint64_t v) const {
    const unsigned width = static_cast<unsigned>(std::bit_width(v));
    if (width <= sub_bits_) return static_cast<std::size_t>(v);
    const unsigned k = width - sub_bits_;
    const std::size_t half = std::size_t{1} << (sub_bits_ - 1);
    return 2 * half + (k - 1) * half +
           static_cast<std::size_t>((v >> k) - half);
  }

  /// Shift k of slot i: it holds 2^k consecutive values (k = 0 when exact).
  [[nodiscard]] unsigned slot_shift(std::size_t i) const {
    const std::size_t half = std::size_t{1} << (sub_bits_ - 1);
    return i < 2 * half ? 0 : static_cast<unsigned>((i - 2 * half) / half + 1);
  }

  [[nodiscard]] std::uint64_t slot_low(std::size_t i) const {
    const std::size_t half = std::size_t{1} << (sub_bits_ - 1);
    if (i < 2 * half) return i;
    return std::uint64_t(half + (i - 2 * half) % half) << slot_shift(i);
  }

  [[nodiscard]] std::uint64_t slot_width(std::size_t i) const {
    return std::uint64_t{1} << slot_shift(i);
  }

  unsigned sub_bits_;
  std::vector<std::uint64_t> slots_;
  std::uint64_t count_{0};
  std::uint64_t overflow_{0};
};

}  // namespace perfbench

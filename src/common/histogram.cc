#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.h"

namespace rtds {
namespace {

constexpr std::size_t kHalf = std::size_t{1} << (Histogram::kSubBits - 1);
constexpr std::size_t kExact = 2 * kHalf;  // slots counting one value each
constexpr std::size_t kSlots =
    kExact + (Histogram::kMaxBits - Histogram::kSubBits) * kHalf;

/// Slot of a value below 2^kMaxBits.
std::size_t slot_of(std::uint64_t v) {
  const auto width = static_cast<unsigned>(std::bit_width(v));
  if (width <= Histogram::kSubBits) return static_cast<std::size_t>(v);
  const unsigned k = width - Histogram::kSubBits;
  return kExact + (k - 1) * kHalf + static_cast<std::size_t>((v >> k) - kHalf);
}

/// Slot i holds the 2^shift consecutive values from its low value on.
unsigned slot_shift(std::size_t i) {
  return i < kExact ? 0 : static_cast<unsigned>((i - kExact) / kHalf + 1);
}

std::uint64_t slot_low(std::size_t i) {
  if (i < kExact) return i;
  return std::uint64_t(kHalf + (i - kExact) % kHalf) << slot_shift(i);
}

}  // namespace

Histogram::Histogram() : slots_(kSlots, 0) {}

void Histogram::add(std::uint64_t v) {
  ++count_;
  if (std::bit_width(v) > kMaxBits) {
    ++overflow_;
    return;
  }
  ++slots_[slot_of(v)];
}

double Histogram::quantile(double q) const {
  RTDS_REQUIRE(count_ > 0, "quantile: empty histogram");
  RTDS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile: q outside [0,1]");
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * double(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (seen + slots_[i] >= rank) {
      const double within = (double(rank - seen) - 0.5) / double(slots_[i]);
      return double(slot_low(i)) - 0.5 +
             within * double(std::uint64_t{1} << slot_shift(i));
    }
    seen += slots_[i];
  }
  return std::ldexp(1.0, kMaxBits);
}

}  // namespace rtds

#include "workload/arrival_pattern.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace p2ps::workload {

std::string_view to_string(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kConstant: return "pattern-1-constant";
    case ArrivalPattern::kRampUpDown: return "pattern-2-ramp";
    case ArrivalPattern::kBurstThenConstant: return "pattern-3-burst";
    case ArrivalPattern::kPeriodicBursts: return "pattern-4-periodic";
  }
  return "pattern-?";
}

namespace {

std::vector<RatePiece> pieces_for(ArrivalPattern pattern, util::SimTime window) {
  const std::int64_t wms = window.as_millis();
  auto span = [&](double fraction) {
    return util::SimTime::millis(static_cast<std::int64_t>(
        std::llround(fraction * static_cast<double>(wms))));
  };

  std::vector<RatePiece> pieces;
  switch (pattern) {
    case ArrivalPattern::kConstant:
      pieces.push_back({window, 1.0});
      break;

    case ArrivalPattern::kRampUpDown: {
      // Twelve equal steps whose heights trace a triangle peaking mid-window
      // ("gradually increasing, then gradually decreasing arrivals").
      constexpr int kSteps = 12;
      for (int i = 0; i < kSteps; ++i) {
        const double height = static_cast<double>(i < kSteps / 2 ? i + 1 : kSteps - i);
        pieces.push_back({span(1.0 / kSteps), height});
      }
      break;
    }

    case ArrivalPattern::kBurstThenConstant:
      // 40% of all arrivals in the first 1/12 of the window (a flash crowd),
      // the remaining 60% at a low constant rate.
      pieces.push_back({span(1.0 / 12.0), 0.4});
      pieces.push_back({span(11.0 / 12.0), 0.6});
      break;

    case ArrivalPattern::kPeriodicBursts: {
      // Six 12-hour cycles (for a 72 h window): a 2-hour burst carrying 10%
      // of all arrivals, then a 10-hour low constant floor carrying ~6.7%.
      constexpr int kCycles = 6;
      for (int i = 0; i < kCycles; ++i) {
        pieces.push_back({span(1.0 / 36.0), 0.6 / kCycles});   // 2 h of a 72 h window
        pieces.push_back({span(5.0 / 36.0), 0.4 / kCycles});   // 10 h floor
      }
      break;
    }
  }

  // Rounding of spans can leave the final piece a few ms short; absorb the
  // remainder there so the pieces tile the window exactly.
  std::int64_t covered = 0;
  for (const auto& piece : pieces) covered += piece.duration.as_millis();
  P2PS_CHECK(!pieces.empty());
  pieces.back().duration += util::SimTime::millis(wms - covered);
  return pieces;
}

}  // namespace

ArrivalSchedule ArrivalSchedule::make(ArrivalPattern pattern, std::int64_t total,
                                      util::SimTime window) {
  P2PS_REQUIRE(total >= 0);
  P2PS_REQUIRE(window > util::SimTime::zero());
  return ArrivalSchedule(pieces_for(pattern, window), total);
}

ArrivalSchedule ArrivalSchedule::from_pieces(std::vector<RatePiece> pieces,
                                             std::int64_t total) {
  P2PS_REQUIRE(total >= 0);
  P2PS_REQUIRE(!pieces.empty());
  return ArrivalSchedule(std::move(pieces), total);
}

ArrivalSchedule ArrivalSchedule::make_lazy(ArrivalPattern pattern,
                                           std::int64_t total,
                                           util::SimTime window) {
  P2PS_REQUIRE(total >= 0);
  P2PS_REQUIRE(window > util::SimTime::zero());
  return ArrivalSchedule(pieces_for(pattern, window), total, /*lazy=*/true);
}

const std::vector<util::SimTime>& ArrivalSchedule::times() const {
  P2PS_REQUIRE_MSG(!lazy_, "times() is unavailable on a lazy schedule");
  return times_;
}

ArrivalSchedule::ArrivalSchedule(std::vector<RatePiece> pieces, std::int64_t total,
                                 bool lazy)
    : pieces_(std::move(pieces)), total_(total), lazy_(lazy) {
  double weight_sum = 0.0;
  for (const auto& piece : pieces_) {
    P2PS_REQUIRE(piece.duration > util::SimTime::zero());
    P2PS_REQUIRE(piece.weight >= 0.0);
    weight_sum += piece.weight;
    window_ += piece.duration;
  }
  P2PS_REQUIRE_MSG(weight_sum > 0.0, "arrival pattern carries no weight");
  for (auto& piece : pieces_) piece.weight /= weight_sum;

  // Arrival placement: arrival i sits at the evenly spaced quantile
  // q = (i+0.5)/total of the piecewise-linear CDF, inverted exactly within
  // its piece (quantile_time), so the cumulative curve is exact. Lazy mode
  // materialises nothing: placement is a pure function of the index, so
  // arrival_at computes it on demand.
  if (lazy_) return;
  times_.reserve(static_cast<std::size_t>(total));
  for (std::int64_t i = 0; i < total; ++i) {
    times_.push_back(
        quantile_time((static_cast<double>(i) + 0.5) / static_cast<double>(total)));
  }
  P2PS_ENSURE(std::is_sorted(times_.begin(), times_.end()));
  P2PS_ENSURE(times_.empty() || times_.back() < window_);
}

util::SimTime ArrivalSchedule::quantile_time(double q) const {
  double cdf_before = 0.0;
  util::SimTime piece_start = util::SimTime::zero();
  std::size_t piece_index = 0;
  while (piece_index + 1 < pieces_.size() &&
         cdf_before + pieces_[piece_index].weight <= q) {
    cdf_before += pieces_[piece_index].weight;
    piece_start += pieces_[piece_index].duration;
    ++piece_index;
  }
  const RatePiece& piece = pieces_[piece_index];
  const double within = piece.weight > 0.0 ? (q - cdf_before) / piece.weight : 0.0;
  const auto offset_ms = static_cast<std::int64_t>(
      std::floor(within * static_cast<double>(piece.duration.as_millis())));
  return piece_start + util::SimTime::millis(offset_ms);
}

double ArrivalSchedule::rate_per_hour_at(util::SimTime t) const {
  if (t < util::SimTime::zero() || t >= window_) return 0.0;
  util::SimTime start = util::SimTime::zero();
  for (const auto& piece : pieces_) {
    if (t < start + piece.duration) {
      const double arrivals = piece.weight * static_cast<double>(total_);
      return arrivals / piece.duration.as_hours();
    }
    start += piece.duration;
  }
  return 0.0;
}

util::SimTime ArrivalSchedule::arrival_at(std::int64_t index) const {
  P2PS_REQUIRE(index >= 0 && index < total());
  if (lazy_) {
    return quantile_time((static_cast<double>(index) + 0.5) /
                         static_cast<double>(total_));
  }
  return times_[static_cast<std::size_t>(index)];
}

std::optional<util::SimTime> ArrivalCursor::next_arrival() {
  if (consumed_ >= schedule_->total()) return std::nullopt;
  return schedule_->arrival_at(consumed_++);
}

std::optional<util::SimTime> ArrivalCursor::peek() const {
  if (consumed_ >= schedule_->total()) return std::nullopt;
  return schedule_->arrival_at(consumed_);
}

std::int64_t ArrivalCursor::remaining() const {
  return schedule_->total() - consumed_;
}

std::int64_t ArrivalSchedule::arrivals_between(util::SimTime from, util::SimTime to) const {
  if (lazy_) {
    // Bisect on the index instead of the (unmaterialised) times; arrival
    // times are nondecreasing in the index, so this matches the eager
    // lower_bound exactly.
    const auto first_at_or_after = [this](util::SimTime t) {
      std::int64_t lo = 0;
      std::int64_t hi = total_;
      while (lo < hi) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        if (arrival_at(mid) < t) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    };
    return first_at_or_after(to) - first_at_or_after(from);
  }
  const auto lo = std::lower_bound(times_.begin(), times_.end(), from);
  const auto hi = std::lower_bound(times_.begin(), times_.end(), to);
  return hi - lo;
}

}  // namespace p2ps::workload

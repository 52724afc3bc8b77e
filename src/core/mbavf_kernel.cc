/**
 * @file
 * The portable build of the lane-per-prefix sweep kernel
 * (core/lane_kernel.hh), plus the out-of-line accumulator machinery
 * both builds share.
 *
 * Compiled without SIMD flags on purpose: the accumulator methods
 * are called from both builds, so their one definition must stay
 * portable (see the note in mbavf_kernel.hh).
 */

#include "core/mbavf_kernel.hh"

#include "core/lane_kernel.hh"

#include <algorithm>

namespace mbavf
{
namespace detail
{

OutcomeAccumulator::OutcomeAccumulator(Cycle horizon,
                                       unsigned num_windows)
    : horizon_(horizon), numWindows_(num_windows)
{
    if (num_windows) {
        windows_.resize(std::size_t(num_windows) * 3, 0);
        // Cache the exact integer boundaries: the 128-bit
        // division is far too hot to repeat inside add().
        bounds_.resize(std::size_t(num_windows) + 1);
        for (unsigned w = 0; w <= num_windows; ++w) {
            bounds_[w] = static_cast<Cycle>(
                static_cast<unsigned __int128>(horizon_) * w /
                num_windows);
        }
    }
}

void
OutcomeAccumulator::add(Outcome outcome, Cycle begin, Cycle end)
{
    if (outcome == Outcome::Unace || end <= begin)
        return;
    unsigned idx = classIndex(outcome);
    totals_[idx] += end - begin;
    if (!numWindows_)
        return;
    // Runs cluster in time, so the window that absorbed the last
    // run usually contains this one whole — check it before the
    // binary searches.
    if (bounds_[hint_] <= begin && end <= bounds_[hint_ + 1]) {
        windows_[std::size_t(hint_) * 3 + idx] += end - begin;
        return;
    }
    // Split the slice across windows (binary search over the
    // cached exact boundaries).
    auto window_of = [this](Cycle t) {
        const auto it = std::upper_bound(bounds_.begin() + 1,
                                         bounds_.end(), t);
        return static_cast<unsigned>(it - bounds_.begin()) - 1;
    };
    unsigned w0 = window_of(begin);
    unsigned w1 = window_of(end - 1);
    w1 = std::min(w1, numWindows_ - 1);
    for (unsigned w = w0; w <= w1; ++w) {
        Cycle lo = std::max(begin, bound(w));
        Cycle hi = std::min(end, bound(w + 1));
        if (lo < hi)
            windows_[std::size_t(w) * 3 + idx] += hi - lo;
    }
    hint_ = w1;
}

void
OutcomeAccumulator::addRaw(unsigned idx, Cycle amount)
{
    totals_[idx] += amount;
}

void
OutcomeAccumulator::addWindowRaw(unsigned window, unsigned idx,
                                 Cycle amount)
{
    windows_[std::size_t(window) * 3 + idx] += amount;
}

void
OutcomeAccumulator::mergeFrom(const OutcomeAccumulator &other)
{
    for (unsigned i = 0; i < 3; ++i)
        totals_[i] += other.totals_[i];
    for (std::size_t i = 0; i < windows_.size(); ++i)
        windows_[i] += other.windows_[i];
}

ModeAccumulators::ModeAccumulators(Cycle horizon, unsigned num_windows,
                                   unsigned max_mode)
{
    modes.reserve(max_mode);
    for (unsigned m = 0; m < max_mode; ++m)
        modes.emplace_back(horizon, num_windows);
}

void
sweepRowsPortable(const SweepCtx &ctx, std::uint64_t row_begin,
                  std::uint64_t row_end, ModeAccumulators &out,
                  SweepTallies &tallies)
{
    sweepRowsLanes(ctx, row_begin, row_end, out, tallies);
}

void
ModeAccumulators::mergeFrom(const ModeAccumulators &other)
{
    for (std::size_t m = 0; m < modes.size(); ++m)
        modes[m].mergeFrom(other.modes[m]);
}

} // namespace detail
} // namespace mbavf

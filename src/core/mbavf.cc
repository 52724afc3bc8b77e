#include "core/mbavf.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/ace_class.hh"
#include "core/group_sweep.hh"
#include "core/mbavf_kernel.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"

namespace mbavf
{

// The accumulators are shared with the sweep-kernel translation units
// (core/mbavf_kernel.hh).
using detail::maxModeBits;
using detail::ModeAccumulators;
using detail::OutcomeAccumulator;

namespace
{

/**
 * Turn @p acc's group-cycles into @p result's AVF fractions. A mode
 * with no groups keeps its zeroed result and no window series.
 */
void
finishResult(MbAvfResult &result, const OutcomeAccumulator &acc)
{
    if (result.numGroups == 0)
        return;
    const double groups = static_cast<double>(result.numGroups);
    const double denom = groups * static_cast<double>(result.horizon);
    result.cycles = acc.totals();
    result.avf.sdc = acc.totals()[0] / denom;
    result.avf.trueDue = acc.totals()[1] / denom;
    result.avf.falseDue = acc.totals()[2] / denom;
    result.windows.resize(acc.numWindows());
    for (unsigned w = 0; w < acc.numWindows(); ++w) {
        const double wd =
            static_cast<double>(acc.bound(w + 1) - acc.bound(w)) * groups;
        result.windows[w].sdc = acc.windowTotal(w, 0) / wd;
        result.windows[w].trueDue = acc.windowTotal(w, 1) / wd;
        result.windows[w].falseDue = acc.windowTotal(w, 2) / wd;
    }
}

} // namespace

MbAvfResult
computeMbAvf(const PhysicalArray &array, const LifetimeStore &store,
             const ProtectionScheme &scheme, const FaultMode &mode,
             const MbAvfOptions &opt)
{
    if (opt.horizon == 0)
        fatal("MB-AVF horizon must be nonzero");
    if (mode.size() > maxModeBits)
        fatal("fault mode larger than ", maxModeBits, " bits");

    obs::ObsPhase obs_phase("avf.mode");
    static const obs::Counter groups_counter =
        obs::MetricsRegistry::global().counter("avf.groups_swept");

    MbAvfResult result;
    result.horizon = opt.horizon;
    result.numGroups = mode.numGroups(array.rows(), array.cols());
    const OutcomeAccumulator acc = detail::sweepAnchorRows(
        array, store, scheme, mode, opt,
        OutcomeAccumulator(opt.horizon, opt.numWindows), groups_counter);
    finishResult(result, acc);
    return result;
}

MbAvfResult
computeSbAvf(const PhysicalArray &array, const LifetimeStore &store,
             const ProtectionScheme &scheme, const MbAvfOptions &opt)
{
    return computeMbAvf(array, store, scheme, FaultMode::mx1(1), opt);
}

namespace detail
{

std::vector<MbAvfResult>
computeMbAvfModes(const PhysicalArray &array, const LifetimeArena &arena,
                  const ProtectionScheme &scheme, const MbAvfOptions &opt,
                  unsigned max_mode, RowSweepFn sweep_rows)
{
    if (opt.horizon == 0)
        fatal("MB-AVF horizon must be nonzero");
    if (max_mode == 0 || max_mode > maxModeBits)
        fatal("multi-mode sweep needs 1..", maxModeBits, " modes");

    obs::ObsPhase obs_phase("avf.multi");
    static const obs::Counter groups_counter =
        obs::MetricsRegistry::global().counter("avf.groups_swept");
    static const obs::Counter anchors_counter =
        obs::MetricsRegistry::global().counter(
            "avf.multi.anchors_swept");

    const std::uint64_t rows = array.rows();
    const std::uint64_t cols = array.cols();
    const Cycle horizon = opt.horizon;

    std::vector<MbAvfResult> results(max_mode);
    for (unsigned m = 1; m <= max_mode; ++m) {
        results[m - 1].horizon = horizon;
        results[m - 1].numGroups =
            m <= cols ? rows * (cols - m + 1) : 0;
    }
    if (rows == 0 || cols == 0)
        return results;

    // The protection action of a region depends only on its member
    // count; memoize the virtual calls once for the whole sweep.
    std::array<FaultAction, maxModeBits + 1> action_of{};
    for (unsigned k = 1; k <= max_mode; ++k)
        action_of[k] = scheme.action(k);

    SweepCtx ctx;
    ctx.array = &array;
    ctx.arena = &arena;
    ctx.horizon = horizon;
    ctx.dueShields = opt.dueShieldsSdc;
    ctx.maxMode = max_mode;
    ctx.actionOf = action_of.data();

    // Sweep anchor rows [row_begin, row_end) into per-mode
    // accumulators. Every anchor column grows the group from 1 to
    // min(max_mode, cols - c) members; modes wider than the
    // remaining columns have no group at this anchor (and none at
    // all when wider than the array).
    auto sweep_band = [&](std::uint64_t row_begin,
                          std::uint64_t row_end,
                          ModeAccumulators &out) {
        SweepTallies tallies;
        sweep_rows(ctx, row_begin, row_end, out, tallies);
        groups_counter.add(tallies.groups);
        anchors_counter.add(tallies.anchors);
    };

    ModeAccumulators acc(horizon, opt.numWindows, max_mode);
    if (opt.numThreads == 1) {
        sweep_band(0, rows, acc);
    } else {
        // Same row-band decomposition and ordered merge as the
        // per-mode path: chunking depends only on the range, partials
        // fold in band order, sums are exact integers.
        ensureParallelThreads(opt.numThreads);
        const std::uint64_t grain =
            std::max<std::uint64_t>(1, rows / 64);
        acc = mapReduce(
            std::uint64_t(0), rows, grain,
            ModeAccumulators(horizon, opt.numWindows, max_mode),
            [&](std::uint64_t lo, std::uint64_t hi) {
                ModeAccumulators part(horizon, opt.numWindows,
                                      max_mode);
                sweep_band(lo, hi, part);
                return part;
            },
            [](ModeAccumulators &into, ModeAccumulators &&part) {
                into.mergeFrom(part);
            });
    }

    for (unsigned m = 1; m <= max_mode; ++m)
        finishResult(results[m - 1], acc.modes[m - 1]);
    return results;
}

} // namespace detail

std::vector<MbAvfResult>
computeMbAvfModes(const PhysicalArray &array, const LifetimeArena &arena,
                  const ProtectionScheme &scheme, const MbAvfOptions &opt,
                  unsigned max_mode)
{
    return detail::computeMbAvfModes(
        array, arena, scheme, opt, max_mode,
        detail::avx2KernelAvailable() ? detail::sweepRowsAvx2
                                      : detail::sweepRowsPortable);
}

} // namespace mbavf

#include "core/mbavf.hh"

#include <algorithm>
#include <array>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/ace_class.hh"
#include "core/group_sweep.hh"
#include "core/lifetime_arena.hh"
#include "core/mbavf_kernel.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"

namespace mbavf
{

// The classification helpers and accumulators are shared with the
// AVX2 kernel translation unit (core/mbavf_kernel.hh).
using detail::classifyRegion;
using detail::combineOutcomes;
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

namespace
{

using detail::BitEvent;

/** The bits of one arena word touched by the current anchor row. */
struct WordGroup
{
    std::uint32_t word = LifetimeArena::noWord;
    std::uint64_t mask = 0;
    /** (bit position in word, anchor-row column) pairs. */
    std::vector<std::pair<unsigned, std::uint32_t>> bits;
};

struct ArenaBit
{
    std::uint32_t word = LifetimeArena::noWord;
    std::uint32_t bitInWord = 0;
    DomainId domain = invalidDomain;
};

} // namespace

std::vector<MbAvfResult>
computeMbAvfModes(const PhysicalArray &array, const LifetimeArena &arena,
                  const ProtectionScheme &scheme, const MbAvfOptions &opt,
                  unsigned max_mode)
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
    const bool due_shields = opt.dueShieldsSdc;

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

    // Kernel selection: the AVX2 lane-per-prefix kernel when it is
    // compiled in and the CPU supports it, else the scalar kernel
    // below. Both are bit-identical; scalarKernel pins the scalar
    // path for differential testing and benchmarking. A single-mode
    // sweep stays scalar — one useful lane cannot amortize the
    // vector bookkeeping.
    const bool use_simd = !opt.scalarKernel && max_mode > 1 &&
                          detail::avx2KernelAvailable();

    // Sweep anchor rows [row_begin, row_end) into per-mode
    // accumulators. Every anchor column grows the group from 1 to
    // min(max_mode, cols - c) members; modes wider than the
    // remaining columns have no group at this anchor (and none at
    // all when wider than the array).
    auto sweep_rows = [&](std::uint64_t row_begin,
                          std::uint64_t row_end,
                          ModeAccumulators &out) {
        if (use_simd) {
            detail::SweepCtx ctx;
            ctx.array = &array;
            ctx.arena = &arena;
            ctx.horizon = horizon;
            ctx.dueShields = due_shields;
            ctx.maxMode = max_mode;
            ctx.actionOf = action_of.data();
            detail::SweepTallies tallies;
            detail::sweepRowsAvx2(ctx, row_begin, row_end, out,
                                  tallies);
            groups_counter.add(tallies.groups);
            anchors_counter.add(tallies.anchors);
            return;
        }
        const Cycle *seg_begin = arena.begins();
        const Cycle *seg_end = arena.ends();
        const SegMasks *seg_masks = arena.masks();

        std::vector<ArenaBit> row(cols);
        // col_events[c] is the change timeline of column c's bit,
        // rebuilt once per row with a single scan of each unique
        // word's flat segments. Anchors then merge their members'
        // (short) per-bit lists instead of re-walking raw segment
        // lists whose boundaries mostly belong to other bits.
        std::vector<std::vector<BitEvent>> col_events(cols);
        std::vector<WordGroup> groups;
        std::array<std::uint32_t, 64> col_of{};

        // Per-anchor scratch: member sweep cursors and states, the
        // member -> region map, and the per-slice region state. All
        // bounded by maxModeBits.
        std::array<std::uint32_t, maxModeBits> cursor;
        std::array<std::uint8_t, maxModeBits> member_live;
        std::array<std::uint8_t, maxModeBits> member_read;
        std::array<unsigned, maxModeBits> memberRegion;
        std::array<FaultAction, maxModeBits> memberAction;
        std::array<DomainId, maxModeBits> domains;
        std::array<unsigned, maxModeBits> region_size;
        std::array<bool, maxModeBits> region_live;
        std::array<bool, maxModeBits> region_read;
        std::array<Outcome, maxModeBits> region_out;
        std::array<Outcome, maxModeBits> mode_out;
        std::array<Cycle, maxModeBits> mode_since;

        std::uint64_t groups_swept = 0;
        std::uint64_t anchors_swept = 0;

        for (std::uint64_t r = row_begin; r < row_end; ++r) {
            // Resolve the row once for all modes and anchors, and
            // group its bits by arena word.
            std::size_t num_groups = 0;
            for (std::uint64_t c = 0; c < cols; ++c) {
                PhysBit pb = array.at(r, c);
                ArenaBit &b = row[c];
                unsigned bit = 0;
                b.word = arena.findBit(pb.container,
                                       pb.bitInContainer, bit);
                b.bitInWord = bit;
                b.domain = pb.domain;
                col_events[c].clear();
                if (b.word == LifetimeArena::noWord)
                    continue;
                // Consecutive columns usually share a word; check
                // the open group before scanning the rest.
                std::size_t g = num_groups;
                if (num_groups &&
                    groups[num_groups - 1].word == b.word) {
                    g = num_groups - 1;
                } else {
                    for (g = 0; g < num_groups; ++g) {
                        if (groups[g].word == b.word)
                            break;
                    }
                }
                if (g == num_groups) {
                    if (groups.size() <= g)
                        groups.emplace_back();
                    groups[g].word = b.word;
                    groups[g].mask = 0;
                    groups[g].bits.clear();
                    ++num_groups;
                }
                groups[g].mask |= std::uint64_t(1) << b.bitInWord;
                groups[g].bits.emplace_back(
                    b.bitInWord, static_cast<std::uint32_t>(c));
            }

            // One pass over each word's segments: project onto the
            // row's bits and append a BitEvent to the owning column
            // wherever that bit's (live, read) state changes. Spans
            // between a bit's events classify identically, and a
            // zero state is the same as a lifetime gap.
            for (std::size_t g = 0; g < num_groups; ++g) {
                const WordGroup &wg = groups[g];
                for (const auto &[bit, col] : wg.bits)
                    col_of[bit] = col;
                std::uint64_t prev_ace = 0, prev_read = 0;
                Cycle state_end = 0;
                auto emit = [&](Cycle at, std::uint64_t ace,
                                std::uint64_t read) {
                    std::uint64_t diff =
                        (prev_ace ^ ace) | (prev_read ^ read);
                    while (diff) {
                        const unsigned b = static_cast<unsigned>(
                            std::countr_zero(diff));
                        diff &= diff - 1;
                        col_events[col_of[b]].push_back(
                            {at,
                             static_cast<std::uint8_t>((ace >> b) & 1),
                             static_cast<std::uint8_t>((read >> b) &
                                                       1)});
                    }
                    prev_ace = ace;
                    prev_read = read;
                };
                const std::uint32_t lo = arena.offset(wg.word);
                const std::uint32_t hi = lo + arena.count(wg.word);
                for (std::uint32_t s = lo; s < hi; ++s) {
                    if (seg_begin[s] >= horizon)
                        break;
                    if ((prev_ace | prev_read) &&
                        seg_begin[s] > state_end) {
                        emit(state_end, 0, 0);
                    }
                    emit(seg_begin[s], seg_masks[s].ace & wg.mask,
                         seg_masks[s].read & wg.mask);
                    state_end = std::min(seg_end[s], horizon);
                }
                // A close at exactly the horizon is never
                // materialized: it cannot open a slice, and at
                // horizon UINT64_MAX its timestamp would collide
                // with the no_event sentinel below, silently
                // dropping the final run. Open runs are flushed to
                // the horizon at the end of the anchor instead.
                if ((prev_ace | prev_read) && state_end < horizon)
                    emit(state_end, 0, 0);
            }

            for (std::uint64_t c = 0; c < cols; ++c) {
                const unsigned maxm = static_cast<unsigned>(
                    std::min<std::uint64_t>(max_mode, cols - c));

                // Member resolution: discover regions in member
                // order (same order the per-mode path uses) and
                // precompute the action each region takes right
                // after member i joins it.
                unsigned num_regions = 0;
                bool any_life = false;
                for (unsigned i = 0; i < maxm; ++i) {
                    const ArenaBit &b = row[c + i];
                    any_life |= b.word != LifetimeArena::noWord;
                    unsigned reg = 0;
                    for (; reg < num_regions; ++reg) {
                        if (domains[reg] == b.domain)
                            break;
                    }
                    if (reg == num_regions) {
                        domains[num_regions++] = b.domain;
                        region_size[reg] = 0;
                    }
                    memberRegion[i] = reg;
                    memberAction[i] = action_of[++region_size[reg]];
                }
                if (!any_life)
                    continue;
                ++anchors_swept;
                groups_swept += maxm;

                // The anchor's merged timeline is the union of its
                // members' change points; the member event lists are
                // sorted, so walk them with an on-the-fly min-merge
                // instead of materializing and sorting the union.
                //
                // Per-mode outcome runs: accumulator adds happen only
                // when a mode's outcome changes (or the anchor ends),
                // not per elementary slice. add() is exactly additive
                // over subdivisions, so coalescing adjacent
                // same-outcome slices is bit-identical.
                constexpr Cycle no_event = ~Cycle(0);
                Cycle prev = no_event;
                for (unsigned i = 0; i < maxm; ++i) {
                    mode_out[i] = Outcome::Unace;
                    cursor[i] = 0;
                    member_live[i] = 0;
                    member_read[i] = 0;
                    const std::vector<BitEvent> &ev =
                        col_events[c + i];
                    if (!ev.empty())
                        prev = std::min(prev, ev.front().at);
                }
                if (prev == no_event)
                    continue;

                while (true) {
                    // Apply the events firing at this slice's start
                    // (a member's state holds until its next event)
                    // and find the earliest pending change point.
                    Cycle next = no_event;
                    unsigned any_bits = 0;
                    for (unsigned i = 0; i < maxm; ++i) {
                        const std::vector<BitEvent> &ev =
                            col_events[c + i];
                        std::uint32_t &cur = cursor[i];
                        while (cur < ev.size() &&
                               ev[cur].at <= prev) {
                            member_live[i] = ev[cur].live;
                            member_read[i] = ev[cur].read;
                            ++cur;
                        }
                        if (cur < ev.size())
                            next = std::min(next, ev[cur].at);
                        any_bits |= member_live[i] | member_read[i];
                    }
                    if (!any_bits) {
                        // Gap in the merged timeline (or the end of
                        // all member activity): every bit Unace —
                        // close any open runs at the gap's start.
                        for (unsigned i = 0; i < maxm; ++i) {
                            if (mode_out[i] != Outcome::Unace) {
                                out.modes[i].add(mode_out[i],
                                                 mode_since[i], prev);
                                mode_out[i] = Outcome::Unace;
                            }
                        }
                        if (next == no_event)
                            break;
                        prev = next;
                        continue;
                    }

                    for (unsigned reg = 0; reg < num_regions;
                         ++reg) {
                        region_live[reg] = false;
                        region_read[reg] = false;
                        region_out[reg] = Outcome::Unace;
                    }

                    // Grow the group one member at a time. Member i
                    // only changes its own region, so the region
                    // outcome tallies update in O(1) and mode (i+1)
                    // is emitted immediately.
                    unsigned n_sdc = 0, n_tdue = 0, n_fdue = 0;
                    for (unsigned i = 0; i < maxm; ++i) {
                        const unsigned reg = memberRegion[i];
                        if (member_live[i])
                            region_live[reg] = true;
                        else if (member_read[i])
                            region_read[reg] = true;
                        const Outcome was = region_out[reg];
                        const Outcome now = classifyRegion(
                            memberAction[i], region_live[reg],
                            region_live[reg] || region_read[reg]);
                        if (was != now) {
                            n_sdc -= was == Outcome::Sdc;
                            n_tdue -= was == Outcome::TrueDue;
                            n_fdue -= was == Outcome::FalseDue;
                            n_sdc += now == Outcome::Sdc;
                            n_tdue += now == Outcome::TrueDue;
                            n_fdue += now == Outcome::FalseDue;
                            region_out[reg] = now;
                        }
                        const Outcome o =
                            combineOutcomes(n_sdc > 0, n_tdue > 0,
                                            n_fdue > 0, due_shields);
                        if (o != mode_out[i]) {
                            if (mode_out[i] != Outcome::Unace)
                                out.modes[i].add(mode_out[i],
                                                 mode_since[i], prev);
                            mode_out[i] = o;
                            mode_since[i] = prev;
                        }
                    }
                    // Lifetimes that stop before the horizon close
                    // through the gap branch above; ones still open
                    // when the events run dry extend to the horizon
                    // and are flushed below.
                    if (next == no_event)
                        break;
                    prev = next;
                }
                for (unsigned i = 0; i < maxm; ++i) {
                    if (mode_out[i] != Outcome::Unace)
                        out.modes[i].add(mode_out[i], mode_since[i],
                                         horizon);
                }
            }
        }
        groups_counter.add(groups_swept);
        anchors_counter.add(anchors_swept);
    };

    ModeAccumulators acc(horizon, opt.numWindows, max_mode);
    if (opt.numThreads == 1) {
        sweep_rows(0, rows, acc);
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
                sweep_rows(lo, hi, part);
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

} // namespace mbavf

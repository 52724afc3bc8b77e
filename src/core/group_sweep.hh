/**
 * @file
 * The reference group sweep (paper Eq. 2-7) and its anchor-row
 * driver, written once for both of its users.
 *
 * sweepGroup() merges a fault group's member lifetimes into
 * elementary time slices and classifies each slice: regions by
 * protection domain (Eq. 5-6), the group outcome from its regions
 * (Eq. 7). sweepAnchorRows() enumerates every anchor of a fault mode
 * over the array, serially or in thread-count-independent row bands,
 * and folds the band partials in band order.
 *
 * Both are templates over a sink that receives every slice as
 * sink.add(outcome, begin, end, charged). computeMbAvf() sums class
 * totals into a detail::OutcomeAccumulator, which never calls
 * charged; analyze::attributeMbAvf() calls charged(outcome) for the
 * LifeSegment of the member the slice is charged to and sums per
 * tag. Both instantiations see the same slices with the same
 * outcomes, so attribution conserves the reference totals by
 * construction.
 *
 * Internal to src/core and src/analyze — not part of the public API.
 */

#ifndef MBAVF_CORE_GROUP_SWEEP_HH
#define MBAVF_CORE_GROUP_SWEEP_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/fault_mode.hh"
#include "core/layout.hh"
#include "core/lifetime.hh"
#include "core/mbavf.hh"
#include "core/mbavf_kernel.hh"
#include "core/protection.hh"
#include "obs/metrics.hh"

namespace mbavf::detail
{

/** Resolved view of one member bit of a fault group. */
struct MemberBit
{
    const WordLifetime *life = nullptr; ///< null = always Unace
    unsigned bitInWord = 0;
    DomainId domain = invalidDomain;
};

/**
 * Sweep one fault group: merge the member bits' segment boundaries
 * and hand every elementary slice to @p sink. @p bounds is scratch
 * reused across groups to avoid reallocation.
 *
 * Member bits of the same word share one WordLifetime; boundary
 * collection and cursor advancement are done once per unique word,
 * not once per bit (Mx1 groups over xI interleaving hit each word
 * M/I times).
 */
template <typename Sink>
void
sweepGroup(const std::vector<MemberBit> &members,
           const ProtectionScheme &scheme, Cycle horizon,
           bool due_shields_sdc, std::vector<Cycle> &bounds, Sink &sink)
{
    // Group members into regions by domain. Members arrive sorted by
    // (dRow, dCol); domains of adjacent offsets alternate, so find
    // regions by scanning unique domains (mode sizes are tiny).
    std::array<DomainId, maxModeBits> domains;
    std::array<FaultAction, maxModeBits> actions;
    std::array<unsigned, maxModeBits> regionOf;
    unsigned num_regions = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
        unsigned r = 0;
        for (; r < num_regions; ++r) {
            if (domains[r] == members[i].domain)
                break;
        }
        if (r == num_regions)
            domains[num_regions++] = members[i].domain;
        regionOf[i] = r;
    }
    std::array<unsigned, maxModeBits> region_size{};
    for (std::size_t i = 0; i < members.size(); ++i)
        ++region_size[regionOf[i]];
    for (unsigned r = 0; r < num_regions; ++r)
        actions[r] = scheme.action(region_size[r]);

    // Deduplicate member words: per unique WordLifetime keep one
    // cursor plus the member's (bit, region) pairs attached to it.
    std::array<const WordLifetime *, maxModeBits> words;
    std::array<std::size_t, maxModeBits> cursors{};
    std::array<unsigned, maxModeBits> wordOf;
    unsigned num_words = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (!members[i].life) {
            wordOf[i] = maxModeBits; // sentinel: always Unace
            continue;
        }
        unsigned w = 0;
        for (; w < num_words; ++w) {
            if (words[w] == members[i].life)
                break;
        }
        if (w == num_words)
            words[num_words++] = members[i].life;
        wordOf[i] = w;
    }
    if (num_words == 0)
        return; // every bit Unace for the whole horizon

    // Collect slice boundaries once per unique word.
    bounds.clear();
    for (unsigned w = 0; w < num_words; ++w) {
        for (const LifeSegment &s : words[w]->segments()) {
            if (s.begin >= horizon)
                break;
            bounds.push_back(s.begin);
            bounds.push_back(std::min(s.end, horizon));
        }
    }
    if (bounds.empty())
        return;
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    // Sweep slices. Between boundaries every bit's class is
    // constant. Scratch arrays are reset only over the entries in
    // use (value-initializing maxModeBits-sized arrays per slice is
    // measurably slow for small modes).
    std::array<const LifeSegment *, maxModeBits> active;
    std::array<bool, maxModeBits> region_live;
    std::array<bool, maxModeBits> region_read;

    // The charge rule (analyze/attribution.hh): the first member, in
    // pattern-offset order, whose own bit exhibits the outcome's
    // class. A group outcome of class X implies such a member:
    // classifyRegion only emits X when some member bit of that region
    // carries the matching mask. Under a false-DUE outcome no Detected
    // region holds a live bit, so a read bit there is read-dead.
    auto charged = [&](Outcome outcome) -> const LifeSegment & {
        const FaultAction want = outcome == Outcome::Sdc
            ? FaultAction::Undetected
            : FaultAction::Detected;
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (wordOf[i] == maxModeBits || actions[regionOf[i]] != want)
                continue;
            const LifeSegment *s = active[wordOf[i]];
            if (s && bitAt(outcome == Outcome::FalseDue ? s->readMask
                                                        : s->aceMask,
                           members[i].bitInWord)) {
                return *s;
            }
        }
        panic("group sweep: outcome with no charged member");
    };

    Cycle prev = bounds.front();
    for (std::size_t bi = 1; bi < bounds.size(); ++bi) {
        Cycle next = bounds[bi];

        // Active segment per unique word (nullptr = Unace gap).
        for (unsigned w = 0; w < num_words; ++w) {
            const auto &segs = words[w]->segments();
            std::size_t &cur = cursors[w];
            while (cur < segs.size() && segs[cur].end <= prev)
                ++cur;
            active[w] = (cur < segs.size() && segs[cur].begin <= prev)
                ? &segs[cur]
                : nullptr;
        }

        for (unsigned r = 0; r < num_regions; ++r) {
            region_live[r] = false;
            region_read[r] = false;
        }
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (wordOf[i] == maxModeBits)
                continue;
            const LifeSegment *s = active[wordOf[i]];
            if (!s)
                continue;
            unsigned r = regionOf[i];
            if (bitAt(s->aceMask, members[i].bitInWord))
                region_live[r] = true;
            else if (bitAt(s->readMask, members[i].bitInWord))
                region_read[r] = true;
        }

        bool has_sdc = false, has_tdue = false, has_fdue = false;
        for (unsigned r = 0; r < num_regions; ++r) {
            Outcome o = classifyRegion(actions[r], region_live[r],
                                       region_live[r] || region_read[r]);
            has_sdc |= o == Outcome::Sdc;
            has_tdue |= o == Outcome::TrueDue;
            has_fdue |= o == Outcome::FalseDue;
        }
        sink.add(combineOutcomes(has_sdc, has_tdue, has_fdue,
                                 due_shields_sdc),
                 prev, next, charged);
        prev = next;
    }
}

/**
 * Sweep every fault group of @p mode on @p array and return the
 * merged sink. Every band starts from a copy of @p empty, which is
 * also the result when the footprint admits no anchor. The number
 * of groups swept goes to @p groups_counter (a default-constructed
 * Counter discards it).
 *
 * Physical bits are resolved row-band by row-band: the span_r rows
 * the pattern touches are cached so each array position is resolved
 * exactly once per anchor row. With opt.numThreads != 1 the anchor
 * rows run as bands on the shared pool; band granularity depends only
 * on the range (not the thread count), and mapReduce() merges the
 * partials in band order, so the result is bit-identical at any pool
 * width — doubly so for sinks of exact integer sums.
 */
template <typename Sink>
Sink
sweepAnchorRows(const PhysicalArray &array, const LifetimeStore &store,
                const ProtectionScheme &scheme, const FaultMode &mode,
                const MbAvfOptions &opt, const Sink &empty,
                const obs::Counter &groups_counter)
{
    const std::uint64_t rows = array.rows();
    const std::uint64_t cols = array.cols();
    const std::uint64_t span_r =
        static_cast<std::uint64_t>(mode.maxDRow()) + 1;
    const std::uint64_t span_c =
        static_cast<std::uint64_t>(mode.maxDCol()) + 1;
    // A footprint taller or wider than the array admits no anchor
    // position at all; bail out before `rows - span_r + 1` below can
    // underflow.
    if (span_r > rows || span_c > cols)
        return empty;

    auto sweep_rows = [&](std::uint64_t row_begin, std::uint64_t row_end,
                          Sink &out) {
        std::vector<Cycle> bounds;
        std::vector<MemberBit> row_cache;
        std::vector<MemberBit> members(mode.size());
        std::uint64_t groups_swept = 0;

        for (std::uint64_t r = row_begin; r < row_end; ++r) {
            row_cache.assign(std::size_t(span_r) * cols, MemberBit{});
            for (std::uint64_t dr = 0; dr < span_r; ++dr) {
                for (std::uint64_t c = 0; c < cols; ++c) {
                    PhysBit pb = array.at(r + dr, c);
                    MemberBit &m = row_cache[dr * cols + c];
                    m.domain = pb.domain;
                    m.life = store.findBit(pb.container,
                                           pb.bitInContainer,
                                           m.bitInWord);
                }
            }

            for (std::uint64_t c = 0; c + span_c <= cols; ++c) {
                bool any_life = false;
                for (unsigned i = 0; i < mode.size(); ++i) {
                    const PatternOffset &o = mode.offsets()[i];
                    members[i] =
                        row_cache[std::size_t(o.dRow) * cols + c +
                                  static_cast<std::uint64_t>(o.dCol)];
                    any_life |= members[i].life != nullptr;
                }
                if (!any_life)
                    continue;
                ++groups_swept;
                sweepGroup(members, scheme, opt.horizon,
                           opt.dueShieldsSdc, bounds, out);
            }
        }
        // One add per band, not per group: the counter stays off the
        // innermost loop even when metrics are enabled.
        groups_counter.add(groups_swept);
    };

    const std::uint64_t anchor_rows = rows - span_r + 1;
    if (opt.numThreads == 1) {
        Sink acc = empty;
        sweep_rows(0, anchor_rows, acc);
        return acc;
    }
    ensureParallelThreads(opt.numThreads);
    const std::uint64_t grain =
        std::max<std::uint64_t>(1, anchor_rows / 64);
    return mapReduce(
        std::uint64_t(0), anchor_rows, grain, empty,
        [&](std::uint64_t lo, std::uint64_t hi) {
            Sink part = empty;
            sweep_rows(lo, hi, part);
            return part;
        },
        [](Sink &into, Sink &&part) { into.mergeFrom(part); });
}

} // namespace mbavf::detail

#endif // MBAVF_CORE_GROUP_SWEEP_HH

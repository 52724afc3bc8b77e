/**
 * @file
 * The lane-per-prefix, row-major sweepline kernel of the single-pass
 * multi-mode sweep, written once over a portable lane type.
 *
 * Two translation units build it: core/mbavf_kernel.cc (plain flags,
 * the portable build) and core/mbavf_kernel_avx2.cc (-mavx2, the
 * dispatched build). Everything here has internal linkage, so the
 * two builds share no symbol (see the ODR note in mbavf_kernel.hh).
 * The kernel removes two redundancies of a member-at-a-time sweep
 * that min-merges each fault group's member timelines:
 *
 *  - Lane transposition: 32-bit lane j of block B computes the
 *    outcome of the prefix of length B*kLanes + j + 1 directly, so
 *    one vector op advances kLanes modes at once. A region's ACE
 *    state for a prefix is a threshold function (the region is live
 *    for mode (i+1)x1 iff its first live member has index <= i), and
 *    the scheme action of a region depends only on how many members
 *    the prefix contains — fixed per anchor, so the per-lane action
 *    masks are memoized per domain-window pattern.
 *
 *  - Row-major time order: instead of per-anchor timeline merges,
 *    one sweepline walks the row's arena words in global time order
 *    (a small binary heap of per-word cursors), maintains per-column
 *    live/read bitsets, and updates exactly the anchors whose window
 *    contains a changed column. Each update costs two bitset window
 *    reads plus a handful of vector ops.
 *
 * Outcome runs are accumulated into flat per-(class, window, mode)
 * tensors local to the sweep and folded into the shared accumulators
 * once at the end. Word transitions that share a timestamp can split
 * one outcome run into adjacent pieces, but run deposits are exactly
 * additive over adjacent integer intervals — per-class totals and
 * per-window splits alike — so the final sums are bit-identical to
 * the per-mode reference path (the differential fuzz pins this on
 * both builds).
 *
 * Rows are processed in small bands, two-phased: phase one resolves
 * the band's columns to arena words; phase two runs the sweepline
 * on each row while the resolved state is cache-resident.
 */

#ifndef MBAVF_CORE_LANE_KERNEL_HH
#define MBAVF_CORE_LANE_KERNEL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <new>
#include <vector>

#include "common/bits.hh"
#include "core/lifetime_arena.hh"
#include "core/mbavf_kernel.hh"

#ifdef __AVX2__
#include <immintrin.h>
#endif

namespace mbavf
{
namespace detail
{
namespace
{

/**
 * Bytes of one lane block: the build's native vector width. Wider
 * generic vectors than the target's registers lower through memory,
 * so the AVX2 build packs 8 mode lanes per block and the portable
 * build 4 (one SSE2 or NEON register).
 */
#ifdef __AVX2__
constexpr unsigned kBlockBytes = 32;
#else
constexpr unsigned kBlockBytes = 16;
#endif
constexpr unsigned kLanes = kBlockBytes / 4; ///< 32-bit mode lanes
constexpr unsigned kHalf = kLanes / 2;       ///< lanes per Wide
constexpr Cycle no_event = ~Cycle(0);

/** One block of mode lanes; masks are all-ones/zero lanes. */
typedef std::int32_t Lanes __attribute__((vector_size(kBlockBytes)));
/** Half a block widened to 64-bit lanes, for cycle arithmetic. */
typedef std::uint64_t Wide __attribute__((vector_size(kBlockBytes)));
typedef std::int64_t WideMask __attribute__((vector_size(kBlockBytes)));

inline Lanes
loadLanes(const std::uint32_t *p)
{
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
storeLanes(std::uint32_t *p, Lanes v)
{
    std::memcpy(p, &v, sizeof v);
}

inline Wide
loadWide(const Cycle *p)
{
    Wide v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
storeWide(Cycle *p, Wide v)
{
    std::memcpy(p, &v, sizeof v);
}

/** Lane indices {B*kLanes+0 .. B*kLanes+kLanes-1} of block @p blk. */
inline Lanes
laneIdx(unsigned blk)
{
    Lanes idx;
    for (unsigned j = 0; j < kLanes; ++j)
        idx[j] = static_cast<std::int32_t>(blk * kLanes + j);
    return idx;
}

/** The low (@p Hi false) or high half of mask @p m, sign-widened. */
template <bool Hi>
inline Wide
widen(Lanes m)
{
#ifdef __AVX2__
    const __m256i x = (__m256i)m;
    return (Wide)_mm256_cvtepi32_epi64(
        Hi ? _mm256_extracti128_si256(x, 1) : _mm256_castsi256_si128(x));
#else
    const auto half = Hi ? __builtin_shufflevector(m, m, 2, 3)
                         : __builtin_shufflevector(m, m, 0, 1);
    return (Wide)__builtin_convertvector(half, WideMask);
#endif
}

/** True when any lane of @p v is nonzero. */
inline bool
anyLane(Lanes v)
{
#ifdef __AVX2__
    const __m256i x = (__m256i)v;
    return !_mm256_testz_si256(x, x);
#else
    std::int32_t any = 0;
    for (unsigned j = 0; j < kLanes; ++j)
        any |= v[j];
    return any != 0;
#endif
}

/** Bit j set when lane j of mask @p m is set. */
inline unsigned
laneBits(Lanes m)
{
#ifdef __AVX2__
    return static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps((__m256i)m)));
#else
    unsigned bits = 0;
    for (unsigned j = 0; j < kLanes; ++j)
        bits |= unsigned(m[j] != 0) << j;
    return bits;
#endif
}

/** Lanes of @p b where mask @p m is set, lanes of @p a elsewhere. */
inline Lanes
select(Lanes m, Lanes b, Lanes a)
{
#ifdef __AVX2__
    return (Lanes)_mm256_blendv_epi8((__m256i)a, (__m256i)b, (__m256i)m);
#else
    return (b & m) | (a & ~m);
#endif
}

inline Wide
select(Wide m, Wide b, Wide a)
{
#ifdef __AVX2__
    return (Wide)_mm256_blendv_epi8((__m256i)a, (__m256i)b, (__m256i)m);
#else
    return (b & m) | (a & ~m);
#endif
}

/**
 * Allocator of this translation unit: every std::vector member the
 * kernel instantiates names it, so each build gets its own internal
 * copy instead of a weak symbol the linker could share between them.
 */
template <typename T>
struct LocalAlloc
{
    using value_type = T;

    LocalAlloc() = default;
    template <typename U>
    LocalAlloc(const LocalAlloc<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p);
    }

    template <typename U>
    bool
    operator==(const LocalAlloc<U> &) const
    {
        return true;
    }
};

template <typename T>
using Vec = std::vector<T, LocalAlloc<T>>;

/**
 * Rows per cache block. A band's columns are resolved in phase one
 * and swept in phase two while the resolved state is still resident.
 */
constexpr std::uint64_t kRowBand = 4;

/** Direct-mapped window-lookup table size (log2). */
constexpr unsigned kWindowTableBits = 10;

/** Hash slots for the per-row setup cache (power of two). */
constexpr unsigned kSetupSlots = 64;

/** Resolved view of one physical column of the current row. */
struct ColBit
{
    std::uint32_t word = LifetimeArena::noWord;
    std::uint32_t bitInWord = 0;
    DomainId domain = invalidDomain;
};

/** The bits of one arena word touched by the current anchor row. */
struct WordGroup
{
    std::uint32_t word = LifetimeArena::noWord;
    std::uint64_t mask = 0;
    /** Owning anchor-row column of each present bit (mask guards). */
    std::array<std::uint32_t, 64> colOf;
};

/** One row's resolved columns, word groups, and live-column bits. */
struct RowState
{
    Vec<ColBit> cols;
    Vec<WordGroup> groups;
    std::size_t numGroups = 0;
    /** Bit c set when column c resolves to a live word. */
    Vec<std::uint64_t> lifeBits;
};

/**
 * Sweepline cursor over one arena word's segments: the projected
 * (ace, read) masks currently in force and the segment walk state.
 */
struct WordCursor
{
    const WordGroup *wg = nullptr;
    std::uint32_t s = 0;  ///< next segment slot
    std::uint32_t hi = 0; ///< one past the word's last slot
    std::uint64_t ace = 0, read = 0;
    Cycle stateEnd = 0;
};

/** Heap entry: the time of a word's next transition. */
struct HeapItem
{
    Cycle t;
    std::uint32_t cursor;
};

struct HeapLater
{
    bool
    operator()(const HeapItem &a, const HeapItem &b) const
    {
        return a.t > b.t;
    }
};

/**
 * Bits [c, c+width) of a column bitset, as a u64. The bitset carries
 * one padding word so the straddling read stays in bounds.
 */
inline std::uint64_t
windowBits(const std::uint64_t *bits, std::uint64_t c, unsigned width)
{
    const unsigned shift = static_cast<unsigned>(c & 63);
    std::uint64_t v = bits[c >> 6] >> shift;
    if (shift != 0)
        v |= bits[(c >> 6) + 1] << (64 - shift);
    return v & lowMask(width);
}

/** All scratch of one band sweep, allocated once per row band call. */
class LaneSweeper
{
  public:
    LaneSweeper(const SweepCtx &ctx, ModeAccumulators &out,
                SweepTallies &tallies)
        : ctx_(ctx), out_(out), tallies_(tallies),
          cols_(ctx.array->cols()), maxMode_(ctx.maxMode),
          blocksMax_((ctx.maxMode + kLanes - 1) / kLanes),
          segBegin_(ctx.arena->begins()), segEnd_(ctx.arena->ends()),
          segMasks_(ctx.arena->masks())
    {
        const std::size_t words = (cols_ >> 6) + 2;
        rows_.resize(kRowBand);
        for (RowState &row : rows_) {
            row.cols.resize(cols_);
            row.lifeBits.resize(words);
        }
        colLive_.resize(words);
        colRead_.resize(words);
        anchorTouch_.resize(words);
        anchorSetup_.resize(cols_);
        activeAnchors_.reserve(cols_);
        anchorOut_.resize(std::size_t(cols_) * blocksMax_ * kLanes);
        anchorSince_.resize(anchorOut_.size());
        anchorSigLive_.assign(cols_, ~std::uint64_t(0));
        anchorSigRead_.assign(cols_, ~std::uint64_t(0));
        // Both tensors carry one vector block of lane padding: the
        // block-granular deposit stores sweep lanes up to the next
        // multiple of kLanes past maxMode (those lanes add zero).
        totalsAcc_.assign(
            std::size_t(3) * maxMode_ + blocksMax_ * kLanes, 0);
        numWindows_ =
            out.modes.empty() ? 0 : out.modes[0].numWindows();
        if (numWindows_) {
            winAcc_.assign(std::size_t(numWindows_) * 3 * maxMode_ +
                               blocksMax_ * kLanes,
                           0);
            bounds_.resize(std::size_t(numWindows_) + 1);
            for (unsigned w = 0; w <= numWindows_; ++w)
                bounds_[w] = out.modes[0].bound(w);
            buildWindowTable();
        }
        setDepositBase();
    }

    void
    sweepRows(std::uint64_t row_begin, std::uint64_t row_end)
    {
        for (std::uint64_t band = row_begin; band < row_end;
             band += kRowBand) {
            const std::uint64_t band_end =
                std::min(band + kRowBand, row_end);
            // Phase one: resolve the band's columns to arena words.
            for (std::uint64_t r = band; r < band_end; ++r)
                buildRow(r, rows_[r - band]);
            // Phase two: sweep each row's merged transition stream.
            for (std::uint64_t r = band; r < band_end; ++r)
                sweepRow(rows_[r - band]);
        }
        fold();
    }

  private:
    /**
     * Direct-mapped first-guess table for window lookup: bucket
     * t >> winShift_ maps to the window of the bucket's first cycle;
     * the true window is at most a short walk forward from there.
     */
    void
    buildWindowTable(void)
    {
        const Cycle horizon = ctx_.horizon;
        if (horizon == 0)
            return;
        const unsigned width = static_cast<unsigned>(
            64 - std::countl_zero(horizon));
        winShift_ =
            width > kWindowTableBits ? width - kWindowTableBits : 0;
        winTable_.resize(
            static_cast<std::size_t>((horizon - 1) >> winShift_) + 1);
        unsigned w = 0;
        for (std::size_t i = 0; i < winTable_.size(); ++i) {
            const Cycle t = static_cast<Cycle>(i) << winShift_;
            while (bounds_[w + 1] <= t)
                ++w;
            winTable_[i] = w;
        }
    }

    /** Resolve row @p r: columns, live bits, word groups. */
    void
    buildRow(std::uint64_t r, RowState &row)
    {
        const LifetimeArena &arena = *ctx_.arena;
        const unsigned ww = arena.wordWidth();
        const unsigned wpc = arena.wordsPerContainer();

        std::fill(row.lifeBits.begin(), row.lifeBits.end(), 0);

        // Column resolution with a one-entry handle-block cache:
        // consecutive columns usually stay in one container.
        std::uint64_t last_container = 0;
        const std::uint32_t *block = nullptr;
        bool have_block = false;
        row.numGroups = 0;
        for (std::uint64_t c = 0; c < cols_; ++c) {
            const PhysBit pb = ctx_.array->at(r, c);
            if (!have_block || pb.container != last_container) {
                block = arena.handleBlock(pb.container);
                last_container = pb.container;
                have_block = true;
            }
            ColBit &b = row.cols[c];
            b.domain = pb.domain;
            b.word = LifetimeArena::noWord;
            b.bitInWord = 0;
            if (block && ww != 0) {
                const unsigned wi = pb.bitInContainer / ww;
                b.bitInWord = pb.bitInContainer % ww;
                if (wi < wpc)
                    b.word = block[wi];
            }
            if (b.word == LifetimeArena::noWord)
                continue;
            row.lifeBits[c >> 6] |= std::uint64_t(1) << (c & 63);
            // Group the row's bits by arena word; check the open
            // group first, consecutive columns usually share it.
            std::size_t g = row.numGroups;
            if (row.numGroups &&
                row.groups[row.numGroups - 1].word == b.word) {
                g = row.numGroups - 1;
            } else {
                for (g = 0; g < row.numGroups; ++g) {
                    if (row.groups[g].word == b.word)
                        break;
                }
            }
            if (g == row.numGroups) {
                if (row.groups.size() <= g)
                    row.groups.emplace_back();
                row.groups[g].word = b.word;
                row.groups[g].mask = 0;
                ++row.numGroups;
            }
            row.groups[g].mask |= std::uint64_t(1) << b.bitInWord;
            row.groups[g].colOf[b.bitInWord] =
                static_cast<std::uint32_t>(c);
        }
    }

    /**
     * Census, per-row: count the swept anchors, resolve each live
     * anchor's memoized region setup, and list them for the final
     * flush. Anchors with no live member are never updated (events
     * only come from live words), so they need no setup.
     */
    void
    census(const RowState &row)
    {
        // The cache carries per-row setup indices, so it resets
        // here; entries allocated in earlier rows are reused.
        numSetups_ = 0;
        for (std::uint32_t &slot : setupSlots_)
            slot = ~std::uint32_t(0);
        activeAnchors_.clear();
        for (std::uint64_t c = 0; c < cols_; ++c) {
            const unsigned maxm = anchorModes(c);
            if (windowBits(row.lifeBits.data(), c, maxm) == 0)
                continue;
            ++tallies_.anchors;
            tallies_.groups += maxm;
            anchorSetup_[c] = regionSetup(row, c, maxm);
            activeAnchors_.push_back(static_cast<std::uint32_t>(c));
        }
    }

    /** Modes with a group at anchor column @p a. */
    unsigned
    anchorModes(std::uint64_t a) const
    {
        return static_cast<unsigned>(
            std::min<std::uint64_t>(maxMode_, cols_ - a));
    }

    /** Sweep one resolved row in global transition-time order. */
    void
    sweepRow(const RowState &row)
    {
        census(row);
        if (activeAnchors_.empty())
            return;

        const LifetimeArena &arena = *ctx_.arena;
        cursors_.clear();
        heap_.clear();
        for (std::size_t g = 0; g < row.numGroups; ++g) {
            WordCursor cur;
            cur.wg = &row.groups[g];
            cur.s = arena.offset(cur.wg->word);
            cur.hi = cur.s + arena.count(cur.wg->word);
            const Cycle t = nextTransition(cur);
            if (t == no_event)
                continue;
            heap_.push_back(
                {t, static_cast<std::uint32_t>(cursors_.size())});
            cursors_.push_back(cur);
        }
        std::make_heap(heap_.begin(), heap_.end(), HeapLater{});

        // Drain in time order, batching every cursor that fires at
        // the same timestamp into one anchor-update round: a cache
        // line fill or eviction transitions many words of a row at
        // one cycle, and their anchor windows overlap heavily.
        // Crossing a window boundary splits every open run at the
        // boundary first, so deposits always land whole in the
        // current window (the same partition the accumulator's
        // add() would make).
        while (!heap_.empty()) {
            const Cycle t = heap_.front().t;
            while (numWindows_ && t >= bounds_[curWin_ + 1])
                checkpointWindow();
            do {
                std::pop_heap(heap_.begin(), heap_.end(),
                              HeapLater{});
                const HeapItem item = heap_.back();
                heap_.pop_back();
                WordCursor &cur = cursors_[item.cursor];
                applyTransition(cur);
                const Cycle nt = nextTransition(cur);
                if (nt != no_event) {
                    heap_.push_back({nt, item.cursor});
                    std::push_heap(heap_.begin(), heap_.end(),
                                   HeapLater{});
                }
            } while (!heap_.empty() && heap_.front().t == t);
            if (touchLo_ <= touchHi_)
                updateTouched(t);
        }

        // Lifetimes still open when the transitions ran dry extend
        // to the horizon (closes at the horizon are never
        // materialized); flush the open runs and reset the slots.
        const Cycle horizon = ctx_.horizon;
        for (const std::uint32_t a : activeAnchors_) {
            const unsigned blocks = (anchorModes(a) + kLanes - 1) / kLanes;
            std::uint32_t *outp = anchorOutAt(a);
            const Cycle *sincep = anchorSinceAt(a);
            for (unsigned blk = 0; blk < blocks; ++blk) {
                unsigned open =
                    laneBits(loadLanes(outp + blk * kLanes) != 0);
                if (!open)
                    continue;
                while (open) {
                    const unsigned j = static_cast<unsigned>(
                        std::countr_zero(open));
                    open &= open - 1;
                    const unsigned lane = blk * kLanes + j;
                    closeRun(lane, outp[lane], sincep[lane],
                             horizon);
                }
                storeLanes(outp + blk * kLanes, Lanes{});
            }
        }
        std::fill(colLive_.begin(), colLive_.end(), 0);
        std::fill(colRead_.begin(), colRead_.end(), 0);
        std::fill(anchorSigLive_.begin(), anchorSigLive_.end(),
                  ~std::uint64_t(0));
        std::fill(anchorSigRead_.begin(), anchorSigRead_.end(),
                  ~std::uint64_t(0));
        curWin_ = 0;
        setDepositBase();
    }

    /** Outcome-code lanes of anchor @p a, blocksMax_ blocks. */
    std::uint32_t *
    anchorOutAt(std::uint64_t a)
    {
        return anchorOut_.data() + std::size_t(a) * blocksMax_ * kLanes;
    }

    /** Run-start lanes of anchor @p a, blocksMax_ blocks. */
    Cycle *
    anchorSinceAt(std::uint64_t a)
    {
        return anchorSince_.data() +
               std::size_t(a) * blocksMax_ * kLanes;
    }

    /** Point the block deposits at the current window's cells. */
    void
    setDepositBase(void)
    {
        for (unsigned cls = 0; cls < 3; ++cls) {
            depositBase_[cls] =
                numWindows_
                    ? winAcc_.data() +
                          (std::size_t(curWin_) * 3 + cls) * maxMode_
                    : totalsAcc_.data() + std::size_t(cls) * maxMode_;
        }
    }

    /**
     * Advance to the next accumulation window: split every open run
     * at the boundary — deposit [since, boundary) into the closing
     * window and restart the run at the boundary. Subsequent
     * deposits land whole in the new window.
     */
    void
    checkpointWindow(void)
    {
        const Cycle bound = bounds_[curWin_ + 1];
        for (const std::uint32_t a : activeAnchors_) {
            const unsigned blocks = (anchorModes(a) + kLanes - 1) / kLanes;
            const std::uint32_t *outp = anchorOutAt(a);
            Cycle *sincep = anchorSinceAt(a);
            for (unsigned blk = 0; blk < blocks; ++blk) {
                const Lanes codes = loadLanes(outp + blk * kLanes);
                if (anyLane(codes))
                    depositRuns(codes, codes != 0, bound,
                                sincep + blk * kLanes, blk);
            }
        }
        ++curWin_;
        setDepositBase();
    }

    /**
     * Vector run deposit for one block: lanes selected by @p mask
     * close their run [since, end) into the current window's cell
     * of their @p codes class and restart at @p end; other lanes'
     * since and cells are untouched (their masked delta is zero,
     * and the lane-padded tensors absorb the block-width store).
     */
    void
    depositRuns(Lanes codes, Lanes mask, Cycle end, Cycle *sincep,
                unsigned blk)
    {
        const Wide endV = Wide{} + end;
        const Wide mLo = widen<false>(mask);
        const Wide mHi = widen<true>(mask);
        const Wide sLo = loadWide(sincep);
        const Wide sHi = loadWide(sincep + kHalf);
        const Wide dtLo = (endV - sLo) & mLo;
        const Wide dtHi = (endV - sHi) & mHi;
        storeWide(sincep, select(mLo, endV, sLo));
        storeWide(sincep + kHalf, select(mHi, endV, sHi));
        for (unsigned cls = 0; cls < 3; ++cls) {
            const Lanes m =
                (codes == static_cast<std::int32_t>(3 - cls)) & mask;
            if (!anyLane(m))
                continue;
            Cycle *base = depositBase_[cls] + blk * kLanes;
            storeWide(base, loadWide(base) + (dtLo & widen<false>(m)));
            storeWide(base + kHalf,
                      loadWide(base + kHalf) + (dtHi & widen<true>(m)));
        }
    }

    /**
     * Time of @p cur's next transition, no_event when exhausted: a
     * close is pending when the projected state is non-zero and the
     * next segment starts after the current one ends (or the
     * segments ran out before the horizon). Closes at or past the
     * horizon are never materialized — they cannot open a run, and
     * at horizon UINT64_MAX one would collide with no_event; open
     * runs are flushed to the horizon instead.
     */
    Cycle
    nextTransition(const WordCursor &cur) const
    {
        const Cycle horizon = ctx_.horizon;
        const bool open_state = (cur.ace | cur.read) != 0;
        if (cur.s < cur.hi && segBegin_[cur.s] < horizon) {
            if (open_state && segBegin_[cur.s] > cur.stateEnd)
                return cur.stateEnd;
            return segBegin_[cur.s];
        }
        return open_state && cur.stateEnd < horizon ? cur.stateEnd
                                                    : no_event;
    }

    /**
     * Apply @p cur's transition: move the projected masks to their
     * next value, update the column live/read bitsets, and mark
     * every anchor whose window contains a changed column (column c
     * affects anchors [c - maxMode + 1, c]) in the touch bitmap.
     */
    void
    applyTransition(WordCursor &cur)
    {
        const Cycle horizon = ctx_.horizon;
        std::uint64_t nace = 0, nread = 0;
        const bool more =
            cur.s < cur.hi && segBegin_[cur.s] < horizon;
        const bool is_close =
            !more || ((cur.ace | cur.read) != 0 &&
                      segBegin_[cur.s] > cur.stateEnd);
        if (!is_close) {
            nace = segMasks_[cur.s].ace & cur.wg->mask;
            nread = segMasks_[cur.s].read & cur.wg->mask;
            cur.stateEnd = std::min(segEnd_[cur.s], horizon);
            ++cur.s;
        }
        std::uint64_t diff =
            (cur.ace ^ nace) | (cur.read ^ nread);
        while (diff) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(diff));
            diff &= diff - 1;
            const std::uint64_t col = cur.wg->colOf[b];
            const std::uint64_t cbit = std::uint64_t(1) << (col & 63);
            if ((nace >> b) & 1)
                colLive_[col >> 6] |= cbit;
            else
                colLive_[col >> 6] &= ~cbit;
            if ((nread >> b) & 1)
                colRead_[col >> 6] |= cbit;
            else
                colRead_[col >> 6] &= ~cbit;
            const std::uint64_t lo =
                col + 1 >= maxMode_ ? col + 1 - maxMode_ : 0;
            const unsigned span = static_cast<unsigned>(col - lo) + 1;
            const std::uint64_t mask = lowMask(span);
            const unsigned shift = static_cast<unsigned>(lo & 63);
            anchorTouch_[lo >> 6] |= mask << shift;
            if (shift + span > 64)
                anchorTouch_[(lo >> 6) + 1] |= mask >> (64 - shift);
            touchLo_ = std::min(touchLo_, lo >> 6);
            touchHi_ = std::max(touchHi_, col >> 6);
        }
        cur.ace = nace;
        cur.read = nread;
    }

    /**
     * Update the anchors accumulated in the touch bitmap — each
     * exactly once, however many same-timestamp words marked it —
     * and reset the bitmap.
     */
    void
    updateTouched(Cycle t)
    {
        for (std::uint64_t w = touchLo_; w <= touchHi_; ++w) {
            std::uint64_t bits = anchorTouch_[w];
            anchorTouch_[w] = 0;
            while (bits) {
                const unsigned b =
                    static_cast<unsigned>(std::countr_zero(bits));
                bits &= bits - 1;
                updateAnchor((w << 6) + b, t);
            }
        }
        touchLo_ = ~std::uint64_t(0);
        touchHi_ = 0;
    }

    /**
     * Recompute anchor @p a's lane-per-prefix outcomes from the
     * current column state and emit runs for every changed lane. A
     * lifetime gap (no live-or-read member) falls out naturally:
     * zero active regions combine to Unace in every lane, and the
     * change detection closes whatever was open.
     */
    void
    updateAnchor(std::uint64_t a, Cycle t)
    {
        const unsigned maxm = anchorModes(a);
        const unsigned blocks = (maxm + kLanes - 1) / kLanes;
        std::uint32_t *outp = anchorOutAt(a);
        Cycle *sincep = anchorSinceAt(a);

        const std::uint64_t member_live =
            windowBits(colLive_.data(), a, maxm);
        const std::uint64_t member_read =
            windowBits(colRead_.data(), a, maxm);
        const std::uint64_t live_or_read = member_live | member_read;

        // Pass one, scalar: thresholds and action-table pointers of
        // the active regions. The region is ACE-live (read-shadowed)
        // for lane i iff its first live (live-or-read) member has
        // index <= i. The outcome vector is a pure function of the
        // thresholds, so when the setup has few enough regions to
        // pack them into two words, an update whose thresholds match
        // the anchor's previous ones is dropped before the vector
        // pass — a changed column behind a region's first live
        // member moves no threshold.
        unsigned num_active = 0;
        std::int32_t liveThresh[maxModeBits];
        std::int32_t readThresh[maxModeBits];
        const std::uint32_t *actBase[maxModeBits];
        std::uint64_t sig_live = 0, sig_read = 0;
        bool sig_exact = true;
        if (live_or_read != 0) {
            const SetupEntry &setup = setups_[anchorSetup_[a]];
            sig_exact = setup.numRegions <= 8;
            for (unsigned reg = 0; reg < setup.numRegions; ++reg) {
                const std::uint64_t rm =
                    live_or_read & setup.regionMembers[reg];
                if (rm == 0)
                    continue;
                const std::uint64_t lm =
                    member_live & setup.regionMembers[reg];
                const int t_read =
                    static_cast<int>(std::countr_zero(rm)) - 1;
                const int t_live =
                    lm ? static_cast<int>(std::countr_zero(lm)) - 1
                       : 64;
                // Bytes 2..66 per region slot; 0 stays "inactive"
                // and the all-ones reset value stays unmatchable.
                sig_live |= std::uint64_t(unsigned(t_live + 2))
                            << (8 * (reg & 7));
                sig_read |= std::uint64_t(unsigned(t_read + 2))
                            << (8 * (reg & 7));
                readThresh[num_active] = t_read;
                liveThresh[num_active] = t_live;
                actBase[num_active] =
                    setup.actDet.data() +
                    std::size_t(reg) * 2 * blocksMax_ * kLanes;
                ++num_active;
            }
        }
        if (sig_exact) {
            if (anchorSigLive_[a] == sig_live &&
                anchorSigRead_[a] == sig_read) {
                return;
            }
            anchorSigLive_[a] = sig_live;
            anchorSigRead_[a] = sig_read;
        } else {
            // With >8 regions the bytes alias and the signature is
            // lossy; park the cache at the unmatchable reset value so
            // a later exact-signature update (e.g. the anchor going
            // fully dead, signature 0,0) cannot match a stale entry
            // and skip closing the runs this update opens.
            anchorSigLive_[a] = ~std::uint64_t(0);
            anchorSigRead_[a] = ~std::uint64_t(0);
        }

        const Lanes fdue_code = Lanes{} + int(Outcome::FalseDue);
        const Lanes tdue_code = Lanes{} + int(Outcome::TrueDue);
        const Lanes sdc_code = Lanes{} + int(Outcome::Sdc);

        // Pass two, block-outer: the class accumulators stay in
        // registers across the region loop.
        for (unsigned blk = 0; blk < blocks; ++blk) {
            Lanes sdc{}, tdue{}, fdue{};
            const Lanes idx = laneIdx(blk);
            for (unsigned r = 0; r < num_active; ++r) {
                const Lanes live = idx > liveThresh[r];
                const Lanes read = idx > readThresh[r];
                const Lanes det = loadLanes(actBase[r] + blk * kLanes);
                const Lanes undet =
                    loadLanes(actBase[r] + (blocksMax_ + blk) * kLanes);
                sdc |= undet & live;
                tdue |= det & live;
                fdue |= det & read & ~live;
            }

            // Combine with the reference precedence (SDC > trueDUE >
            // falseDUE > unACE; shielding converts SDC-and-trueDUE
            // lanes to trueDUE), then emit runs on changed lanes.
            Lanes out = select(tdue, tdue_code, fdue & fdue_code);
            const Lanes sdc_out = ctx_.dueShields
                                      ? select(tdue, tdue_code, sdc_code)
                                      : sdc_code;
            out = select(sdc, sdc_out, out);

            const Lanes was = loadLanes(outp + blk * kLanes);
            const Lanes chg = out != was;
            if (!anyLane(chg))
                continue;
            storeLanes(outp + blk * kLanes, out);
            // Changed lanes that were open deposit their run (a
            // was-Unace lane matches no class and deposits zero);
            // every changed lane restarts its run at t.
            depositRuns(was, chg, t, sincep + blk * kLanes, blk);
        }
    }

    /**
     * Deposit the closed run [begin, end) of mode lane @p lane into
     * the local tensors: whole-run total plus the exact per-window
     * split (identical partition to OutcomeAccumulator::add, so the
     * fold is bit-identical). Zero-length runs — equal-timestamp
     * transition interleaving — contribute nothing and are skipped.
     */
    void
    closeRun(unsigned lane, std::uint32_t code, Cycle begin,
             Cycle end)
    {
        if (end <= begin)
            return;
        // Outcome codes are FalseDue=1, TrueDue=2, Sdc=3; the class
        // index order is Sdc=0, TrueDue=1, FalseDue=2. With windows
        // on, deposits go to the window tensor only — the fold
        // derives the totals as the exact sum over windows.
        const unsigned cls = 3u - code;
        if (!numWindows_) {
            totalsAcc_[std::size_t(cls) * maxMode_ + lane] +=
                end - begin;
            return;
        }
        unsigned w = winTable_[begin >> winShift_];
        while (bounds_[w + 1] <= begin)
            ++w;
        Cycle lo = begin;
        for (;;) {
            const Cycle hi = std::min(end, bounds_[w + 1]);
            winAcc_[(std::size_t(w) * 3 + cls) * maxMode_ + lane] +=
                hi - lo;
            if (hi == end)
                return;
            lo = hi;
            ++w;
        }
    }

    /**
     * Fold the local tensors into the shared accumulators. With
     * windows on, a run's whole-run deposit is the sum of its
     * window deposits (the checkpoints split runs exactly at the
     * window boundaries), so the totals are derived here.
     */
    void
    fold(void)
    {
        for (unsigned lane = 0; lane < maxMode_; ++lane) {
            for (unsigned cls = 0; cls < 3; ++cls) {
                Cycle total =
                    totalsAcc_[std::size_t(cls) * maxMode_ + lane];
                for (unsigned w = 0; w < numWindows_; ++w) {
                    const Cycle amount =
                        winAcc_[(std::size_t(w) * 3 + cls) *
                                    maxMode_ +
                                lane];
                    total += amount;
                    if (amount)
                        out_.modes[lane].addWindowRaw(w, cls,
                                                      amount);
                }
                if (total)
                    out_.modes[lane].addRaw(cls, total);
            }
        }
    }

    /**
     * One memoized per-anchor setup: the region decomposition of a
     * domain window and the per-region per-lane action masks (lanes
     * past maxm zeroed, so their outcome is pinned at Unace). The
     * setup is a pure function of the window's domain tuple, and
     * interleaved layouts repeat a handful of tuples across a row —
     * so the census validates a hashed cache entry with one memcmp
     * instead of rediscovering regions and refilling tables.
     */
    struct SetupEntry
    {
        unsigned maxm = 0;
        unsigned numRegions = 0;
        std::array<DomainId, maxModeBits> domains{}; ///< the key
        std::array<std::uint64_t, maxModeBits> regionMembers{};
        /**
         * Per-region lane action masks, detected and undetected
         * planes adjacent per region so one base pointer serves
         * both: [reg][plane(det=0, undet=1)][block][lane].
         */
        Vec<std::uint32_t> actDet;
    };

    /**
     * Resolve the setup index for the anchor at @p c. Entries are
     * appended per row (slot collisions orphan the old entry but
     * never invalidate its index, so the per-row anchorSetup_
     * references stay stable); the cache resets between rows.
     */
    std::uint32_t
    regionSetup(const RowState &row, std::uint64_t c, unsigned maxm)
    {
        for (unsigned i = 0; i < maxm; ++i)
            window_[i] = row.cols[c + i].domain;
        const std::size_t key_bytes = maxm * sizeof(DomainId);
        std::uint64_t h = 1469598103934665603ull ^ maxm;
        for (unsigned i = 0; i < maxm; ++i)
            h = (h ^ window_[i]) * 1099511628211ull;
        const unsigned slot =
            static_cast<unsigned>(h) & (kSetupSlots - 1);
        const std::uint32_t cached = setupSlots_[slot];
        if (cached != ~std::uint32_t(0)) {
            const SetupEntry &e = setups_[cached];
            if (e.maxm == maxm &&
                std::memcmp(e.domains.data(), window_.data(),
                            key_bytes) == 0) {
                return cached;
            }
        }
        const std::uint32_t idx =
            static_cast<std::uint32_t>(numSetups_++);
        if (setups_.size() <= idx)
            setups_.emplace_back();
        setupSlots_[slot] = idx;
        SetupEntry &e = setups_[idx];
        e.maxm = maxm;
        std::memcpy(e.domains.data(), window_.data(), key_bytes);
        e.numRegions = 0;
        for (unsigned i = 0; i < maxm; ++i) {
            unsigned reg = 0;
            for (; reg < e.numRegions; ++reg) {
                if (regionDomains_[reg] == window_[i])
                    break;
            }
            if (reg == e.numRegions) {
                regionDomains_[e.numRegions] = window_[i];
                e.regionMembers[e.numRegions] = 0;
                ++e.numRegions;
            }
            e.regionMembers[reg] |= std::uint64_t(1) << i;
        }
        const unsigned blocks = (maxm + kLanes - 1) / kLanes;
        e.actDet.assign(std::size_t(e.numRegions) * 2 * blocksMax_ *
                            kLanes,
                        0);
        for (unsigned reg = 0; reg < e.numRegions; ++reg) {
            std::uint32_t *det_plane =
                e.actDet.data() +
                std::size_t(reg) * 2 * blocksMax_ * kLanes;
            std::uint32_t *undet_plane =
                det_plane + std::size_t(blocksMax_) * kLanes;
            for (unsigned blk = 0; blk < blocks; ++blk) {
                for (unsigned j = 0; j < kLanes; ++j) {
                    const unsigned p = blk * kLanes + j + 1;
                    if (p > maxm)
                        continue;
                    const unsigned size = static_cast<unsigned>(
                        popCount(e.regionMembers[reg] & lowMask(p)));
                    const FaultAction action = ctx_.actionOf[size];
                    const std::size_t at = blk * kLanes + j;
                    det_plane[at] =
                        action == FaultAction::Detected ? ~0u : 0u;
                    undet_plane[at] =
                        action == FaultAction::Undetected ? ~0u : 0u;
                }
            }
        }
        return idx;
    }

    const SweepCtx &ctx_;
    ModeAccumulators &out_;
    SweepTallies &tallies_;
    const std::uint64_t cols_;
    const unsigned maxMode_;
    const unsigned blocksMax_;
    const Cycle *segBegin_;
    const Cycle *segEnd_;
    const SegMasks *segMasks_;

    Vec<RowState> rows_;

    // Sweepline state: word cursors, the transition heap, and the
    // per-column live/read bitsets they maintain.
    Vec<WordCursor> cursors_;
    Vec<HeapItem> heap_;
    Vec<std::uint64_t> colLive_;
    Vec<std::uint64_t> colRead_;
    Vec<std::uint64_t> anchorTouch_;
    /** Word range of the touch bitmap holding any set bit. */
    std::uint64_t touchLo_ = ~std::uint64_t(0);
    std::uint64_t touchHi_ = 0;

    // Per-anchor state for the current row: outcome codes, run
    // starts, setup indices, and the flush list.
    Vec<std::uint32_t> anchorOut_;
    Vec<Cycle> anchorSince_;
    Vec<std::uint32_t> anchorSetup_;
    Vec<std::uint32_t> activeAnchors_;
    /** Last packed region thresholds per anchor (update skipping). */
    Vec<std::uint64_t> anchorSigLive_;
    Vec<std::uint64_t> anchorSigRead_;

    // Setup cache (reset per row in census; see regionSetup).
    Vec<SetupEntry> setups_;
    std::size_t numSetups_ = 0;
    std::array<std::uint32_t, kSetupSlots> setupSlots_;
    std::array<DomainId, maxModeBits> window_{};
    std::array<DomainId, maxModeBits> regionDomains_{};

    // Emission tensors, folded once at the end of the band sweep.
    unsigned numWindows_ = 0;
    unsigned winShift_ = 0;
    unsigned curWin_ = 0; ///< window the sweep time is inside
    std::array<Cycle *, 3> depositBase_{};
    Vec<Cycle> totalsAcc_;
    Vec<Cycle> winAcc_;
    Vec<Cycle> bounds_;
    Vec<std::uint32_t> winTable_;
};

/** Sweep anchor rows [row_begin, row_end) with this build. */
inline void
sweepRowsLanes(const SweepCtx &ctx, std::uint64_t row_begin,
               std::uint64_t row_end, ModeAccumulators &out,
               SweepTallies &tallies)
{
    LaneSweeper sweeper(ctx, out, tallies);
    sweeper.sweepRows(row_begin, row_end);
}

} // namespace
} // namespace detail
} // namespace mbavf

#endif // MBAVF_CORE_LANE_KERNEL_HH

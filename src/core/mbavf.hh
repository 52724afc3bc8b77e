/**
 * @file
 * The multi-bit AVF engine (paper Sections IV, V, VII).
 *
 * Given a physical array layout, the per-bit ACE lifetimes of the
 * structure, a protection scheme, and a fault mode, computeMbAvf()
 * enumerates every fault group of the mode, splits it into overlapped
 * regions by protection domain, classifies each region per cycle
 * (Eq. 5-6), combines regions into a group outcome (Eq. 7), and
 * integrates over groups and time (Eq. 2). Results are reported as
 * separate SDC / true-DUE / false-DUE AVF fractions, optionally
 * bucketed into time windows for AVF-over-time plots.
 */

#ifndef MBAVF_CORE_MBAVF_HH
#define MBAVF_CORE_MBAVF_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/fault_mode.hh"
#include "core/layout.hh"
#include "core/lifetime.hh"
#include "core/protection.hh"

namespace mbavf
{

/** AVF split by outcome class; each is a fraction of group-cycles. */
struct AvfFractions
{
    double sdc = 0.0;
    double trueDue = 0.0;
    double falseDue = 0.0;

    /** Total detected-uncorrected AVF (true + false DUE). */
    double due() const { return trueDue + falseDue; }

    /** Total AVF over all error classes. */
    double total() const { return sdc + trueDue + falseDue; }
};

/** Options controlling an MB-AVF computation. */
struct MbAvfOptions
{
    /** Measurement horizon N in cycles (must be nonzero). */
    Cycle horizon = 0;

    /**
     * When true, a group with both DUE-ACE and SDC-ACE regions counts
     * as DUE: the detection fires before the corrupted data reaches
     * program output. This models the paper's inter-thread VGPR
     * interleaving, where all regions of a group are read in the same
     * 16-thread operation (Section VIII). Default (false) is the
     * conservative cache rule: SDC takes precedence.
     */
    bool dueShieldsSdc = false;

    /** Number of equal time windows for AVF-over-time (0 = none). */
    unsigned numWindows = 0;

    /**
     * Worker threads for the group sweep. 1 = serial, inline.
     * Anything else runs row bands on the shared process-wide pool
     * (common/parallel.hh): 0 uses the pool as sized by
     * MBAVF_THREADS / the hardware, N > 1 first grows the pool to at
     * least N. Results are bit-identical at every setting — the band
     * partition is thread-count independent and partials merge in
     * band order.
     */
    unsigned numThreads = 1;

    /**
     * Force sweepModes() onto the original one-mode-at-a-time path
     * (computeMbAvf per mode) instead of the single-pass multi-mode
     * arena kernel. The two are bit-identical at any thread count;
     * the reference path exists for differential testing and for
     * bench/micro_sweep_kernel's before/after measurement.
     */
    bool referenceKernel = false;
};

/** Result of one MB-AVF computation. */
struct MbAvfResult
{
    /** Whole-run AVF fractions (Eq. 2, per outcome class). */
    AvfFractions avf;

    /** Per-window AVF fractions when numWindows > 0. */
    std::vector<AvfFractions> windows;

    /**
     * Raw integer group-cycle totals per outcome class
     * {SDC, TrueDue, FalseDue} before division by
     * numGroups * horizon. Exact: the attribution engine
     * (analyze/attribution.hh) conserves these sums bit-for-bit,
     * which a comparison of rounded fractions could not witness.
     */
    std::array<Cycle, 3> cycles = {0, 0, 0};

    /** Number of fault groups G of the mode in the array. */
    std::uint64_t numGroups = 0;

    /** Measurement horizon N. */
    Cycle horizon = 0;
};

/**
 * Compute the MB-AVF of @p mode on @p array protected by @p scheme,
 * using the ACE lifetimes in @p store.
 */
MbAvfResult computeMbAvf(const PhysicalArray &array,
                         const LifetimeStore &store,
                         const ProtectionScheme &scheme,
                         const FaultMode &mode,
                         const MbAvfOptions &opt);

class LifetimeArena;

/**
 * Single-pass multi-mode sweep kernel: compute the MB-AVF of every
 * contiguous wordline mode 1x1 .. (max_mode)x1 in one traversal of
 * the array.
 *
 * Each row is swept once in global time order over the flat arena:
 * a word's segment transition updates per-column live/read bitsets,
 * and only the anchors whose window holds a changed column are
 * re-classified. Lane j of block B carries the prefix group of
 * length B*L + j + 1, so one vector op advances the L modes of a
 * block at once (core/lane_kernel.hh). The kernel runs as an AVX2
 * build when the host supports it and as a portable build otherwise.
 *
 * results[m-1] is bit-identical to
 * computeMbAvf(array, store, scheme, mx1(m), opt) — AVF fractions,
 * window series, and group counts — at any thread count.
 */
std::vector<MbAvfResult> computeMbAvfModes(const PhysicalArray &array,
                                           const LifetimeArena &arena,
                                           const ProtectionScheme &scheme,
                                           const MbAvfOptions &opt,
                                           unsigned max_mode);

/**
 * Convenience: single-bit AVF of the structure (a 1x1 "multi-bit"
 * mode; Eq. 1 falls out of Eq. 2 at M = 1).
 */
MbAvfResult computeSbAvf(const PhysicalArray &array,
                         const LifetimeStore &store,
                         const ProtectionScheme &scheme,
                         const MbAvfOptions &opt);

} // namespace mbavf

#endif // MBAVF_CORE_MBAVF_HH

/**
 * @file
 * Internals shared by the sweep-kernel translation units.
 *
 * The single-pass multi-mode kernel has two implementations: the
 * portable scalar kernel in core/mbavf.cc (the differential oracle
 * and non-x86 fallback) and the AVX2 lane-per-prefix kernel in
 * core/mbavf_kernel_avx2.cc, compiled with -mavx2 and selected at
 * runtime. Both emit into the same accumulator types, so the pieces
 * they share live here.
 *
 * This header is internal to src/core — not part of the public API.
 * The accumulator methods with loops are deliberately defined
 * out-of-line (core/mbavf_kernel.cc, compiled without -mavx2): if
 * they were inline, the linker could keep the AVX2-compiled copy of
 * a shared weak symbol and feed illegal instructions to the scalar
 * path on pre-AVX2 hardware.
 */

#ifndef MBAVF_CORE_MBAVF_KERNEL_HH
#define MBAVF_CORE_MBAVF_KERNEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/ace_class.hh"
#include "core/layout.hh"
#include "core/protection.hh"

namespace mbavf
{

class LifetimeArena;

namespace detail
{

/** Largest fault-mode size the sweep kernel supports. */
constexpr unsigned maxModeBits = 64;

/**
 * Classify one region (bits of the group sharing a protection domain)
 * given the ACE classes present among its member bits and the action
 * the scheme takes on this region's flip count.
 */
inline Outcome
classifyRegion(FaultAction action, bool any_ace_live, bool any_read)
{
    switch (action) {
      case FaultAction::Corrected:
        return Outcome::Unace;
      case FaultAction::Detected:
        if (any_ace_live)
            return Outcome::TrueDue;
        if (any_read)
            return Outcome::FalseDue;
        return Outcome::Unace;
      case FaultAction::Undetected:
        if (any_ace_live)
            return Outcome::Sdc;
        return Outcome::Unace;
    }
    panic("unreachable fault action");
}

/**
 * Combine region outcomes into the group outcome. Default precedence
 * is SDC > trueDUE > falseDUE > unACE; with due_shields_sdc a
 * detected region converts would-be SDC into a true DUE.
 */
inline Outcome
combineOutcomes(bool has_sdc, bool has_true_due, bool has_false_due,
                bool due_shields_sdc)
{
    if (has_sdc && has_true_due && due_shields_sdc)
        return Outcome::TrueDue;
    if (has_sdc)
        return Outcome::Sdc;
    if (has_true_due)
        return Outcome::TrueDue;
    if (has_false_due)
        return Outcome::FalseDue;
    return Outcome::Unace;
}

/** Accumulates outcome time, whole-run and per-window. */
class OutcomeAccumulator
{
  public:
    OutcomeAccumulator(Cycle horizon, unsigned num_windows);

    /** Exact integer window boundary: window w covers
     *  [bound(w), bound(w+1)). */
    Cycle bound(unsigned w) const { return bounds_[w]; }

    void add(Outcome outcome, Cycle begin, Cycle end);

    /** Group-sweep sink entry (core/group_sweep.hh): class totals
     *  never look up the charged member. */
    template <typename Charged>
    void
    add(Outcome outcome, Cycle begin, Cycle end, const Charged &)
    {
        add(outcome, begin, end);
    }

    /**
     * Raw deposits for kernels that accumulate class/window time in
     * flat local tensors and fold once at the end (the AVX2 kernel):
     * @p idx is a classIndex() value. Exactly additive with add() —
     * folding partial sums deposits the same integers.
     */
    void addRaw(unsigned idx, Cycle amount);
    void addWindowRaw(unsigned window, unsigned idx, Cycle amount);

    unsigned numWindows() const { return numWindows_; }

    const std::array<Cycle, 3> &totals() const { return totals_; }

    Cycle
    windowTotal(unsigned window, unsigned idx) const
    {
        return windows_[std::size_t(window) * 3 + idx];
    }

    /** Fold another accumulator's counts in (exact integer sums). */
    void mergeFrom(const OutcomeAccumulator &other);

    static unsigned
    classIndex(Outcome outcome)
    {
        switch (outcome) {
          case Outcome::Sdc: return 0;
          case Outcome::TrueDue: return 1;
          case Outcome::FalseDue: return 2;
          default: panic("no class index for unACE");
        }
    }

  private:
    Cycle horizon_;
    unsigned numWindows_;
    unsigned hint_ = 0; ///< window that absorbed the last add()
    std::array<Cycle, 3> totals_ = {0, 0, 0};
    std::vector<Cycle> windows_;
    std::vector<Cycle> bounds_;
};

/**
 * One change point of a single physical bit's lifetime: from @c at
 * onward the bit is ACE-live and/or read-shadowed, until the bit's
 * next event. Both zero is equivalent to a lifetime gap. Events at
 * or after the sweep horizon are never materialized — they cannot
 * open a slice, and a close at exactly the horizon would collide
 * with the kernels' no-pending-event sentinel when the horizon is
 * UINT64_MAX (open runs are flushed to the horizon instead).
 */
struct BitEvent
{
    Cycle at;
    std::uint8_t live;
    std::uint8_t read;
};

/** One OutcomeAccumulator per mode, merged pairwise in band order. */
struct ModeAccumulators
{
    std::vector<OutcomeAccumulator> modes;

    ModeAccumulators(Cycle horizon, unsigned num_windows,
                     unsigned max_mode);

    void mergeFrom(const ModeAccumulators &other);
};

/** Inputs of one multi-mode row-band sweep, shared by both kernels. */
struct SweepCtx
{
    const PhysicalArray *array = nullptr;
    const LifetimeArena *arena = nullptr;
    Cycle horizon = 0;
    bool dueShields = false;
    unsigned maxMode = 0;
    /** Memoized scheme.action(k), k in [0, maxModeBits]. */
    const FaultAction *actionOf = nullptr;
};

/** Work counters a band sweep reports back to the obs metrics. */
struct SweepTallies
{
    std::uint64_t groups = 0;
    std::uint64_t anchors = 0;
};

/**
 * True when the AVX2 kernel is compiled in (MBAVF_SIMD on x86-64)
 * and this CPU supports AVX2. Cheap enough to query per call.
 */
bool avx2KernelAvailable();

/**
 * AVX2 lane-per-prefix row-band sweep: process anchor rows
 * [row_begin, row_end), accumulating every mode 1x1..maxMode x1 into
 * @p out. Bit-identical to the scalar kernel in core/mbavf.cc —
 * same elementary slices, same run coalescing rule, same counters.
 * Must only be called when avx2KernelAvailable() is true.
 */
void sweepRowsAvx2(const SweepCtx &ctx, std::uint64_t row_begin,
                   std::uint64_t row_end, ModeAccumulators &out,
                   SweepTallies &tallies);

} // namespace detail
} // namespace mbavf

#endif // MBAVF_CORE_MBAVF_KERNEL_HH

/**
 * @file
 * Golden-run liveness map: for every register container and memory
 * byte, the injection triggers at which a flip of it is ever read.
 *
 * The stamp rule. A flip armed at trigger T fires just before
 * dynamic instruction T executes (Gpu::preInstruction), while the
 * instruction counter still reads T; every access that instruction
 * makes is stamped T + 1, and host accesses between launches carry
 * the current count. So an access stamped s comes after exactly the
 * flips whose trigger is below s. A write stamped w replaces the
 * whole word and kills every earlier flip of it, and a read stamped
 * s observes the flips with triggers in [w, s), w being the stamp of
 * the word's last earlier write (0 if none). The union of those
 * spans over the golden run is the word's exposed set.
 *
 * A flip whose trigger lies outside its word's exposed set is
 * overwritten before any read or never read again: the execution it
 * arms is the golden run's, step for step. Campaign::runOne settles
 * such trials Masked without simulating them (see campaign.hh for
 * the conditions that must also hold).
 */

#ifndef MBAVF_INJECT_LIVENESS_HH
#define MBAVF_INJECT_LIVENESS_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gpu/gpu.hh"
#include "mem/memory.hh"

namespace mbavf
{

/**
 * A half-open span of injection triggers [begin, end). Stamps are
 * 32-bit to keep the map small; a run too long for them records an
 * empty map (LivenessRecorder::finish).
 */
struct TriggerSpan
{
    std::uint32_t begin = 0;
    std::uint32_t end = 0;

    bool operator==(const TriggerSpan &other) const = default;
};

/**
 * Exposed trigger spans per word, flattened: the spans of word w
 * are spans_[offsets_[w], offsets_[w + 1]), ascending, disjoint and
 * non-adjacent. Immutable once built, so any number of threads may
 * query it.
 */
class LivenessMap
{
  public:
    /** Words the map covers; a word at or past this is unknown. */
    std::uint64_t
    words() const
    {
        return offsets_.empty() ? 0 : offsets_.size() - 1;
    }

    /** The exposed spans of @p word (< words()). */
    std::span<const TriggerSpan>
    spans(std::uint64_t word) const
    {
        return {spans_.data() + offsets_[word],
                spans_.data() + offsets_[word + 1]};
    }

    /**
     * True when a read observes a flip of @p word (< words()) armed
     * at @p trigger.
     */
    bool exposed(std::uint64_t word, std::uint64_t trigger) const;

  private:
    friend class LivenessBuilder;

    std::vector<std::uint32_t> offsets_;
    std::vector<TriggerSpan> spans_;
};

/**
 * Builds a LivenessMap online from a stream of stamped accesses.
 * Stamps must never decrease. Per word it keeps the last write's
 * stamp and the open span, closing a span only when a later read
 * cannot extend it, so the merged spans come out in order.
 */
class LivenessBuilder
{
  public:
    /** Words [@p word, @p word + @p count) read at @p stamp. */
    void
    read(std::uint64_t word, std::uint64_t count, std::uint32_t stamp)
    {
        grow(word + count);
        for (std::uint64_t w = word; w < word + count; ++w) {
            WordState &st = state_[w];
            // A write in the same instruction already killed every
            // flip this read could see.
            if (stamp <= st.lastWrite)
                continue;
            if (st.lastWrite > st.end) {
                if (st.end > st.begin)
                    closed_.push_back({w, {st.begin, st.end}});
                st.begin = st.lastWrite;
            }
            st.end = stamp;
        }
    }

    /** Words [@p word, @p word + @p count) overwritten at @p stamp. */
    void
    write(std::uint64_t word, std::uint64_t count, std::uint32_t stamp)
    {
        grow(word + count);
        for (std::uint64_t w = word; w < word + count; ++w)
            state_[w].lastWrite = stamp;
    }

    /**
     * Flatten words [0, @p words) into a map; accesses to later
     * words are dropped. More spans than 32-bit offsets can index
     * yield an empty map. Releases the builder's state.
     */
    LivenessMap finish(std::uint64_t words);

  private:
    struct WordState
    {
        std::uint32_t lastWrite = 0;
        std::uint32_t begin = 0; ///< open span [begin, end)
        std::uint32_t end = 0;
    };

    void
    grow(std::uint64_t words)
    {
        if (words > state_.size())
            state_.resize(words);
    }

    std::vector<WordState> state_;
    std::vector<std::pair<std::uint64_t, TriggerSpan>> closed_;
};

/**
 * Word numbering of a device's state in the map: the register
 * containers of CU c come first, as c x containers-per-CU + regId,
 * then memory byte a as registerWords() + a.
 */
inline std::uint64_t
registerWords(const GpuConfig &config)
{
    return std::uint64_t(config.numCus) * config.regs.numContainers();
}

inline std::uint64_t
livenessWord(const GpuConfig &config, const RegInjection &flip)
{
    return std::uint64_t(flip.cu) * config.regs.numContainers() +
           config.regs.regId(flip.slot, flip.reg, flip.lane);
}

inline std::uint64_t
livenessWord(const GpuConfig &config, const MemInjection &flip)
{
    return registerWords(config) + flip.addr;
}

/**
 * Records one Gpu's execution into a LivenessBuilder: hooks every
 * register file and the memory as their AccessObserver, stamping
 * each access with the device's instruction count.
 */
class LivenessRecorder final : public AccessObserver
{
  public:
    explicit LivenessRecorder(Gpu &gpu);
    ~LivenessRecorder() override;

    LivenessRecorder(const LivenessRecorder &) = delete;
    LivenessRecorder &operator=(const LivenessRecorder &) = delete;

    void
    onRead(std::uint64_t word, std::uint64_t count) override
    {
        builder_.read(word, count,
                      static_cast<std::uint32_t>(gpu_.instrCount()));
    }

    void
    onWrite(std::uint64_t word, std::uint64_t count) override
    {
        builder_.write(word, count,
                       static_cast<std::uint32_t>(gpu_.instrCount()));
    }

    /**
     * Detach from the device and flatten the registers plus the
     * memory bytes below @p footprint into a map. A run whose
     * instruction count does not fit the 32-bit stamps yields an
     * empty map, which proves nothing dead.
     */
    LivenessMap finish(Addr footprint);

  private:
    void detach();

    Gpu &gpu_;
    LivenessBuilder builder_;
};

} // namespace mbavf

#endif // MBAVF_INJECT_LIVENESS_HH

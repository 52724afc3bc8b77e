/**
 * @file
 * Vector general-purpose register file (VGPR) of one compute unit.
 *
 * Stores tracked values per (wave slot, register, lane) and notifies
 * a listener of every read and write with cycle timestamps — the
 * event stream the VGPR ACE analysis is built from. Fault injection
 * flips bits directly in the backing store.
 *
 * get() and set() are the only ways a value leaves or enters the
 * store, so an AccessObserver hooked there sees every observation of
 * a register by any lane loop or by Wave::peek().
 */

#ifndef MBAVF_GPU_REGFILE_HH
#define MBAVF_GPU_REGFILE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/layout.hh"
#include "gpu/value.hh"
#include "mem/memory.hh"

namespace mbavf
{

/** Observer of register-file events. */
class RegFileListener
{
  public:
    virtual ~RegFileListener() = default;

    /**
     * Full 32-bit write of @p container at cycle @p t. @p tag is the
     * static instruction performing the write (noInstrTag when the
     * producer is untracked).
     */
    virtual void onRegWrite(std::uint64_t container, Cycle t,
                            InstrTag tag) = 0;

    /**
     * Read of @p container at cycle @p t by definition @p def.
     * @p consume_mask holds the value bits the use can propagate;
     * @p exact selects bit-positional refinement by the consumer's
     * resolved relevance (see WordEvent::exact).
     */
    virtual void onRegRead(std::uint64_t container, Cycle t,
                           std::uint32_t consume_mask, DefId def,
                           bool exact) = 0;
};

/** The VGPR of one compute unit. */
class VectorRegFile
{
  public:
    explicit VectorRegFile(const RegFileGeometry &geom);

    const RegFileGeometry &geometry() const { return geom_; }

    const Value &
    get(unsigned slot, unsigned reg, unsigned lane) const
    {
        const std::uint64_t id = geom_.regId(slot, reg, lane);
        if (observer_)
            observer_->onRead(observerBase_ + id, 1);
        return values_[id];
    }

    /** Write a register and notify the listener. */
    void
    set(unsigned slot, unsigned reg, unsigned lane, const Value &value,
        Cycle t, InstrTag tag = noInstrTag)
    {
        const std::uint64_t id = geom_.regId(slot, reg, lane);
        if (observer_)
            observer_->onWrite(observerBase_ + id, 1);
        values_[id] = value;
        ++writes_;
        if (listener_)
            listener_->onRegWrite(id, t, tag);
    }

    /** Record a read (the caller fetched the value via get()). */
    void noteRead(unsigned slot, unsigned reg, unsigned lane, Cycle t,
                  std::uint32_t consume_mask, DefId def, bool exact);

    /** Fault injection: flip @p mask bits; no event is recorded. */
    void flipBits(unsigned slot, unsigned reg, unsigned lane,
                  std::uint32_t mask);

    void setListener(RegFileListener *listener) { listener_ = listener; }

    /**
     * Report every get() and set() to @p observer (nullptr
     * detaches), container id c as word @p base + c. Unlike the
     * listener, which sees the tracked read events, the observer
     * sees every value access whether or not tracking is on.
     */
    void
    setObserver(AccessObserver *observer, std::uint64_t base = 0)
    {
        observer_ = observer;
        observerBase_ = base;
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

  private:
    RegFileGeometry geom_;
    std::vector<Value> values_;
    RegFileListener *listener_ = nullptr;
    AccessObserver *observer_ = nullptr;
    std::uint64_t observerBase_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace mbavf

#endif // MBAVF_GPU_REGFILE_HH

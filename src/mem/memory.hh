/**
 * @file
 * Flat functional main memory.
 *
 * Holds the simulated system's data contents plus per-byte dataflow
 * provenance: which dynamic definition produced each byte and which
 * byte of that definition's 32-bit value it is. Caches model timing
 * and residency only; data always lives here, which keeps functional
 * execution and fault injection simple.
 *
 * The data array is an anonymous private mapping: the kernel hands
 * out zero pages on first touch, so a device pays only for the pages
 * its workload uses rather than zero-filling the whole address space
 * (an injection campaign builds one device per trial).
 *
 * The provenance array is sized to the footprint, not the address
 * space: it stays empty until the first real (non-noDef) provenance
 * write, which grows it to cover the allocator's high-water mark and
 * the written bytes; a byte past its end reads noDef. A tracked run
 * so pays for the bytes its workload allocates, and an untracked one
 * for none.
 */

#ifndef MBAVF_MEM_MEMORY_HH
#define MBAVF_MEM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mbavf
{

/** Provenance of one memory byte. */
struct ByteOrigin
{
    DefId def = noDef;
    /** Which byte (0-3) of the producing 32-bit value this is. */
    std::uint8_t byteIdx = 0;
};

/**
 * Observer of every read and write of architectural data: register
 * containers and memory bytes, numbered as words in one space chosen
 * by whoever attaches it. An injection campaign attaches one to a
 * repeat of its golden run only, to learn which flips a later read
 * could observe (inject/liveness.hh); every other execution leaves
 * it unset, and each access site pays one null-pointer branch.
 */
class AccessObserver
{
  public:
    virtual ~AccessObserver() = default;

    /** Words [@p word, @p word + @p count) were read. */
    virtual void onRead(std::uint64_t word, std::uint64_t count) = 0;

    /** Words [@p word, @p word + @p count) were overwritten whole. */
    virtual void onWrite(std::uint64_t word, std::uint64_t count) = 0;
};

/** Flat byte-addressable memory with a bump allocator. */
class MainMemory
{
  public:
    explicit MainMemory(std::uint64_t size_bytes);
    ~MainMemory();

    MainMemory(const MainMemory &) = delete;
    MainMemory &operator=(const MainMemory &) = delete;

    std::uint64_t size() const { return size_; }

    /** Allocate @p bytes aligned to @p align; fatal on exhaustion. */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 64);

    /** High-water mark of the bump allocator. */
    Addr allocatedBytes() const { return allocPtr_; }

    /**
     * Report every data access to @p observer (nullptr detaches),
     * byte @p addr as word @p base + addr.
     */
    void
    setObserver(AccessObserver *observer, std::uint64_t base = 0)
    {
        observer_ = observer;
        observerBase_ = base;
    }

    std::uint8_t
    read8(Addr addr) const
    {
        checkRange(addr, 1);
        noteRead(addr, 1);
        return data_[addr];
    }

    std::uint32_t
    read32(Addr addr) const
    {
        checkRange(addr, 4);
        noteRead(addr, 4);
        const std::uint8_t *p = data_ + addr;
        return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
               std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
    }

    /** Bulk copy of [addr, addr+bytes) appended onto @p out. */
    void readBlock(Addr addr, std::uint64_t bytes,
                   std::vector<std::uint8_t> &out) const;

    void
    write8(Addr addr, std::uint8_t value)
    {
        checkRange(addr, 1);
        noteWrite(addr, 1);
        data_[addr] = value;
    }

    void
    write32(Addr addr, std::uint32_t value)
    {
        checkRange(addr, 4);
        noteWrite(addr, 4);
        std::uint8_t *p = data_ + addr;
        for (unsigned i = 0; i < 4; ++i)
            p[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }

    /** Provenance of byte @p addr. */
    ByteOrigin
    origin(Addr addr) const
    {
        if (addr < origins_.size())
            return origins_[addr];
        checkRange(addr, 1);
        return ByteOrigin{};
    }

    /** Record that @p size bytes at @p addr hold @p def's value. */
    void setOrigin(Addr addr, unsigned size, DefId def);

    /** Host store of a 32-bit value (no provenance). */
    void
    hostWrite32(Addr addr, std::uint32_t value)
    {
        write32(addr, value);
        setOrigin(addr, 4, noDef);
    }

  private:
    void
    checkRange(Addr addr, std::uint64_t size) const
    {
        // Fault-reachable: a flipped address register can direct an
        // access anywhere. Trap instead of panicking so an injection
        // trial classifies Crash rather than aborting the process.
        if (addr + size > size_)
            rangeTrap(addr, size);
    }

    [[noreturn]] void rangeTrap(Addr addr, std::uint64_t size) const;

    void
    noteRead(Addr addr, std::uint64_t size) const
    {
        if (observer_)
            observer_->onRead(observerBase_ + addr, size);
    }

    void
    noteWrite(Addr addr, std::uint64_t size) const
    {
        if (observer_)
            observer_->onWrite(observerBase_ + addr, size);
    }

    std::uint8_t *data_ = nullptr; ///< size_ bytes, zero until written
    std::uint64_t size_ = 0;
    std::vector<ByteOrigin> origins_; ///< the footprint's provenance
    Addr allocPtr_ = 0;
    AccessObserver *observer_ = nullptr;
    std::uint64_t observerBase_ = 0;
};

} // namespace mbavf

#endif // MBAVF_MEM_MEMORY_HH

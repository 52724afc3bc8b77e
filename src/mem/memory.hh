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

    std::uint8_t
    read8(Addr addr) const
    {
        checkRange(addr, 1);
        return data_[addr];
    }

    std::uint32_t
    read32(Addr addr) const
    {
        checkRange(addr, 4);
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
        data_[addr] = value;
    }

    void
    write32(Addr addr, std::uint32_t value)
    {
        checkRange(addr, 4);
        std::uint8_t *p = data_ + addr;
        for (unsigned i = 0; i < 4; ++i)
            p[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }

    /** Provenance of byte @p addr. */
    ByteOrigin origin(Addr addr) const;

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

    std::uint8_t *data_ = nullptr; ///< size_ bytes, zero until written
    std::uint64_t size_ = 0;
    std::vector<ByteOrigin> origins_;
    Addr allocPtr_ = 0;
};

} // namespace mbavf

#endif // MBAVF_MEM_MEMORY_HH

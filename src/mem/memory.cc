#include "mem/memory.hh"

#include <sys/mman.h>

#include <algorithm>

#include "common/logging.hh"
#include "common/trap.hh"

namespace mbavf
{

MainMemory::MainMemory(std::uint64_t size_bytes)
    : size_(size_bytes)
{
    // origins_ grows on the first real provenance write: fault-
    // injection runs never track provenance.
    void *pages = ::mmap(nullptr, size_bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED)
        fatal("MainMemory: cannot map ", size_bytes, " bytes");
    data_ = static_cast<std::uint8_t *>(pages);
}

MainMemory::~MainMemory()
{
    ::munmap(data_, size_);
}

Addr
MainMemory::alloc(std::uint64_t bytes, std::uint64_t align)
{
    Addr base = (allocPtr_ + align - 1) / align * align;
    if (base + bytes > size_) {
        fatal("MainMemory exhausted: need ", bytes, " at ", base,
              " of ", size_);
    }
    allocPtr_ = base + bytes;
    return base;
}

void
MainMemory::rangeTrap(Addr addr, std::uint64_t size) const
{
    simTrap(trapcode::memOob, "memory access out of range: ", addr,
            "+", size, " of ", size_);
}

void
MainMemory::readBlock(Addr addr, std::uint64_t bytes,
                      std::vector<std::uint8_t> &out) const
{
    if (bytes == 0)
        return;
    checkRange(addr, bytes);
    noteRead(addr, bytes);
    out.insert(out.end(), data_ + addr, data_ + addr + bytes);
}

void
MainMemory::setOrigin(Addr addr, unsigned size, DefId def)
{
    checkRange(addr, size);
    const Addr end = addr + size;
    if (end > origins_.size()) {
        if (def == noDef) {
            // Bytes past the end already read noDef.
            if (addr >= origins_.size())
                return;
            size = static_cast<unsigned>(origins_.size() - addr);
        } else {
            origins_.resize(std::max<Addr>(end, allocPtr_));
        }
    }
    for (unsigned i = 0; i < size; ++i)
        origins_[addr + i] = {def, static_cast<std::uint8_t>(i)};
}

} // namespace mbavf

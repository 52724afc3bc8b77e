/**
 * @file
 * Tests for MainMemory and the program-order reference index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/trap.hh"
#include "mem/memory.hh"
#include "mem/ref_index.hh"

namespace mbavf
{
namespace
{

TEST(MainMemory, ReadWriteRoundTrip)
{
    MainMemory mem(1024);
    mem.write32(16, 0xDEADBEEF);
    EXPECT_EQ(mem.read32(16), 0xDEADBEEFu);
    EXPECT_EQ(mem.read8(16), 0xEFu); // little-endian
    EXPECT_EQ(mem.read8(19), 0xDEu);
}

TEST(MainMemory, AllocAligns)
{
    MainMemory mem(4096);
    Addr a = mem.alloc(10, 64);
    Addr b = mem.alloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
}

TEST(MainMemory, AllocExhaustionIsFatal)
{
    MainMemory mem(128);
    EXPECT_DEATH(mem.alloc(1024), "exhausted");
}

TEST(MainMemory, OutOfRangeTraps)
{
    MainMemory mem(16);
    try {
        mem.read32(14);
        FAIL() << "out-of-range read did not trap";
    } catch (const SimTrap &trap) {
        EXPECT_EQ(trap.code(), trapcode::memOob);
        EXPECT_NE(std::string(trap.what()).find("out of range"),
                  std::string::npos);
    }
}

TEST(MainMemory, NeverWrittenReadsZero)
{
    // Fresh device memory reads as zero everywhere in range, also
    // on pages nothing has touched, and next to a written word.
    const std::uint64_t size = std::uint64_t(4) << 20;
    MainMemory mem(size);
    mem.write32(4096, 0xFFFFFFFF);
    for (Addr a : {Addr(0), Addr(4092), Addr(4100), Addr(size / 2),
                   size - 4}) {
        EXPECT_EQ(mem.read32(a), 0u) << a;
        EXPECT_EQ(mem.read8(a + 3), 0u) << a;
    }
    std::vector<std::uint8_t> block;
    mem.readBlock(size - 8192, 8192, block);
    ASSERT_EQ(block.size(), 8192u);
    EXPECT_EQ(std::count(block.begin(), block.end(), 0), 8192);
}

TEST(MainMemory, LastWordRoundTrips)
{
    const std::uint64_t size = std::uint64_t(4) << 20;
    MainMemory mem(size);
    mem.write32(size - 4, 0xA1B2C3D4);
    EXPECT_EQ(mem.read32(size - 4), 0xA1B2C3D4u);
    EXPECT_EQ(mem.read8(size - 1), 0xA1u);
    mem.write8(size - 1, 0x5A);
    EXPECT_EQ(mem.read32(size - 4), 0x5AB2C3D4u);
    std::vector<std::uint8_t> block;
    mem.readBlock(size - 4, 4, block);
    EXPECT_EQ(block, (std::vector<std::uint8_t>{0xD4, 0xC3, 0xB2, 0x5A}));
}

TEST(MainMemory, AccessAtSizeTraps)
{
    const std::uint64_t size = std::uint64_t(4) << 20;
    MainMemory mem(size);
    std::vector<std::uint8_t> block;
    auto expectOob = [](const std::function<void()> &access) {
        try {
            access();
            ADD_FAILURE() << "access at the memory size did not trap";
        } catch (const SimTrap &trap) {
            EXPECT_EQ(trap.code(), trapcode::memOob);
        }
    };
    expectOob([&] { mem.read8(size); });
    expectOob([&] { mem.read32(size); });
    expectOob([&] { mem.read32(size - 2); });
    expectOob([&] { mem.write8(size, 1); });
    expectOob([&] { mem.write32(size, 1); });
    expectOob([&] { mem.readBlock(size, 1, block); });
    expectOob([&] { mem.readBlock(size - 4, 8, block); });
    expectOob([&] { mem.origin(size); });
    expectOob([&] { mem.setOrigin(size, 4, 7); });
    EXPECT_TRUE(block.empty());
}

TEST(MainMemory, ManyDevicesBuildAndDestroy)
{
    // Each device maps its own address space and touches a page of
    // it; under the ASan flavor a leaked or double-released mapping
    // shows up as a leak report or a crash.
    const std::uint64_t size = std::uint64_t(4) << 20;
    for (unsigned i = 0; i < 500; ++i) {
        MainMemory mem(size);
        const Addr a = mem.alloc(64);
        EXPECT_EQ(mem.read32(a), 0u);
        mem.write32(a, i);
        EXPECT_EQ(mem.read32(a), i);
    }
}

TEST(MainMemory, OriginsLazyAndDefault)
{
    MainMemory mem(256);
    EXPECT_EQ(mem.origin(0).def, noDef);
    mem.hostWrite32(0, 5); // noDef origin: stays lazy
    EXPECT_EQ(mem.origin(0).def, noDef);
    mem.setOrigin(8, 4, 42);
    EXPECT_EQ(mem.origin(8).def, 42u);
    EXPECT_EQ(mem.origin(9).byteIdx, 1);
    EXPECT_EQ(mem.origin(0).def, noDef);
}

TEST(MainMemory, OriginPastHighWaterMarkIsNoDef)
{
    const std::uint64_t size = std::uint64_t(4) << 20;
    MainMemory mem(size);
    const Addr a = mem.alloc(256);
    mem.setOrigin(a + 4, 4, 42);
    const Addr top = mem.allocatedBytes();
    for (Addr b : {top, top + 1, top + 4096, size - 1}) {
        EXPECT_EQ(mem.origin(b).def, noDef) << b;
        EXPECT_EQ(mem.origin(b).byteIdx, 0) << b;
    }
    mem.hostWrite32(top + 64, 9); // noDef past the end: no growth
    EXPECT_EQ(mem.origin(top + 64).def, noDef);
    EXPECT_EQ(mem.origin(a + 6).def, 42u);
}

TEST(MainMemory, OriginAtTopOfMemoryGrows)
{
    const std::uint64_t size = std::uint64_t(4) << 20;
    MainMemory mem(size);
    mem.alloc(128);
    ASSERT_LT(mem.allocatedBytes(), size - 4);
    mem.setOrigin(size - 4, 4, 77);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(mem.origin(size - 4 + i).def, 77u) << i;
        EXPECT_EQ(mem.origin(size - 4 + i).byteIdx, i) << i;
    }
    EXPECT_EQ(mem.origin(size - 5).def, noDef);
    EXPECT_EQ(mem.origin(mem.allocatedBytes()).def, noDef);
}

TEST(MainMemory, OriginsSurviveGrowthAfterAlloc)
{
    MainMemory mem(std::uint64_t(1) << 20);
    const Addr a = mem.alloc(64);
    mem.setOrigin(a, 4, 5);
    mem.setOrigin(a + 60, 4, 6);
    const Addr b = mem.alloc(std::uint64_t(64) << 10);
    mem.setOrigin(b + 1000, 4, 7);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(mem.origin(a + i).def, 5u) << i;
        EXPECT_EQ(mem.origin(a + i).byteIdx, i) << i;
        EXPECT_EQ(mem.origin(a + 60 + i).def, 6u) << i;
        EXPECT_EQ(mem.origin(b + 1000 + i).def, 7u) << i;
    }
    EXPECT_EQ(mem.origin(a + 4).def, noDef);
    EXPECT_EQ(mem.origin(b).def, noDef);
    // A noDef write over a tracked byte still clears it.
    mem.hostWrite32(a, 1);
    EXPECT_EQ(mem.origin(a).def, noDef);
}

TEST(RefIndex, FirstAfterFindsLoad)
{
    MemRefIndex idx;
    idx.addStore(100, 4, 10);
    idx.addLoad(100, 4, 50, 7);
    const ByteRef *r = idx.firstAfter(101, 20);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->isLoad);
    EXPECT_EQ(r->def, 7u);
    EXPECT_EQ(r->relShift, 8);
}

TEST(RefIndex, InclusiveAtTime)
{
    MemRefIndex idx;
    idx.addLoad(100, 4, 50, 7);
    const ByteRef *r = idx.firstAfter(100, 50);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->time, 50u);
}

TEST(RefIndex, NoFutureReference)
{
    MemRefIndex idx;
    idx.addLoad(100, 4, 50, 7);
    EXPECT_EQ(idx.firstAfter(100, 51), nullptr);
    EXPECT_EQ(idx.firstAfter(999, 0), nullptr);
}

TEST(RefIndex, StoreShadowsLaterLoad)
{
    MemRefIndex idx;
    idx.addStore(100, 4, 20);
    idx.addLoad(100, 4, 60, 9);
    const ByteRef *r = idx.firstAfter(100, 10);
    ASSERT_NE(r, nullptr);
    EXPECT_FALSE(r->isLoad); // the store comes first
}

} // namespace
} // namespace mbavf

/**
 * @file
 * Tests for the cache timing model: hits/misses, LRU, write-back
 * behaviour, listener events, and flush.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bits.hh"
#include "common/trap.hh"
#include "mem/cache.hh"

namespace mbavf
{
namespace
{

struct EventRecorder : public CacheListener
{
    struct Ev
    {
        char kind; // F, R, W, E
        unsigned set, way;
        Addr addr;
        std::uint64_t dirty;
        Cycle t;
    };
    std::vector<Ev> events;

    void
    onFill(unsigned set, unsigned way, Addr a, Cycle t) override
    {
        events.push_back({'F', set, way, a, 0, t});
    }
    void
    onRead(unsigned set, unsigned way, Addr a, unsigned, Cycle t,
           DefId) override
    {
        events.push_back({'R', set, way, a, 0, t});
    }
    void
    onWrite(unsigned set, unsigned way, Addr a, unsigned, Cycle t,
            InstrTag) override
    {
        events.push_back({'W', set, way, a, 0, t});
    }
    void
    onEvict(unsigned set, unsigned way, Addr a, std::uint64_t dirty,
            Cycle t) override
    {
        events.push_back({'E', set, way, a, dirty, t});
    }
};

CacheParams
tinyCache()
{
    // 2 sets x 2 ways x 16B lines, 1-cycle hit.
    return CacheParams{"t", 2, 2, 16, 1};
}

TEST(Cache, MissThenHit)
{
    Dram dram(100);
    Cache cache(tinyCache(), dram);
    MemRequest req{0x40, 4, MemCmd::Read, noDef};
    Cycle t1 = cache.access(req, 0);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(t1, 101u); // fill at 100 + hit latency 1

    Cycle t2 = cache.access(req, t1);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(t2, t1 + 1);
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Dram dram(10);
    Cache cache(tinyCache(), dram);
    EXPECT_FALSE(cache.probe(0x40));
    cache.access({0x40, 4, MemCmd::Read, noDef}, 0);
    EXPECT_TRUE(cache.probe(0x40));
    EXPECT_TRUE(cache.probe(0x4C)); // same line
    EXPECT_FALSE(cache.probe(0x80));
}

TEST(Cache, LruEviction)
{
    Dram dram(10);
    Cache cache(tinyCache(), dram);
    // Three lines mapping to set 0 (16B lines, 2 sets: set =
    // (addr/16) % 2 -> addresses 0x00, 0x40, 0x80 hit set 0).
    cache.access({0x00, 4, MemCmd::Read, noDef}, 0);
    cache.access({0x40, 4, MemCmd::Read, noDef}, 50);
    cache.access({0x00, 4, MemCmd::Read, noDef}, 100); // touch 0x00
    cache.access({0x80, 4, MemCmd::Read, noDef}, 150); // evict 0x40
    EXPECT_TRUE(cache.probe(0x00));
    EXPECT_FALSE(cache.probe(0x40));
    EXPECT_TRUE(cache.probe(0x80));
}

TEST(Cache, WritebackOnlyWhenDirty)
{
    Dram dram(10);
    Cache cache(tinyCache(), dram);
    cache.access({0x00, 4, MemCmd::Read, noDef}, 0);
    cache.access({0x40, 4, MemCmd::Write, noDef}, 10);
    // Evict both by filling two more set-0 lines.
    cache.access({0x80, 4, MemCmd::Read, noDef}, 20);
    cache.access({0xC0, 4, MemCmd::Read, noDef}, 30);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, DirtyByteMaskTracksWrites)
{
    Dram dram(10);
    Cache cache(tinyCache(), dram);
    EventRecorder rec;
    cache.setListener(&rec);
    cache.access({0x04, 4, MemCmd::Write, noDef}, 0);
    cache.flush(100);
    ASSERT_FALSE(rec.events.empty());
    const auto &ev = rec.events.back();
    EXPECT_EQ(ev.kind, 'E');
    EXPECT_EQ(ev.dirty, std::uint64_t(0xF) << 4);
}

TEST(Cache, ListenerEventOrderOnMiss)
{
    Dram dram(10);
    Cache cache(tinyCache(), dram);
    EventRecorder rec;
    cache.setListener(&rec);
    cache.access({0x00, 4, MemCmd::Read, noDef}, 0);
    ASSERT_EQ(rec.events.size(), 2u);
    EXPECT_EQ(rec.events[0].kind, 'F');
    EXPECT_EQ(rec.events[1].kind, 'R');
    EXPECT_EQ(rec.events[0].t, rec.events[1].t);
}

TEST(Cache, EvictBeforeFillOnConflict)
{
    Dram dram(10);
    Cache cache(tinyCache(), dram);
    EventRecorder rec;
    cache.setListener(&rec);
    cache.access({0x00, 4, MemCmd::Write, noDef}, 0);
    cache.access({0x40, 4, MemCmd::Read, noDef}, 10);
    cache.access({0x80, 4, MemCmd::Read, noDef}, 20); // evicts 0x00
    bool saw_evict = false;
    for (const auto &ev : rec.events) {
        if (ev.kind == 'E') {
            saw_evict = true;
            EXPECT_EQ(ev.addr, 0x00u);
            EXPECT_NE(ev.dirty, 0u);
        }
    }
    EXPECT_TRUE(saw_evict);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Dram dram(10);
    Cache cache(tinyCache(), dram);
    cache.access({0x00, 4, MemCmd::Write, noDef}, 0);
    cache.access({0x10, 4, MemCmd::Read, noDef}, 5);
    cache.flush(50);
    EXPECT_FALSE(cache.probe(0x00));
    EXPECT_FALSE(cache.probe(0x10));
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, MissRateStat)
{
    Dram dram(10);
    Cache cache(tinyCache(), dram);
    cache.access({0x00, 4, MemCmd::Read, noDef}, 0);
    cache.access({0x00, 4, MemCmd::Read, noDef}, 20);
    cache.access({0x04, 4, MemCmd::Read, noDef}, 40);
    EXPECT_NEAR(cache.stats().missRate(), 1.0 / 3, 1e-12);
}

TEST(Cache, CrossLineRequestTraps)
{
    Dram dram(10);
    Cache cache(tinyCache(), dram);
    try {
        cache.access({0x0E, 4, MemCmd::Read, noDef}, 0);
        FAIL() << "line-straddling access did not trap";
    } catch (const SimTrap &trap) {
        EXPECT_EQ(trap.code(), trapcode::cacheStraddle);
    }
}

TEST(Cache, RequestWiderThanLineTraps)
{
    Dram dram(10);
    Cache cache(CacheParams{"w4", 2, 2, 4, 1}, dram);
    try {
        cache.access({0x00, 8, MemCmd::Read, noDef}, 0);
        FAIL() << "request wider than the line did not trap";
    } catch (const SimTrap &trap) {
        EXPECT_EQ(trap.code(), trapcode::cacheSize);
    }
}

/**
 * Address split under unusual geometry: one set, a way count that is
 * not a power of two, and the smallest and largest line sizes. Every
 * fill must land in set (addr / line) % sets at the line's base, and
 * every eviction must report the address that was filled into that
 * (set, way); dirty masks must stay inside the line.
 */
TEST(Cache, AddressSplitAcrossGeometries)
{
    const CacheParams geometries[] = {
        {"s1w3l4", 1, 3, 4, 1},   {"s1w3l64", 1, 3, 64, 1},
        {"s4w3l4", 4, 3, 4, 1},   {"s8w3l64", 8, 3, 64, 1},
        {"s2w1l16", 2, 1, 16, 1}, {"s16w5l32", 16, 5, 32, 1},
    };
    for (const CacheParams &p : geometries) {
        SCOPED_TRACE(p.name);
        Dram dram(10);
        Cache cache(p, dram);
        EventRecorder rec;
        cache.setListener(&rec);
        // Resident line base per (set, way), to check evictions.
        std::vector<Addr> resident(std::size_t(p.sets) * p.ways, ~Addr(0));
        // Word-aligned addresses over a span four times the cache,
        // so sets conflict and lines get evicted.
        const Addr span = Addr(p.sets) * p.ways * p.lineBytes * 4;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (unsigned i = 0; i < 400; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const Addr addr = ((x >> 20) % span) & ~Addr(3);
            const MemCmd cmd = (x >> 60) & 1 ? MemCmd::Write : MemCmd::Read;
            const unsigned want_set =
                static_cast<unsigned>(addr / p.lineBytes % p.sets);
            const Addr want_line = addr / p.lineBytes * p.lineBytes;
            rec.events.clear();
            cache.access({addr, 4, cmd, noDef}, i * 100);
            ASSERT_FALSE(rec.events.empty());
            for (const auto &ev : rec.events) {
                ASSERT_LT(ev.way, p.ways);
                const std::size_t slot =
                    std::size_t(ev.set) * p.ways + ev.way;
                switch (ev.kind) {
                  case 'E':
                    EXPECT_EQ(ev.set, want_set);
                    EXPECT_EQ(ev.addr, resident[slot]);
                    EXPECT_EQ(ev.dirty & ~lowMask(p.lineBytes), 0u);
                    break;
                  case 'F':
                    EXPECT_EQ(ev.set, want_set);
                    EXPECT_EQ(ev.addr, want_line);
                    resident[slot] = want_line;
                    break;
                  default: // R or W: the access itself
                    EXPECT_EQ(ev.set, want_set);
                    EXPECT_EQ(ev.addr, addr);
                    EXPECT_EQ(resident[slot], want_line);
                    break;
                }
            }
            EXPECT_TRUE(cache.probe(addr));
            EXPECT_TRUE(cache.probe(want_line + p.lineBytes - 1));
        }
        // The flush reports each resident line at the address it was
        // filled from.
        rec.events.clear();
        cache.flush(1000000);
        for (const auto &ev : rec.events) {
            ASSERT_EQ(ev.kind, 'E');
            EXPECT_EQ(ev.addr,
                      resident[std::size_t(ev.set) * p.ways + ev.way]);
            EXPECT_EQ(ev.addr / p.lineBytes % p.sets, ev.set);
        }
        EXPECT_EQ(cache.stats().hits + cache.stats().misses, 400u);
    }
}

TEST(Cache, DirtyOffsetAtLineEnds)
{
    // The last word of a 64-byte line and the only word of a 4-byte
    // line: the dirty mask sits at the byte offset within the line.
    struct Case
    {
        unsigned lineBytes;
        Addr addr;
        std::uint64_t dirty;
    };
    const Case cases[] = {
        {64, 0x1000 + 60, std::uint64_t(0xF) << 60},
        {64, 0x1000, 0xF},
        {4, 0x1004, 0xF},
    };
    for (const Case &c : cases) {
        Dram dram(10);
        Cache cache(CacheParams{"d", 1, 3, c.lineBytes, 1}, dram);
        EventRecorder rec;
        cache.setListener(&rec);
        cache.access({c.addr, 4, MemCmd::Write, noDef}, 0);
        cache.flush(100);
        ASSERT_FALSE(rec.events.empty());
        EXPECT_EQ(rec.events.back().kind, 'E');
        EXPECT_EQ(rec.events.back().addr, c.addr / c.lineBytes *
                                              c.lineBytes);
        EXPECT_EQ(rec.events.back().dirty, c.dirty);
    }
}

TEST(Cache, ManyCachesBuildAndDestroy)
{
    // Under the ASan flavor, leaked or double-freed line arrays show
    // up here as a leak report or a crash.
    for (unsigned i = 0; i < 200; ++i) {
        Dram dram(10);
        Cache l2(CacheParams{"l2", 1024, 4, 64, 20}, dram);
        Cache l1(CacheParams{"l1", 64, 3, 64, 4}, l2);
        l1.access({Addr(i) * 64, 4, MemCmd::Write, noDef}, 0);
        l1.flush(1000);
        l2.flush(2000);
        EXPECT_EQ(l2.stats().writebacks, 1u);
    }
}

TEST(Cache, TwoLevelHierarchy)
{
    Dram dram(100);
    Cache l2(CacheParams{"l2", 8, 2, 16, 10}, dram);
    Cache l1(CacheParams{"l1", 2, 2, 16, 1}, l2);
    // L1 miss, L2 miss -> DRAM.
    Cycle t1 = l1.access({0x00, 4, MemCmd::Read, noDef}, 0);
    EXPECT_EQ(t1, 100 + 10 + 1u);
    // L1 conflict evicts, but L2 still hits.
    l1.access({0x40, 4, MemCmd::Read, noDef}, t1);
    l1.access({0x80, 4, MemCmd::Read, noDef}, t1 + 200);
    Cycle t2 = l1.access({0x00, 4, MemCmd::Read, noDef}, 1000);
    EXPECT_EQ(t2, 1000 + 10 + 1u); // L2 hit latency only
}

} // namespace
} // namespace mbavf

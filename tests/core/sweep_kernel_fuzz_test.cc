/**
 * @file
 * Differential fuzz of the single-pass multi-mode sweep kernel
 * against the per-mode reference path (MbAvfOptions::referenceKernel).
 *
 * Random lifetime stores over random physical layouts, swept under
 * every protection scheme at varied horizons and window counts, must
 * produce bit-identical AVF fractions, per-window series, group
 * counts, and SER folds — serially and on the thread pool, through
 * both builds of the arena kernel (the dispatched one, AVX2 where the
 * host has it, and the portable one on every host). Seeds are fixed
 * (splitMix64 streams), so any failure is exactly reproducible.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "core/layout.hh"
#include "core/lifetime_arena.hh"
#include "core/mbavf_kernel.hh"
#include "core/sweep.hh"

namespace mbavf
{
namespace
{

/** One-row array of 1-bit containers with a tunable domain width. */
class FlatArray : public PhysicalArray
{
  public:
    FlatArray(std::uint64_t bits, unsigned domain_bits)
        : bits_(bits), domainBits_(domain_bits)
    {}

    std::uint64_t rows() const override { return 1; }
    std::uint64_t cols() const override { return bits_; }

    PhysBit
    at(std::uint64_t, std::uint64_t col) const override
    {
        return {col, 0, col / domainBits_};
    }

  private:
    std::uint64_t bits_;
    unsigned domainBits_;
};

/**
 * Random store: some containers absent, some words empty, segment
 * chains with gaps that may extend past the sweep horizon, random
 * ACE/read masks (ACE kept a subset of read, per the lint contract).
 */
LifetimeStore
randomStore(Rng &rng, unsigned word_width,
            unsigned words_per_container,
            std::uint64_t num_containers, Cycle span)
{
    LifetimeStore store(word_width, words_per_container);
    const std::uint64_t width_mask =
        word_width >= 64 ? ~0ull : ((1ull << word_width) - 1);
    for (std::uint64_t c = 0; c < num_containers; ++c) {
        if (!rng.chance(0.8))
            continue;
        ContainerLifetime &container = store.container(c);
        for (unsigned w = 0; w < words_per_container; ++w) {
            if (!rng.chance(0.7))
                continue;
            Cycle t = rng.below(span / 2 + 1);
            const unsigned n = 1 + (unsigned)rng.below(5);
            for (unsigned s = 0; s < n; ++s) {
                const Cycle begin = t + rng.below(span / 4 + 1);
                const Cycle end = begin + 1 + rng.below(span / 3 + 1);
                const std::uint64_t read = rng.next() & width_mask;
                const std::uint64_t ace = rng.next() & read;
                container.words[w].append({begin, end, ace, read});
                t = end;
            }
        }
    }
    return store;
}

/**
 * Bit-exact equality, except both-NaN counts as equal: a zero-width
 * window (horizon < numWindows) divides 0 cycles by 0 on both paths.
 */
void
expectSameDouble(double a, double b, const std::string &at)
{
    if (std::isnan(a) && std::isnan(b))
        return;
    EXPECT_EQ(a, b) << at;
}

void
expectIdentical(const ModeSweep &ref, const ModeSweep &got,
                const std::string &label)
{
    ASSERT_EQ(ref.results.size(), got.results.size()) << label;
    for (std::size_t m = 0; m < ref.results.size(); ++m) {
        const MbAvfResult &a = ref.results[m];
        const MbAvfResult &b = got.results[m];
        const std::string at = label + " mode " + std::to_string(m + 1);
        EXPECT_EQ(a.numGroups, b.numGroups) << at;
        EXPECT_EQ(a.horizon, b.horizon) << at;
        expectSameDouble(a.avf.sdc, b.avf.sdc, at);
        expectSameDouble(a.avf.trueDue, b.avf.trueDue, at);
        expectSameDouble(a.avf.falseDue, b.avf.falseDue, at);
        ASSERT_EQ(a.windows.size(), b.windows.size()) << at;
        for (std::size_t w = 0; w < a.windows.size(); ++w) {
            const std::string win = at + " window " + std::to_string(w);
            expectSameDouble(a.windows[w].sdc, b.windows[w].sdc, win);
            expectSameDouble(a.windows[w].trueDue,
                             b.windows[w].trueDue, win);
            expectSameDouble(a.windows[w].falseDue,
                             b.windows[w].falseDue, win);
        }
    }
    auto fits = caseStudyFaultRates(100.0);
    const StructureSer sa = sweepSer(ref, fits);
    const StructureSer sb = sweepSer(got, fits);
    expectSameDouble(sa.sdc, sb.sdc, label);
    expectSameDouble(sa.trueDue, sb.trueDue, label);
    expectSameDouble(sa.falseDue, sb.falseDue, label);
}

/**
 * Both builds of the arena kernel — dispatched and pinned portable —
 * at 1 and 4 threads must reproduce @p ref exactly.
 */
void
expectBothBuilds(const ModeSweep &ref, const PhysicalArray &array,
                 const LifetimeStore &store,
                 const ProtectionScheme &scheme, MbAvfOptions opt,
                 unsigned max_mode, const std::string &label)
{
    const LifetimeArena arena(store);
    for (const unsigned threads : {1u, 4u}) {
        opt.numThreads = threads;
        const std::string at =
            label + " t" + std::to_string(threads);
        expectIdentical(ref,
                        sweepModes(array, store, scheme, opt, max_mode),
                        at + " dispatched");
        expectIdentical(ref,
                        {detail::computeMbAvfModes(
                            array, arena, scheme, opt, max_mode,
                            detail::sweepRowsPortable)},
                        at + " portable");
    }
}

/**
 * Sweep @p array / @p store through a random scheme, horizon, window
 * count, and combine rule, with the reference path and both builds
 * of the arena kernel; all paths must agree exactly. @p forced_max_mode
 * of 0 draws a random mode count in [1, 8]; wide-mode callers pass
 * an explicit value up to 64.
 */
void
runTrial(const PhysicalArray &array, const LifetimeStore &store,
         Rng &rng, const std::string &label,
         unsigned forced_max_mode = 0)
{
    static const char *const kSchemes[] = {"none", "parity", "secded",
                                           "dected", "crc"};
    static const unsigned kWindows[] = {0, 1, 3, 8};
    const std::unique_ptr<ProtectionScheme> scheme =
        makeScheme(kSchemes[rng.below(5)]);
    MbAvfOptions opt;
    opt.horizon = 1 + rng.below(200);
    opt.numWindows = kWindows[rng.below(4)];
    opt.dueShieldsSdc = rng.chance(0.5);
    const unsigned max_mode = forced_max_mode
                                  ? forced_max_mode
                                  : 1 + (unsigned)rng.below(8);
    const std::string at = label + " (" + scheme->name() + " N=" +
                           std::to_string(opt.horizon) + " W=" +
                           std::to_string(opt.numWindows) + " M=" +
                           std::to_string(max_mode) + ")";

    MbAvfOptions ref_opt = opt;
    ref_opt.referenceKernel = true;
    const ModeSweep ref =
        sweepModes(array, store, *scheme, ref_opt, max_mode);

    expectBothBuilds(ref, array, store, *scheme, opt, max_mode, at);
}

TEST(SweepKernelFuzz, CacheLayouts)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(splitMix64(0x5eedcafe, seed));
        CacheGeometry geom;
        geom.sets = 4u << rng.below(2);
        geom.ways = 2u << rng.below(2);
        geom.lineBytes = 2u << rng.below(2);
        static const CacheInterleave kStyles[] = {
            CacheInterleave::Logical, CacheInterleave::WayPhysical,
            CacheInterleave::IndexPhysical};
        const CacheInterleave style = kStyles[rng.below(3)];
        // 1 or 2 divides every sets/ways/lineBits choice above.
        const unsigned factor = 1u << rng.below(2);
        auto array = makeCacheArray(geom, style, factor);
        LifetimeStore store = randomStore(
            rng, 8, geom.lineBytes, geom.numLines(), 120);
        const std::string label = "cache " +
                                  cacheInterleaveName(style) +
                                  " seed " + std::to_string(seed);
        runTrial(*array, store, rng, label);
        // One live lane per block, as in every single-bit AVF sweep.
        runTrial(*array, store, rng, label + " single mode", 1);
    }
}

TEST(SweepKernelFuzz, RegFileLayouts)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(splitMix64(0x2e9f11e, seed));
        RegFileGeometry geom;
        geom.numRegs = 4;
        geom.numLanes = 4;
        geom.numSlots = 2;
        const RegInterleave style = rng.chance(0.5)
                                        ? RegInterleave::IntraThread
                                        : RegInterleave::InterThread;
        const unsigned factor = 1 + (unsigned)rng.below(2);
        auto array = makeRegFileArray(geom, style, factor);
        LifetimeStore store =
            randomStore(rng, 32, 1, geom.numContainers(), 120);
        runTrial(*array, store, rng,
                 "regfile seed " + std::to_string(seed));
    }
}

TEST(SweepKernelFuzz, NarrowArrays)
{
    // cols in [1, 6] with max_mode up to 8: modes wider than the
    // array must agree on the zero-group result, and 1-bit words
    // exercise the narrowest mask path.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng(splitMix64(0xf1a7, seed));
        const std::uint64_t bits = 1 + rng.below(6);
        const unsigned domain_bits = 1 + (unsigned)rng.below(3);
        FlatArray array(bits, domain_bits);
        LifetimeStore store = randomStore(rng, 1, 1, bits, 60);
        runTrial(array, store, rng,
                 "flat " + std::to_string(bits) + "b seed " +
                     std::to_string(seed));
    }
}

TEST(SweepKernelFuzz, WideModes)
{
    // max_mode in [9, 64]: multi-block vector lanes, blocksMax_
    // strides, lane padding past the last mode, and — with 1-bit
    // domains putting one region per column in the anchor window —
    // the >8-region setups whose lossy anchor signature must never
    // be trusted (a stale match here once swallowed the dead ->
    // live -> dead close and silently diverged from the scalar
    // kernel).
    static const unsigned kModes[] = {9, 16, 17, 33, 64};
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng(splitMix64(0x71de60de, seed));
        const unsigned max_mode = kModes[rng.below(5)];
        const std::uint64_t bits = max_mode + rng.below(24);
        const unsigned domain_bits = 1 + (unsigned)rng.below(2);
        FlatArray array(bits, domain_bits);
        LifetimeStore store = randomStore(rng, 1, 1, bits, 120);
        runTrial(array, store, rng,
                 "wide M=" + std::to_string(max_mode) + " " +
                     std::to_string(bits) + "b seed " +
                     std::to_string(seed),
                 max_mode);
    }
}

TEST(SweepKernelFuzz, ExtremeHorizons)
{
    // Lifetimes and horizons pushed against the top of the Cycle
    // range: window-boundary, projected-transition, and run-length
    // arithmetic must not wrap (satAdd in the event builders,
    // __int128 window bounds in the accumulator, and the kernel's
    // rule that closes at or past the horizon never materialize).
    constexpr Cycle kMax = ~Cycle(0);
    FlatArray array(6, 2);
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < 6; ++b) {
        WordLifetime &word = store.container(b).words[0];
        word.append({0, 5, 1, 1});
        word.append({kMax / 2, kMax / 2 + 9, 1, 1});
        word.append({kMax - 40, kMax - 2 + (b % 3), 1, 1});
    }
    const std::unique_ptr<ProtectionScheme> scheme =
        makeScheme("parity");
    for (const Cycle horizon : {kMax, kMax - 1, kMax - 30}) {
        for (const unsigned windows : {0u, 3u}) {
            MbAvfOptions opt;
            opt.horizon = horizon;
            opt.numWindows = windows;
            MbAvfOptions ref_opt = opt;
            ref_opt.referenceKernel = true;
            const ModeSweep ref =
                sweepModes(array, store, *scheme, ref_opt, 8);
            const std::string at =
                "extreme horizon " +
                std::to_string(kMax - horizon) + " below max, W=" +
                std::to_string(windows);
            expectBothBuilds(ref, array, store, *scheme, opt, 8, at);
        }
    }
}

TEST(SweepKernelFuzz, TinyHorizonManyWindows)
{
    // More windows than cycles: several window boundaries coincide,
    // the degenerate case of the cached-bounds window lookup.
    Rng rng(splitMix64(0xbeef, 1));
    FlatArray array(6, 2);
    LifetimeStore store = randomStore(rng, 1, 1, 6, 8);
    const std::unique_ptr<ProtectionScheme> scheme =
        makeScheme("parity");
    MbAvfOptions opt;
    opt.horizon = 5;
    opt.numWindows = 8;
    MbAvfOptions ref_opt = opt;
    ref_opt.referenceKernel = true;
    expectIdentical(sweepModes(array, store, *scheme, ref_opt, 8),
                    sweepModes(array, store, *scheme, opt, 8),
                    "tiny horizon");
}

} // namespace
} // namespace mbavf

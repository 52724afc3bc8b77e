/**
 * @file
 * google-benchmark microbenchmarks of the analysis kernels: the
 * backward lifetime builder and the MB-AVF group sweep. These bound
 * the cost of scaling MB-AVF analysis to larger structures and
 * longer runs.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "core/layout.hh"
#include "core/lifetime_builder.hh"
#include "core/mbavf.hh"
#include "core/protection.hh"

namespace mbavf
{
namespace
{

void
BM_LifetimeBuilder(benchmark::State &state)
{
    WordEventLog log;
    Rng rng(11);
    Cycle t = 0;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
        t += 1 + rng.below(10);
        if (rng.chance(0.3))
            log.write(t, 0xFF);
        else
            log.read(t, rng.next() & 0xFF, rng.below(1000));
    }
    LivenessResolver live = [](DefId d) {
        return d % 3 ? ~std::uint64_t(0) : 0;
    };
    for (auto _ : state) {
        WordLifetime lt = buildWordLifetime(log, t + 10, 8, live);
        benchmark::DoNotOptimize(lt.segments().size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LifetimeBuilder)->Arg(64)->Arg(512)->Arg(4096);

void
BM_MbAvfSweep(benchmark::State &state)
{
    const unsigned mode_bits = static_cast<unsigned>(state.range(0));
    CacheGeometry geom{16, 4, 64};
    auto array = makeCacheArray(geom, CacheInterleave::WayPhysical, 2);

    LifetimeStore store(8, 64);
    Rng rng(5);
    for (unsigned line = 0; line < geom.numLines(); ++line) {
        ContainerLifetime &c = store.container(line);
        for (unsigned b = 0; b < 64; ++b) {
            Cycle t = rng.below(50);
            for (int s = 0; s < 20; ++s) {
                Cycle e = t + 1 + rng.below(40);
                c.words[b].append(
                    {t, e, rng.next() & 0xFF, 0xFF});
                t = e + 1 + rng.below(20);
            }
        }
    }

    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = 2000;
    for (auto _ : state) {
        MbAvfResult r = computeMbAvf(*array, store, parity,
                                     FaultMode::mx1(mode_bits), opt);
        benchmark::DoNotOptimize(r.avf.sdc);
    }
    state.SetItemsProcessed(
        state.iterations() *
        FaultMode::mx1(mode_bits).numGroups(array->rows(),
                                            array->cols()));
}
BENCHMARK(BM_MbAvfSweep)->Arg(2)->Arg(4)->Arg(8);

} // namespace
} // namespace mbavf

BENCHMARK_MAIN();

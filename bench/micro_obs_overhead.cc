/**
 * @file
 * google-benchmark microbenchmarks pinning the cost of the
 * observability layer (src/obs). The contract in DESIGN.md section
 * 11 mirrors the containment layer's: with no sink attached, every
 * obs annotation costs one relaxed atomic load and a predictable
 * branch — nothing a hot loop can measure. These benchmarks keep
 * that claim honest, same methodology as micro_trap_overhead:
 *
 *  - BM_CounterDisabled / BM_CounterEnabled bound a counter add with
 *    the metrics sink detached and attached.
 *  - BM_HistogramDisabled / BM_HistogramEnabled do the same for a
 *    bucket observe.
 *  - BM_PhaseDisabled / BM_PhaseEnabled bound an ObsPhase scope
 *    (phase table + trace slice arm/disarm).
 *  - BM_TrialObsOff / BM_TrialObsOn run the same clean campaign
 *    trial through the instrumented engine path with all sinks off
 *    and all on; the delta is the whole-stack per-trial cost. They
 *    call Campaign::simulateOne, since runOne would settle the clean
 *    trial from the golden-run liveness map without executing it.
 */

#include <benchmark/benchmark.h>

#include "inject/campaign.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"

namespace mbavf
{
namespace
{

/** Detach / attach every obs sink around one benchmark. */
void
setAllSinks(bool enabled)
{
    obs::setMetricsEnabled(enabled);
    obs::setTimingEnabled(enabled);
    obs::setTracingEnabled(enabled);
}

void
BM_CounterDisabled(benchmark::State &state)
{
    setAllSinks(false);
    obs::Counter counter =
        obs::MetricsRegistry::global().counter("bench.counter");
    for (auto _ : state)
        counter.add();
}
BENCHMARK(BM_CounterDisabled);

void
BM_CounterEnabled(benchmark::State &state)
{
    setAllSinks(false);
    obs::setMetricsEnabled(true);
    obs::Counter counter =
        obs::MetricsRegistry::global().counter("bench.counter");
    for (auto _ : state)
        counter.add();
    obs::setMetricsEnabled(false);
}
BENCHMARK(BM_CounterEnabled);

void
BM_HistogramDisabled(benchmark::State &state)
{
    setAllSinks(false);
    obs::Histogram histogram =
        obs::MetricsRegistry::global().histogram(
            "bench.histogram", {1, 8, 64, 512});
    std::uint64_t v = 0;
    for (auto _ : state)
        histogram.observe(v++ & 1023);
}
BENCHMARK(BM_HistogramDisabled);

void
BM_HistogramEnabled(benchmark::State &state)
{
    setAllSinks(false);
    obs::setMetricsEnabled(true);
    obs::Histogram histogram =
        obs::MetricsRegistry::global().histogram(
            "bench.histogram", {1, 8, 64, 512});
    std::uint64_t v = 0;
    for (auto _ : state)
        histogram.observe(v++ & 1023);
    obs::setMetricsEnabled(false);
}
BENCHMARK(BM_HistogramEnabled);

void
BM_PhaseDisabled(benchmark::State &state)
{
    setAllSinks(false);
    for (auto _ : state) {
        obs::ObsPhase phase("bench.phase");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_PhaseDisabled);

void
BM_PhaseEnabled(benchmark::State &state)
{
    setAllSinks(true);
    for (auto _ : state) {
        obs::ObsPhase phase("bench.phase");
        benchmark::ClobberMemory();
    }
    setAllSinks(false);
    obs::resetTrace();
    obs::resetPhases();
}
BENCHMARK(BM_PhaseEnabled);

Campaign &
campaign()
{
    static Campaign c("histogram", 1, GpuConfig{});
    return c;
}

void
BM_TrialObsOff(benchmark::State &state)
{
    Campaign &c = campaign();
    setAllSinks(false);
    for (auto _ : state) {
        TrialResult r = c.simulateOne(TrialSpec{});
        benchmark::DoNotOptimize(r.outcome);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(c.goldenInstrs()));
}
BENCHMARK(BM_TrialObsOff);

void
BM_TrialObsOn(benchmark::State &state)
{
    Campaign &c = campaign();
    setAllSinks(true);
    for (auto _ : state) {
        TrialResult r = c.simulateOne(TrialSpec{});
        benchmark::DoNotOptimize(r.outcome);
    }
    setAllSinks(false);
    obs::resetTrace();
    obs::resetPhases();
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(c.goldenInstrs()));
}
BENCHMARK(BM_TrialObsOn);

} // namespace
} // namespace mbavf

BENCHMARK_MAIN();

/**
 * @file
 * Microbenchmark: the sweep-kernel implementation ladder.
 *
 * Runs the Figure 4 workload shape — L1 cache lifetimes, parity, x2
 * interleaving — through four paths per workload:
 *
 *   ref         max_mode independent computeMbAvf walks over the
 *               store (MbAvfOptions::referenceKernel)
 *   portable    the single-pass lane-per-prefix arena kernel, pinned
 *               to its portable build
 *   dispatched  the same kernel as sweepModes() runs it: the AVX2
 *               build where the host supports it, the portable build
 *               otherwise
 *   mmap        the dispatched path again, but sweeping an arena
 *               persisted with core/arena_io.hh and mapped back
 *
 * All four must produce bit-identical AVF fractions and window
 * series; the table records the per-workload times (best of
 * --repeats rounds, each running every column once) plus the
 * ref-over-dispatched and ref-over-portable speedups and their
 * geomeans.
 *
 *   micro_sweep_kernel [--workloads=a,b] [--scale=N] [--modes=8]
 *                      [--repeats=3] [--threads=N] [--min-speedup=X]
 *                      [--min-portable-speedup=Y]
 *
 * Exit status is nonzero if any path's results diverge from the
 * reference, if the geomean ref-over-dispatched speedup falls below
 * --min-speedup, or if the geomean ref-over-portable speedup falls
 * below --min-portable-speedup (0 disables either gate). Workloads
 * below the --min-speedup floor are listed in the manifest's run
 * section as "below_floor", so CI failures name the regressing
 * subset instead of just the aggregate. CI runs both floors so a
 * kernel perf regression on either build fails the bench-smoke job
 * directly, independent of runner-to-runner timing noise in the
 * manifests.
 */

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "core/arena_io.hh"
#include "core/lifetime_arena.hh"
#include "core/mbavf_kernel.hh"
#include "core/protection.hh"
#include "core/sweep.hh"
#include "obs/stopwatch.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

namespace
{

bool
sameSweep(const ModeSweep &a, const ModeSweep &b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (std::size_t m = 0; m < a.results.size(); ++m) {
        const MbAvfResult &x = a.results[m];
        const MbAvfResult &y = b.results[m];
        if (x.avf.sdc != y.avf.sdc || x.avf.trueDue != y.avf.trueDue ||
            x.avf.falseDue != y.avf.falseDue ||
            x.numGroups != y.numGroups ||
            x.windows.size() != y.windows.size()) {
            return false;
        }
        for (std::size_t w = 0; w < x.windows.size(); ++w) {
            if (x.windows[w].sdc != y.windows[w].sdc ||
                x.windows[w].trueDue != y.windows[w].trueDue ||
                x.windows[w].falseDue != y.windows[w].falseDue) {
                return false;
            }
        }
    }
    return true;
}

/**
 * Time one @p sweep() call into @p out, keeping the best wall time
 * so far in @p best (seconds, 0 before the first call).
 */
template <typename Sweep>
void
timeSweep(double &best, ModeSweep &out, const Sweep &sweep)
{
    obs::Stopwatch watch;
    ModeSweep result = sweep();
    const double s = watch.seconds();
    if (best == 0.0 || s < best)
        best = s;
    out = std::move(result);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("micro_sweep_kernel", &args);
    const unsigned threads = configureThreads(args);
    const unsigned scale =
        static_cast<unsigned>(args.getInt("scale", 1));
    const unsigned max_mode =
        static_cast<unsigned>(args.getInt("modes", 8));
    const unsigned repeats =
        static_cast<unsigned>(args.getInt("repeats", 3));
    const double min_speedup = args.getDouble("min-speedup", 0.0);
    const double min_portable =
        args.getDouble("min-portable-speedup", 0.0);
    const bool avx2 = detail::avx2KernelAvailable();

    std::cout << "sweep kernel ladder: reference per-mode path vs "
                 "portable / dispatched / mmap arena kernel, "
              << max_mode << " modes (dispatched build "
              << (avx2 ? "avx2" : "portable") << ")\n\n";

    Table table({"workload", "ref ms", "portable ms", "dispatched ms",
                 "mmap ms", "speedup", "portable x"});
    RunningStats g_speedup;
    RunningStats g_portable;
    ParityScheme parity;
    bool identical = true;
    std::vector<std::string> below_floor;

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        AceRun run = runAceAnalysis(name, scale);
        CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                           run.config.l1.lineBytes};
        auto array = makeCacheArray(geom, CacheInterleave::Logical, 2);

        MbAvfOptions opt;
        opt.horizon = run.horizon;
        opt.numWindows = 8;
        opt.numThreads = threads;

        // Persist + map back: the disk round trip must neither
        // change a single bit nor cost measurable sweep time.
        const std::string arena_path =
            "micro_sweep_" + name + ".arena.tmp";
        streamArenaFromStore(run.l1, arena_path, run.horizon);
        std::string error;
        std::optional<LifetimeArena> disk_arena =
            tryLoadArena(arena_path, error);
        if (!disk_arena) {
            std::cerr << "FAIL: cannot map " << arena_path << ": "
                      << error << "\n";
            return 1;
        }

        // Each round times every column once, so load that drifts on
        // a shared host lands on all columns alike instead of skewing
        // the ratios the gates read.
        ModeSweep ref, portable, dispatched, mapped;
        MbAvfOptions ref_opt = opt;
        ref_opt.referenceKernel = true;
        double ref_s = 0, portable_s = 0, dispatched_s = 0, mmap_s = 0;
        for (unsigned r = 0; r < repeats; ++r) {
            timeSweep(ref_s, ref, [&] {
                return sweepModes(*array, run.l1, parity, ref_opt,
                                  max_mode);
            });
            // Flatten inside the timed call, as sweepModes() does.
            timeSweep(portable_s, portable, [&] {
                return ModeSweep{detail::computeMbAvfModes(
                    *array, LifetimeArena(run.l1), parity, opt,
                    max_mode, detail::sweepRowsPortable)};
            });
            timeSweep(dispatched_s, dispatched, [&] {
                return sweepModes(*array, run.l1, parity, opt, max_mode);
            });
            timeSweep(mmap_s, mapped, [&] {
                return sweepModesArena(*array, *disk_arena, parity, opt,
                                       max_mode);
            });
        }
        std::remove(arena_path.c_str());

        if (!sameSweep(ref, portable) || !sameSweep(ref, dispatched) ||
            !sameSweep(ref, mapped)) {
            std::cerr << "FAIL: kernel results diverge from the "
                         "reference path on " << name << "\n";
            identical = false;
        }

        double speedup = dispatched_s > 0 ? ref_s / dispatched_s : 0.0;
        double portable_x = portable_s > 0 ? ref_s / portable_s : 0.0;
        g_speedup.add(speedup);
        g_portable.add(portable_x);
        if (min_speedup > 0 && speedup < min_speedup)
            below_floor.push_back(name);
        table.beginRow()
            .cell(name)
            .cell(ref_s * 1e3, 2)
            .cell(portable_s * 1e3, 2)
            .cell(dispatched_s * 1e3, 2)
            .cell(mmap_s * 1e3, 2)
            .cell(speedup, 2)
            .cell(portable_x, 2);
    }

    table.beginRow()
        .cell("geomean")
        .cell("")
        .cell("")
        .cell("")
        .cell("")
        .cell(g_speedup.geomean(), 2)
        .cell(g_portable.geomean(), 2);
    bench.emit(table);
    bench.meta("modes", static_cast<std::uint64_t>(max_mode));
    bench.meta("repeats", static_cast<std::uint64_t>(repeats));
    bench.meta("min_speedup", min_speedup);
    bench.meta("min_portable_speedup", min_portable);
    bench.meta("dispatch", std::string(avx2 ? "avx2" : "portable"));
    obs::JsonValue floor_list = obs::JsonValue::array();
    for (const std::string &name : below_floor)
        floor_list.push(obs::JsonValue(name));
    bench.meta("below_floor", std::move(floor_list));

    if (!identical) {
        std::cout << "\nRESULT MISMATCH between kernels\n";
        return 1;
    }
    std::cout << "\nresults bit-identical across all kernel paths\n";
    if (min_speedup > 0 && g_speedup.geomean() < min_speedup) {
        std::cout << "FAIL: geomean speedup "
                  << g_speedup.geomean() << "x below the required "
                  << min_speedup << "x";
        if (!below_floor.empty()) {
            std::cout << " (below floor:";
            for (const std::string &name : below_floor)
                std::cout << " " << name;
            std::cout << ")";
        }
        std::cout << "\n";
        return 1;
    }
    if (min_portable > 0 && g_portable.geomean() < min_portable) {
        std::cout << "FAIL: geomean ref-over-portable speedup "
                  << g_portable.geomean() << "x below the required "
                  << min_portable << "x\n";
        return 1;
    }
    return 0;
}

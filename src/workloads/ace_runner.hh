/**
 * @file
 * End-to-end ACE analysis driver: run a workload on the GPU model
 * with probes attached, resolve liveness, and return the per-bit
 * lifetime stores that the MB-AVF engine consumes; and resolve a
 * structure name to its lifetimes and physical array.
 */

#ifndef MBAVF_WORKLOADS_ACE_RUNNER_HH
#define MBAVF_WORKLOADS_ACE_RUNNER_HH

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/layout.hh"
#include "core/lifetime.hh"
#include "core/lifetime_builder.hh"
#include "gpu/gpu.hh"
#include "mem/cache.hh"
#include "trace/dataflow.hh"
#include "workloads/workload.hh"

namespace mbavf
{

/**
 * Program-level artifacts of one instrumented run, captured for the
 * static-analysis passes (analyze/passes.hh): the full dataflow trace
 * and the raw per-register event logs. Both are copies taken after
 * the run — the Gpu and probes they came from are long gone by the
 * time the passes read them.
 */
struct ProgramCapture
{
    DataflowLog dataflow;
    std::unordered_map<std::uint64_t, WordEventLog> vgprEvents;
};

/** Everything the AVF benches need from one instrumented run. */
struct AceRun
{
    std::string workload;
    GpuConfig config;
    Cycle horizon = 0;

    /** Per-bit lifetimes of CU0's L1 data array. */
    LifetimeStore l1;
    /** Per-bit lifetimes of CU0's vector register file. */
    LifetimeStore vgpr;
    /** Per-bit lifetimes of the shared L2 (when measure_l2). */
    LifetimeStore l2;

    CacheStats l1Stats;
    CacheStats l2Stats;
    std::uint64_t numDefs = 0;
    std::uint64_t numDeadDefs = 0;
    /** Dynamic instructions the run executed. */
    std::uint64_t instrs = 0;

    /**
     * Per-CU VGPR lifetimes (when probe_all_vgprs), indexed by CU.
     * Container ids are CU-local regId()s, exactly like vgpr.
     */
    std::vector<LifetimeStore> vgprPerCu;

    /**
     * Cycles sampled at AceRunOptions::sampleCyclesAt instruction
     * indices, padded with the horizon for indices the run never
     * reached, so sampledCycles.size() == sampleCyclesAt.size().
     */
    std::vector<Cycle> sampledCycles;

    AceRun() : l1(8, 64), vgpr(32, 1), l2(8, 64) {}
};

/** Optional knobs for runAceAnalysis. */
struct AceRunOptions
{
    /** Problem-size multiplier (0/1 = default). */
    unsigned scale = 1;
    GpuConfig config = {};
    /**
     * Also probe the shared L2 (fill consumption resolved through
     * the reference index).
     */
    bool measureL2 = false;
    /**
     * Extra listeners tee'd with the ACE probes on CU0's L1 / the
     * shared L2; mbavf_lint hangs its event recorders here. May be
     * null. The L2 tap observes events even when measureL2 is off.
     */
    CacheListener *l1Tap = nullptr;
    CacheListener *l2Tap = nullptr;
    /**
     * When non-null, receives the run's dataflow trace and raw VGPR
     * event logs for the program-analysis passes. May be null (the
     * copies are not free for large traces).
     */
    ProgramCapture *capture = nullptr;
    /**
     * Probe every CU's VGPR (not just CU0's) and fill
     * AceRun::vgprPerCu. The stratifier needs per-CU lifetimes:
     * waves round-robin across CUs, so proving a site Unace on CU0
     * says nothing about the same register on CU1.
     */
    bool probeAllVgprs = false;
    /**
     * Dynamic-instruction indices (sorted ascending) whose begin
     * cycles to record into AceRun::sampledCycles.
     */
    std::vector<std::uint64_t> sampleCyclesAt;
};

/**
 * Run @p workload_name with ACE instrumentation on CU0's L1 and
 * VGPR (and optionally the shared L2).
 */
AceRun runAceAnalysis(const std::string &workload_name,
                      const AceRunOptions &options);

/** Convenience overload matching the historical signature. */
AceRun runAceAnalysis(const std::string &workload_name,
                      unsigned scale = 1, GpuConfig config = {},
                      bool measure_l2 = false);

/**
 * One structure of the GPU model as the MB-AVF front-ends (mbavf,
 * mbavf_serve, mbavf_analyze) analyze it: where its lifetimes come
 * from, its physical bit array, and the sweep rules that go with it.
 */
struct AnalyzedStructure
{
    /** l1 | l2 | vgpr. */
    std::string name;
    /** The requested interleaving style, or the structure's default. */
    std::string style;
    std::unique_ptr<PhysicalArray> array;
    /** Lifetime word width: 32-bit registers, 8-bit cache bytes. */
    unsigned wordWidth = 8;
    /** Data bits of one protected unit (register or cache line). */
    unsigned protectedBits = 0;
    /**
     * MbAvfOptions::dueShieldsSdc: asked for, or implied by
     * inter-thread VGPR interleaving.
     */
    bool dueShieldsSdc = false;

    /** Whether runAceAnalysis must measure the L2 for lifetimes(). */
    bool measureL2() const { return name == "l2"; }

    /** The structure's lifetimes in @p run. */
    LifetimeStore &lifetimes(AceRun &run) const;

    /**
     * False + @p error when lifetimes of @p word_width bits (say, a
     * saved arena's) cannot belong to this structure.
     */
    bool checkWordWidth(unsigned word_width, std::string &error) const;
};

/** The interleaving style of @p structure when none is given. */
std::string defaultStyle(const std::string &structure);

/**
 * Resolve @p structure (l1 | l2 | vgpr) of @p config with
 * interleaving @p style (empty = defaultStyle()) and factor
 * @p interleave; @p shield_due asks DUE detection to shield SDC.
 * Returns nullopt and sets @p error on an unknown structure, a style
 * the structure does not support, or a zero interleave factor.
 */
std::optional<AnalyzedStructure>
resolveStructure(const std::string &structure, const std::string &style,
                 unsigned interleave, bool shield_due,
                 const GpuConfig &config, std::string &error);

} // namespace mbavf

#endif // MBAVF_WORKLOADS_ACE_RUNNER_HH

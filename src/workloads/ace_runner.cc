#include "workloads/ace_runner.hh"

#include <optional>

#include "gpu/regfile_probe.hh"
#include "mem/cache_probe.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "trace/dataflow.hh"

namespace mbavf
{

AceRun
runAceAnalysis(const std::string &workload_name,
               const AceRunOptions &options)
{
    const GpuConfig &config = options.config;
    const bool measure_l2 = options.measureL2;

    AceRun out;
    out.workload = workload_name;
    out.config = config;

    Gpu gpu(config);

    CacheGeometry l1_geom{config.l1.sets, config.l1.ways,
                          config.l1.lineBytes};
    CacheAvfProbe l1_probe(l1_geom, gpu.refIndex());
    CacheListenerTee l1_tee(&l1_probe, options.l1Tap);
    gpu.l1(0).setListener(&l1_tee);

    CacheGeometry l2_geom{config.l2.sets, config.l2.ways,
                          config.l2.lineBytes};
    CacheAvfProbe l2_probe(l2_geom, gpu.refIndex());
    l2_probe.setResolveReadsViaRefIndex(true);
    CacheListenerTee l2_tee(measure_l2 ? &l2_probe : nullptr,
                            options.l2Tap);
    if (measure_l2 || options.l2Tap)
        gpu.l2().setListener(&l2_tee);

    RegFileAvfProbe vgpr_probe(config.regs);
    gpu.regFile(0).setListener(&vgpr_probe);

    // Per-CU probes for the stratifier; CU0 reuses vgpr_probe so the
    // historical vgpr store and vgprPerCu[0] come from one recording.
    std::vector<std::unique_ptr<RegFileAvfProbe>> cu_probes;
    if (options.probeAllVgprs) {
        for (unsigned cu = 1; cu < config.numCus; ++cu) {
            cu_probes.push_back(
                std::make_unique<RegFileAvfProbe>(config.regs));
            gpu.regFile(cu).setListener(cu_probes.back().get());
        }
    }

    if (!options.sampleCyclesAt.empty())
        gpu.sampleCyclesAt(options.sampleCyclesAt);

    {
        obs::ObsPhase phase("ace.sim");
        auto workload = makeWorkload(workload_name, options.scale);
        workload->run(gpu);
        gpu.finish();
    }

    out.horizon = gpu.horizon();
    out.instrs = gpu.instrCount();
    out.l1Stats = gpu.l1(0).stats();
    out.l2Stats = gpu.l2().stats();
    if (!options.sampleCyclesAt.empty()) {
        out.sampledCycles = gpu.sampledCycles();
        // Indices at or beyond the instruction count never fired;
        // the horizon bounds every lifetime, so it is the sound pad.
        out.sampledCycles.resize(options.sampleCyclesAt.size(),
                                 out.horizon);
    }

    // The backward pass: liveness over the dataflow graph, then each
    // probe resolves its recorded lifetimes against it.
    std::optional<Liveness> liveness;
    {
        obs::ObsPhase phase("ace.liveness");
        liveness.emplace(gpu.dataflow());
    }
    out.numDefs = liveness->numDefs();
    out.numDeadDefs = liveness->numDead();

    static const obs::Counter defs_counter =
        obs::MetricsRegistry::global().counter("ace.defs");
    static const obs::Counter dead_counter =
        obs::MetricsRegistry::global().counter("ace.dead_defs");
    defs_counter.add(out.numDefs);
    dead_counter.add(out.numDeadDefs);

    {
        obs::ObsPhase phase("ace.backward");
        LivenessResolver resolver = [&liveness](DefId def) {
            return static_cast<std::uint64_t>(
                liveness->relevance(def));
        };
        out.l1 = l1_probe.finalize(out.horizon, resolver);
        out.vgpr = vgpr_probe.finalize(out.horizon, resolver);
        if (measure_l2)
            out.l2 = l2_probe.finalize(out.horizon, resolver);
        if (options.probeAllVgprs) {
            // CU0's probe is vgpr_probe: finalized once, above.
            out.vgprPerCu.reserve(config.numCus);
            out.vgprPerCu.push_back(out.vgpr);
            for (auto &probe : cu_probes) {
                out.vgprPerCu.push_back(
                    probe->finalize(out.horizon, resolver));
            }
        }
    }
    if (options.capture) {
        options.capture->dataflow = gpu.dataflow();
        options.capture->vgprEvents = vgpr_probe.logs();
    }
    return out;
}

AceRun
runAceAnalysis(const std::string &workload_name, unsigned scale,
               GpuConfig config, bool measure_l2)
{
    AceRunOptions options;
    options.scale = scale;
    options.config = config;
    options.measureL2 = measure_l2;
    return runAceAnalysis(workload_name, options);
}

} // namespace mbavf

#include "serve/shard.hh"

#include <unistd.h>

#include <cstdlib>
#include <optional>

#include "core/arena_io.hh"
#include "core/lifetime_arena.hh"
#include "core/protection.hh"
#include "core/sweep.hh"
#include "inject/campaign.hh"
#include "inject/stratified.hh"
#include "obs/adapters.hh"
#include "workloads/ace_runner.hh"

namespace mbavf::serve
{

namespace
{

/** The deliberate failures supervisor tests provoke. */
void
applyFaultInstrumentation(const JobConfig &config)
{
    if (config.fault == "crash")
        std::abort();
    if (config.fault == "hang") {
        for (;;)
            ::pause();
    }
}

bool
runSweepShard(const JobConfig &config, obs::JsonValue &out,
              std::string &error)
{
    const GpuConfig gpu;
    const std::optional<AnalyzedStructure> target =
        resolveStructure(config.structure, config.style,
                         config.interleave, config.shieldDue, gpu,
                         error);
    if (!target)
        return false;

    // One arena: mapped from the job's file, or built once from the
    // simulated structure (the run is dropped before the sweep).
    Cycle horizon = 0;
    std::optional<LifetimeArena> arena;
    if (!config.arenaIn.empty()) {
        arena = tryLoadArena(config.arenaIn, error, &horizon);
        if (!arena) {
            error = "cannot load arena '" + config.arenaIn +
                    "': " + error;
            return false;
        }
        if (horizon == 0) {
            error = "arena '" + config.arenaIn +
                    "' records no producer horizon";
            return false;
        }
    } else {
        AceRun run = runAceAnalysis(config.workload, config.scale,
                                    gpu, target->measureL2());
        horizon = run.horizon;
        arena.emplace(target->lifetimes(run));
    }
    if (!target->checkWordWidth(arena->wordWidth(), error))
        return false;

    auto scheme = makeScheme(config.scheme);
    MbAvfOptions opt;
    opt.horizon = horizon;
    opt.numWindows = config.windows;
    opt.dueShieldsSdc = target->dueShieldsSdc;

    applyFaultInstrumentation(config);

    ModeSweep sweep = sweepModesArena(*target->array, *arena, *scheme,
                                      opt, config.modes);
    StructureSer ser =
        sweepSer(sweep, caseStudyFaultRates(config.totalFit));

    out = obs::JsonValue::object();
    out.set("type", "sweep");
    out.set("avf", obs::modeSweepJson(sweep));
    out.set("ser", obs::serJson(ser));
    return true;
}

/** "counts" object from a tally's outcome counters. */
obs::JsonValue
countsJson(const CampaignTally &tally)
{
    obs::JsonValue counts = obs::JsonValue::object();
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        const InjectOutcome outcome = static_cast<InjectOutcome>(i);
        counts.set(injectOutcomeName(outcome),
                   obs::JsonValue(tally.count(outcome)));
    }
    return counts;
}

obs::JsonValue
codesJson(const CampaignTally &tally)
{
    obs::JsonValue codes = obs::JsonValue::object();
    for (const auto &[code, count] : tally.codeCounts)
        codes.set(code, obs::JsonValue(count));
    return codes;
}

/**
 * A stratified shard runs picks [firstTrial, firstTrial + numTrials)
 * of the deterministic allocation sequence. Besides the flat counts
 * every campaign shard emits (so mergeCampaignShards works
 * unchanged), it carries sparse per-stratum counts and — identically
 * from every shard — the stratum table itself, so the supervisor can
 * fold the combined estimator without rebuilding the partition.
 */
bool
runStratifiedShard(const JobConfig &config, const ShardSpec &shard,
                   Campaign &campaign, obs::JsonValue &out,
                   std::string &error)
{
    StratifyOptions options;
    options.windows = config.stratifyWindows;
    options.maxClasses = config.stratifyClasses;
    if (options.windows == 0 || options.windows > 16 ||
        options.maxClasses < 2) {
        error = "stratify_windows must be 1..16 and "
                "stratify_classes at least 2";
        return false;
    }
    const Stratification strat =
        Stratification::build(campaign, options);

    applyFaultInstrumentation(config);

    const std::vector<Stratification::Pick> picks =
        strat.picks(shard.firstTrial, shard.numTrials);
    CampaignTally tally;
    std::vector<StratumTally> tallies(strat.strata().size());
    for (const Stratification::Pick &pick : picks) {
        const TrialResult result =
            campaign.runOne(strat.trialSpec(pick, config.seed));
        tally.add(result);
        StratumTally &st = tallies[pick.stratum];
        ++st.trials;
        ++st.counts[static_cast<std::size_t>(result.outcome)];
    }

    obs::JsonValue stratum_counts = obs::JsonValue::array();
    for (std::size_t h = 0; h < tallies.size(); ++h) {
        if (tallies[h].trials == 0)
            continue;
        obs::JsonValue entry = obs::JsonValue::object();
        entry.set("stratum", obs::JsonValue(std::uint64_t(h)));
        entry.set("trials", obs::JsonValue(tallies[h].trials));
        obs::JsonValue counts = obs::JsonValue::object();
        for (std::size_t o = 0; o < numInjectOutcomes; ++o) {
            counts.set(
                injectOutcomeName(static_cast<InjectOutcome>(o)),
                obs::JsonValue(tallies[h].counts[o]));
        }
        entry.set("counts", std::move(counts));
        stratum_counts.push(std::move(entry));
    }

    obs::JsonValue meta = obs::JsonValue::object();
    meta.set("hash", obs::JsonValue(strat.hash()));
    meta.set("windows",
             obs::JsonValue(std::uint64_t(strat.numWindows())));
    meta.set("classes",
             obs::JsonValue(std::uint64_t(strat.numClasses())));
    meta.set("skipped_weight", obs::JsonValue(strat.skippedWeight()));
    obs::JsonValue table = obs::JsonValue::array();
    for (const Stratum &st : strat.strata()) {
        obs::JsonValue entry = obs::JsonValue::object();
        entry.set("class",
                  obs::JsonValue(std::uint64_t(st.siteClass)));
        entry.set("window", obs::JsonValue(std::uint64_t(st.window)));
        entry.set("weight", obs::JsonValue(st.weight));
        entry.set("predicted", obs::JsonValue(st.predicted));
        entry.set("skipped", obs::JsonValue(st.skipped));
        table.push(std::move(entry));
    }
    meta.set("table", std::move(table));

    out = obs::JsonValue::object();
    out.set("type", "campaign");
    out.set("stratified", obs::JsonValue(true));
    out.set("strata_hash", obs::JsonValue(strat.hash()));
    out.set("trials", obs::JsonValue(tally.total()));
    out.set("counts", countsJson(tally));
    out.set("codes", codesJson(tally));
    out.set("stratum_counts", std::move(stratum_counts));
    out.set("strata_meta", std::move(meta));
    return true;
}

bool
runCampaignShard(const JobConfig &config, const ShardSpec &shard,
                 obs::JsonValue &out, std::string &error)
{
    TrialKind kind = TrialKind::Register;
    if (!parseTrialKind(config.kind, kind)) {
        error = "unknown kind '" + config.kind + "'";
        return false;
    }

    Campaign campaign(config.workload, config.scale, GpuConfig{});
    campaign.setWatchdogMultiplier(config.watchdog);
    if (config.protect != "none")
        campaign.setProtection(config.protect, config.protectDomain);

    if (config.stratify)
        return runStratifiedShard(config, shard, campaign, out,
                                  error);

    applyFaultInstrumentation(config);

    CampaignTally tally;
    for (const TrialResult &result : campaign.runTrialsDetailed(
             static_cast<std::size_t>(shard.firstTrial),
             static_cast<std::size_t>(shard.numTrials), config.seed,
             kind))
        tally.add(result);

    out = obs::JsonValue::object();
    out.set("type", "campaign");
    out.set("trials", obs::JsonValue(tally.total()));
    out.set("counts", countsJson(tally));
    out.set("codes", codesJson(tally));
    return true;
}

} // namespace

bool
runShard(const JobConfig &config, const ShardSpec &shard,
         obs::JsonValue &out, std::string &error)
{
    if (config.type == JobType::Sweep)
        return runSweepShard(config, out, error);
    return runCampaignShard(config, shard, out, error);
}

obs::JsonValue
mergeCampaignShards(const std::vector<obs::JsonValue> &shard_results)
{
    CampaignTally tally;
    for (const obs::JsonValue &result : shard_results) {
        const obs::JsonValue *counts = result.find("counts");
        for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
            const InjectOutcome outcome =
                static_cast<InjectOutcome>(i);
            const obs::JsonValue *count =
                counts ? counts->find(injectOutcomeName(outcome))
                       : nullptr;
            tally.counts[i] += count ? count->asUint() : 0;
        }
        const obs::JsonValue *codes = result.find("codes");
        if (codes && codes->isObject()) {
            for (const auto &[code, count] : codes->members())
                tally.codeCounts[code] += count.asUint();
        }
    }
    return obs::tallyJson(tally);
}

bool
mergeStratifiedStrata(const JobConfig &job,
                      const std::vector<obs::JsonValue> &shard_results,
                      obs::JsonValue &out, std::string &error)
{
    if (shard_results.empty()) {
        error = "stratified merge has no shard results";
        return false;
    }

    // Every shard computes the same partition; the hash check is the
    // guard that a stale cache entry (or a worker running different
    // code) cannot silently fold counts into the wrong strata.
    const obs::JsonValue *meta = shard_results[0].find("strata_meta");
    if (!meta || !meta->isObject()) {
        error = "stratified shard result lacks strata_meta";
        return false;
    }
    const obs::JsonValue *hash = meta->find("hash");
    const obs::JsonValue *windows = meta->find("windows");
    const obs::JsonValue *classes = meta->find("classes");
    const obs::JsonValue *skipped = meta->find("skipped_weight");
    const obs::JsonValue *table = meta->find("table");
    if (!hash || !windows || !classes || !skipped || !table ||
        !table->isArray()) {
        error = "stratified strata_meta is malformed";
        return false;
    }
    for (const obs::JsonValue &result : shard_results) {
        const obs::JsonValue *shard_hash = result.find("strata_hash");
        if (!shard_hash || shard_hash->asUint() != hash->asUint()) {
            error = "stratified shards disagree on the partition "
                    "hash; refusing to merge";
            return false;
        }
    }

    std::vector<Stratum> strata;
    strata.reserve(table->items().size());
    for (const obs::JsonValue &entry : table->items()) {
        const obs::JsonValue *cls = entry.find("class");
        const obs::JsonValue *window = entry.find("window");
        const obs::JsonValue *weight = entry.find("weight");
        const obs::JsonValue *predicted = entry.find("predicted");
        const obs::JsonValue *is_skipped = entry.find("skipped");
        if (!cls || !window || !weight || !predicted || !is_skipped) {
            error = "stratified strata_meta table is malformed";
            return false;
        }
        Stratum st;
        st.siteClass = static_cast<std::uint32_t>(cls->asUint());
        st.window = static_cast<std::uint32_t>(window->asUint());
        st.weight = weight->asDouble();
        st.predicted = predicted->asDouble();
        st.skipped = is_skipped->asBool();
        strata.push_back(st);
    }

    std::vector<StratumTally> tallies(strata.size());
    for (const obs::JsonValue &result : shard_results) {
        const obs::JsonValue *counts = result.find("stratum_counts");
        if (!counts || !counts->isArray()) {
            error = "stratified shard result lacks stratum_counts";
            return false;
        }
        for (const obs::JsonValue &entry : counts->items()) {
            const obs::JsonValue *index = entry.find("stratum");
            const obs::JsonValue *trials = entry.find("trials");
            const obs::JsonValue *outcome_counts =
                entry.find("counts");
            if (!index || !trials || !outcome_counts ||
                index->asUint() >= tallies.size()) {
                error = "stratified stratum_counts entry is "
                        "malformed";
                return false;
            }
            StratumTally &tally = tallies[index->asUint()];
            tally.trials += trials->asUint();
            for (std::size_t o = 0; o < numInjectOutcomes; ++o) {
                const obs::JsonValue *count = outcome_counts->find(
                    injectOutcomeName(static_cast<InjectOutcome>(o)));
                tally.counts[o] += count ? count->asUint() : 0;
            }
        }
    }

    out = obs::strataJson(
        strata, hash->asUint(),
        static_cast<unsigned>(windows->asUint()),
        static_cast<std::uint32_t>(classes->asUint()),
        skipped->asDouble(), tallies, job.effectiveTrials());
    return true;
}

} // namespace mbavf::serve

/**
 * @file
 * mbavf — command-line driver for MB-AVF analysis.
 *
 * Runs a workload on the APU model (or maps a previously saved
 * arena), then reports single- and multi-bit AVFs and SER for a
 * chosen structure, protection scheme, and interleaving.
 *
 *   mbavf --workload=minife --structure=l1 --scheme=parity \
 *         --style=way --interleave=2 --modes=4 [--windows=8]
 *         [--total-fit=100] [--arena-out=F] [--arena-in=F]
 *
 * Structures: l1 | l2 | vgpr.
 * Schemes: none | parity | secded | dected | crc.
 * Styles: logical | way | index (caches); intra | inter (vgpr).
 *
 * --arena-out persists the structure's flattened LifetimeArena (the
 * layout the sweep kernel reads, plus tags and the horizon; DESIGN.md
 * Section 13) so later invocations with --arena-in can map it back
 * and sweep designs without re-simulating or re-flattening.
 */

#include <fstream>
#include <iostream>
#include <optional>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "core/arena_io.hh"
#include "core/lifetime_arena.hh"
#include "core/mbavf.hh"
#include "core/protection.hh"
#include "core/sweep.hh"
#include "inject/campaign.hh"
#include "inject/journal.hh"
#include "inject/stratified.hh"
#include "obs/adapters.hh"
#include "obs/build_info.hh"
#include "obs/heartbeat.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

namespace
{

void
usage()
{
    std::cout <<
        "usage: mbavf --workload=NAME [options]\n"
        "       mbavf --arena-in=FILE [options]\n"
        "       mbavf --campaign --workload=NAME [options]\n\n"
        "options:\n"
        "  --structure=l1|l2|vgpr   structure to analyze (l1)\n"
        "  --scheme=NAME            none|parity|secded|dected|crc\n"
        "  --style=NAME             logical|way|index | intra|inter\n"
        "  --interleave=N           interleave factor (2)\n"
        "  --modes=M                analyze 1x1..Mx1 (8)\n"
        "  --windows=N              AVF-over-time windows (0)\n"
        "  --threads=N              worker threads; 0 = all hardware\n"
        "                           threads (default MBAVF_THREADS\n"
        "                           or all); results are identical\n"
        "                           at any thread count\n"
        "  --total-fit=F            raw structure fault rate (100)\n"
        "  --scale=N                workload problem-size multiplier\n"
        "  --shield-due             DUE detection shields SDC\n"
        "  --arena-out=FILE         persist the structure's flattened\n"
        "                           sweep arena (mmap-able binary,\n"
        "                           DESIGN.md Section 13)\n"
        "  --arena-in=FILE          map a saved arena and sweep it\n"
        "                           directly (no store, no flatten;\n"
        "                           results identical at any\n"
        "                           --threads)\n"
        "  --list-workloads         print workload names\n"
        "  --manifest=FILE          write a JSON run manifest; its\n"
        "                           numbers (outside phases/env) are\n"
        "                           bit-identical at any --threads\n"
        "  --trace-out=FILE         write a Chrome trace_event JSON\n"
        "                           timeline (chrome://tracing,\n"
        "                           Perfetto)\n"
        "  --version                print build info and exit\n\n"
        "campaign options (--campaign):\n"
        "  --trials=N               injection trials (1000)\n"
        "  --seed=S                 campaign base seed (1); trial t\n"
        "                           draws from splitMix64(S, t)\n"
        "  --kind=register|memory   injection target (register)\n"
        "  --watchdog=M             hang budgets = M x golden run\n"
        "                           (8; 0 disables the watchdog)\n"
        "  --protect=NAME           protection scheme for DUE\n"
        "                           classification (none)\n"
        "  --protect-domain=BITS    protection domain width (8)\n"
        "  --checkpoint=FILE        journal progress to FILE\n"
        "  --checkpoint-every=K     flush every K trials (64)\n"
        "  --resume                 continue FILE's campaign; the\n"
        "                           final tallies are bit-identical\n"
        "                           to an uninterrupted run\n"
        "  --heartbeat              progress lines on stderr every\n"
        "                           --checkpoint-every trials\n\n"
        "stratified campaign options (--campaign --stratify):\n"
        "  --stratify               two-level estimation: partition\n"
        "                           the fault space by ACE analysis,\n"
        "                           skip provably-Masked strata, and\n"
        "                           importance-sample the rest\n"
        "                           (register kind only)\n"
        "  --stratify-windows=N     trigger windows (8)\n"
        "  --stratify-classes=N     site-class cap (64)\n"
        "  --budget=N               injected-trial budget (--trials)\n"
        "  --target-ci=W            spend the smallest budget whose\n"
        "                           predicted SDC CI width is <= W\n"
        "                           (capped by --budget)\n";
}

/** All options both CLI modes accept, for typo rejection. */
void
checkOptions(const Args &args)
{
    args.requireKnown({
        "help", "list-workloads", "workload", "structure", "scheme",
        "style", "interleave", "modes", "windows", "threads",
        "total-fit", "scale", "shield-due", "arena-out", "arena-in",
        "campaign", "trials", "seed", "kind",
        "watchdog", "protect", "protect-domain", "checkpoint",
        "checkpoint-every", "resume", "heartbeat", "manifest",
        "trace-out", "version", "stratify", "stratify-windows",
        "stratify-classes", "budget", "target-ci",
    });
}

/**
 * Enable the obs sinks the run asked for. Flipping the flags before
 * the measured work means the hot-path instrumentation (metrics,
 * phases, trace slices) actually records; with neither flag passed
 * everything stays at its one-relaxed-load disabled cost.
 */
void
enableObsSinks(const std::string &manifest_path,
               const std::string &trace_path)
{
    if (!manifest_path.empty()) {
        obs::setMetricsEnabled(true);
        obs::setTimingEnabled(true);
    }
    if (!trace_path.empty())
        obs::setTracingEnabled(true);
}

/** Flush --manifest / --trace-out files after the measured work. */
void
writeObsOutputs(obs::Manifest *manifest,
                const std::string &manifest_path,
                const std::string &trace_path)
{
    if (manifest && !manifest_path.empty()) {
        manifest->captureObservations();
        manifest->setEnv();
        std::string error;
        if (!manifest->write(manifest_path, error))
            fatal("cannot write manifest: ", error);
        inform("wrote manifest to ", manifest_path);
    }
    if (!trace_path.empty()) {
        std::string error;
        if (!obs::writeChromeTrace(trace_path, error))
            fatal("cannot write trace: ", error);
        inform("wrote trace to ", trace_path);
    }
}

/**
 * How many of the @p ran trials this process ran were settled Masked
 * from the golden-run liveness map instead of simulated.
 */
void
printSettled(const Campaign &campaign, std::uint64_t ran)
{
    std::cout << "\n" << campaign.trialsSettled() << " of " << ran
              << " trials settled by golden-run liveness\n";
}

/**
 * The --campaign --stratify mode: two-level estimation. Level one
 * (inject/stratified.hh) partitions the fault space and prices the
 * allocation; level two injects the picks and folds per-stratum
 * tallies into the combined estimator. Checkpoints use version 2
 * journals keyed by the partition hash.
 */
int
runStratifiedCampaignCli(const Args &args)
{
    const std::string workload = args.getString("workload", "");
    if (workload.empty()) {
        usage();
        return 1;
    }
    const unsigned scale =
        static_cast<unsigned>(args.getInt("scale", 1));
    const std::uint64_t base_seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    TrialKind kind = TrialKind::Register;
    if (!parseTrialKind(args.getString("kind", "register"), kind))
        fatal("unknown --kind (register|memory)");
    if (kind != TrialKind::Register)
        fatal("--stratify supports --kind=register only");
    const std::string checkpoint = args.getString("checkpoint", "");
    const bool resume = args.getBool("resume");
    if (resume && checkpoint.empty())
        fatal("--resume requires --checkpoint=FILE");
    if (!resume && !checkpoint.empty() &&
        static_cast<bool>(std::ifstream(checkpoint))) {
        fatal("checkpoint '", checkpoint,
              "' already exists; use --resume to continue it or "
              "remove it first");
    }
    const std::uint64_t every = static_cast<std::uint64_t>(
        args.getInt("checkpoint-every", 64));
    const std::string manifest_path = args.getString("manifest", "");
    const std::string trace_path = args.getString("trace-out", "");
    enableObsSinks(manifest_path, trace_path);

    StratifyOptions opts;
    opts.windows =
        static_cast<unsigned>(args.getInt("stratify-windows", 8));
    opts.maxClasses =
        static_cast<unsigned>(args.getInt("stratify-classes", 64));

    std::cout << "stratified campaign: " << workload << " x" << scale
              << ", seed " << base_seed << ", " << opts.windows
              << " windows, <= " << opts.maxClasses
              << " site classes\n";

    Campaign campaign(workload, scale, GpuConfig{});
    campaign.setWatchdogMultiplier(args.getDouble("watchdog", 8.0));
    const std::string protect = args.getString("protect", "none");
    if (protect != "none") {
        campaign.setProtection(
            protect,
            static_cast<unsigned>(args.getInt("protect-domain", 8)));
    }
    const Stratification strat =
        Stratification::build(campaign, opts);

    bool sampleable = false;
    for (const Stratum &st : strat.strata())
        sampleable = sampleable || (!st.skipped && st.weight > 0.0);

    // The budget is a pure function of the partition and the flags,
    // so shards and resumes re-derive it identically.
    std::uint64_t budget = static_cast<std::uint64_t>(args.getInt(
        "budget", args.getInt("trials", 1000)));
    if (args.has("target-ci")) {
        budget = strat.budgetForTargetCi(
            args.getDouble("target-ci", 0.0), budget);
    }
    if (!sampleable)
        budget = 0;

    std::cout << "partition " << std::hex << strat.hash() << std::dec
              << ": " << strat.strata().size() << " strata, "
              << formatFixed(100.0 * strat.skippedWeight(), 2)
              << "% of the fault space provably Masked; budget "
              << budget << " injected trials\n";

    JournalHeader header;
    header.workload = workload;
    header.scale = scale;
    header.kind = kind;
    header.baseSeed = base_seed;
    header.trials = budget;
    header.version = 2;
    header.strataHash = strat.hash();

    std::vector<JournalRecord> completed;
    if (resume && static_cast<bool>(std::ifstream(checkpoint))) {
        CampaignJournal journal;
        std::string error;
        if (!CampaignJournal::load(checkpoint, journal, error))
            fatal("cannot resume: ", error);
        if (!(journal.header == header)) {
            fatal("checkpoint '", checkpoint,
                  "' records a different stratified campaign (check "
                  "workload/scale/seed/budget and the partition "
                  "hash)");
        }
        completed = std::move(journal.records);
    }
    if (completed.size() > budget)
        fatal("checkpoint has more trials than the budget ", budget);
    if (!completed.empty()) {
        std::cout << "resuming after " << completed.size()
                  << " completed trials\n";
    }

    const std::size_t first = completed.size();
    const std::size_t remaining =
        static_cast<std::size_t>(budget) - first;
    const std::vector<Stratification::Pick> picks =
        strat.picks(first, remaining);

    std::vector<std::string> outcome_labels;
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        outcome_labels.emplace_back(
            injectOutcomeName(static_cast<InjectOutcome>(i)));
    }
    obs::Heartbeat heartbeat(
        outcome_labels, budget, every,
        args.getBool("heartbeat") ? &std::cerr : nullptr);
    if (!completed.empty()) {
        std::vector<std::uint64_t> primed(numInjectOutcomes, 0);
        for (const JournalRecord &record : completed)
            ++primed[static_cast<std::size_t>(record.result.outcome)];
        heartbeat.prime(primed);
    }

    // Per-stratum tallies feed the combined estimator; the flat
    // tally keeps the familiar outcome/code table.
    std::vector<StratumTally> tallies(strat.strata().size());
    CampaignTally tally;
    const auto deposit = [&](std::uint32_t stratum,
                             const TrialResult &result) {
        if (stratum >= tallies.size())
            fatal("journal stratum ", stratum,
                  " outside the partition");
        ++tallies[stratum].trials;
        ++tallies[stratum]
              .counts[static_cast<std::size_t>(result.outcome)];
        tally.add(result);
    };

    for (const JournalRecord &record : completed)
        deposit(record.stratum, record.result);

    std::vector<TrialResult> results(remaining);
    if (!checkpoint.empty()) {
        JournalWriter writer(checkpoint, header, every,
                             std::move(completed));
        runTasks(remaining, [&](std::size_t i) {
            const Stratification::Pick &pick = picks[i];
            results[i] =
                campaign.runOne(strat.trialSpec(pick, base_seed));
            writer.record(first + i,
                          strat.pickSeed(pick, base_seed),
                          pick.stratum, results[i]);
            heartbeat.record(
                static_cast<std::size_t>(results[i].outcome));
        });
        writer.finish();
    } else {
        runTasks(remaining, [&](std::size_t i) {
            results[i] = campaign.runOne(
                strat.trialSpec(picks[i], base_seed));
            heartbeat.record(
                static_cast<std::size_t>(results[i].outcome));
        });
    }
    heartbeat.finish();
    for (std::size_t i = 0; i < remaining; ++i)
        deposit(picks[i].stratum, results[i]);

    std::cout << "\n";
    Table table({"outcome", "injected", "combined rate", "95% CI"});
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        const InjectOutcome outcome = static_cast<InjectOutcome>(i);
        const WilsonInterval rate =
            strat.combinedInterval(tallies, outcome);
        std::string ci;
        ci += '[';
        ci += formatFixed(rate.low, 5);
        ci += ", ";
        ci += formatFixed(rate.high, 5);
        ci += ']';
        table.beginRow()
            .cell(injectOutcomeName(outcome))
            .cell(std::to_string(tally.count(outcome)))
            .cell(rate.point, 5)
            .cell(ci);
    }
    table.printText(std::cout);
    printSettled(campaign, remaining);

    const WilsonInterval sdc =
        strat.combinedInterval(tallies, InjectOutcome::Sdc);
    const std::uint64_t injected = tally.total();
    const std::uint64_t effective =
        injected == 0
            ? 0
            : effectiveUniformTrials(sdc.high - sdc.low, sdc.point);
    std::cout << "\ninjected " << injected << " trials; the SDC "
              << "interval is worth " << effective
              << " uniform trials ("
              << formatFixed(injected == 0
                                 ? 0.0
                                 : static_cast<double>(effective) /
                                       static_cast<double>(injected),
                             2)
              << "x)\n";

    if (!tally.codeCounts.empty()) {
        std::cout << "\ndiagnostic codes:\n";
        for (const auto &[code, count] : tally.codeCounts)
            std::cout << "  " << code << "  " << count << "\n";
    }

    obs::Manifest manifest("mbavf --campaign --stratify");
    if (!manifest_path.empty()) {
        obs::JsonValue run = obs::JsonValue::object();
        run.set("workload", workload);
        run.set("scale", obs::JsonValue(std::uint64_t(scale)));
        run.set("trials", obs::JsonValue(budget));
        run.set("seed", obs::JsonValue(base_seed));
        run.set("kind", std::string(trialKindName(kind)));
        run.set("protect", protect);
        run.set("resumed_trials",
                obs::JsonValue(std::uint64_t(first)));
        run.set("stratify", obs::JsonValue(true));
        run.set("stratify_windows",
                obs::JsonValue(std::uint64_t(opts.windows)));
        run.set("stratify_classes",
                obs::JsonValue(std::uint64_t(opts.maxClasses)));
        manifest.set("run", std::move(run));
        manifest.set("campaign", obs::tallyJson(tally));
        manifest.set("strata",
                     obs::strataJson(strat, tallies, budget));
    }
    writeObsOutputs(&manifest, manifest_path, trace_path);
    return 0;
}

/** The --campaign mode: injection trials with checkpoint/resume. */
int
runCampaignCli(const Args &args)
{
    if (args.has("budget") || args.has("target-ci") ||
        args.has("stratify-windows") || args.has("stratify-classes"))
        fatal("--budget/--target-ci/--stratify-* require --stratify");
    const std::string workload = args.getString("workload", "");
    if (workload.empty()) {
        usage();
        return 1;
    }
    const unsigned scale =
        static_cast<unsigned>(args.getInt("scale", 1));
    const std::uint64_t trials =
        static_cast<std::uint64_t>(args.getInt("trials", 1000));
    const std::uint64_t base_seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    TrialKind kind = TrialKind::Register;
    if (!parseTrialKind(args.getString("kind", "register"), kind))
        fatal("unknown --kind (register|memory)");
    const std::string checkpoint = args.getString("checkpoint", "");
    const bool resume = args.getBool("resume");
    if (resume && checkpoint.empty())
        fatal("--resume requires --checkpoint=FILE");
    const std::uint64_t every = static_cast<std::uint64_t>(
        args.getInt("checkpoint-every", 64));
    const std::string manifest_path = args.getString("manifest", "");
    const std::string trace_path = args.getString("trace-out", "");
    enableObsSinks(manifest_path, trace_path);

    JournalHeader header;
    header.workload = workload;
    header.scale = scale;
    header.kind = kind;
    header.baseSeed = base_seed;
    header.trials = trials;

    // Recover completed trials before paying for the golden run.
    std::vector<JournalRecord> completed;
    if (!checkpoint.empty()) {
        const bool exists =
            static_cast<bool>(std::ifstream(checkpoint));
        if (resume) {
            if (exists) {
                CampaignJournal journal;
                std::string error;
                if (!CampaignJournal::load(checkpoint, journal,
                                           error))
                    fatal("cannot resume: ", error);
                if (!(journal.header == header)) {
                    fatal("checkpoint '", checkpoint,
                          "' records a different campaign (check "
                          "workload/scale/kind/seed/trials)");
                }
                completed = std::move(journal.records);
            }
            // No file yet: a resume of a campaign that never
            // started is just a fresh start.
        } else if (exists) {
            fatal("checkpoint '", checkpoint,
                  "' already exists; use --resume to continue it "
                  "or remove it first");
        }
    }
    if (completed.size() > trials)
        fatal("checkpoint has more trials than --trials=", trials);

    std::cout << "campaign: " << workload << " x" << scale << ", "
              << trials << " " << trialKindName(kind)
              << " trials, seed " << base_seed << "\n";
    if (!completed.empty()) {
        std::cout << "resuming after " << completed.size()
                  << " completed trials\n";
    }

    Campaign campaign(workload, scale, GpuConfig{});
    campaign.setWatchdogMultiplier(args.getDouble("watchdog", 8.0));
    const std::string protect = args.getString("protect", "none");
    if (protect != "none") {
        campaign.setProtection(
            protect,
            static_cast<unsigned>(args.getInt("protect-domain", 8)));
    }

    const std::size_t first = completed.size();
    const std::size_t remaining =
        static_cast<std::size_t>(trials) - first;

    // Heartbeat lines land on the same boundaries the journal
    // flushes at, so every line corresponds to a recoverable state.
    std::vector<std::string> outcome_labels;
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        outcome_labels.emplace_back(
            injectOutcomeName(static_cast<InjectOutcome>(i)));
    }
    obs::Heartbeat heartbeat(
        outcome_labels, trials, every,
        args.getBool("heartbeat") ? &std::cerr : nullptr);
    if (!completed.empty()) {
        std::vector<std::uint64_t> primed(numInjectOutcomes, 0);
        for (const JournalRecord &record : completed)
            ++primed[static_cast<std::size_t>(record.result.outcome)];
        heartbeat.prime(primed);
    }

    CampaignTally tally;
    if (!checkpoint.empty()) {
        JournalWriter writer(checkpoint, header, every,
                             std::move(completed));
        campaign.runTrialsDetailed(
            first, remaining, base_seed, kind,
            [&writer, &heartbeat](std::size_t t,
                                  const TrialResult &result) {
                writer.record(t, result);
                heartbeat.record(
                    static_cast<std::size_t>(result.outcome));
            });
        writer.finish();
        tally = writer.journal().tally();
    } else {
        for (const JournalRecord &record : completed)
            tally.add(record.result);
        for (const TrialResult &result : campaign.runTrialsDetailed(
                 first, remaining, base_seed, kind,
                 [&heartbeat](std::size_t, const TrialResult &r) {
                     heartbeat.record(
                         static_cast<std::size_t>(r.outcome));
                 }))
            tally.add(result);
    }
    heartbeat.finish();

    std::cout << "\n";
    Table table({"outcome", "count", "rate", "95% CI"});
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        const InjectOutcome outcome =
            static_cast<InjectOutcome>(i);
        const WilsonInterval rate = tally.rate(outcome);
        std::string ci;
        ci += '[';
        ci += formatFixed(rate.low, 5);
        ci += ", ";
        ci += formatFixed(rate.high, 5);
        ci += ']';
        table.beginRow()
            .cell(injectOutcomeName(outcome))
            .cell(std::to_string(tally.count(outcome)))
            .cell(rate.point, 5)
            .cell(ci);
    }
    table.printText(std::cout);
    printSettled(campaign, remaining);

    if (!tally.codeCounts.empty()) {
        std::cout << "\ndiagnostic codes:\n";
        for (const auto &[code, count] : tally.codeCounts)
            std::cout << "  " << code << "  " << count << "\n";
    }

    obs::Manifest manifest("mbavf --campaign");
    if (!manifest_path.empty()) {
        obs::JsonValue run = obs::JsonValue::object();
        run.set("workload", workload);
        run.set("scale", obs::JsonValue(std::uint64_t(scale)));
        run.set("trials", obs::JsonValue(trials));
        run.set("seed", obs::JsonValue(base_seed));
        run.set("kind", std::string(trialKindName(kind)));
        run.set("protect", protect);
        run.set("resumed_trials",
                obs::JsonValue(std::uint64_t(first)));
        manifest.set("run", std::move(run));
        manifest.set("campaign", obs::tallyJson(tally));
    }
    writeObsOutputs(&manifest, manifest_path, trace_path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    checkOptions(args);
    if (args.getBool("help")) {
        usage();
        return 0;
    }
    if (args.getBool("version")) {
        std::cout << obs::versionLine("mbavf") << "\n";
        return 0;
    }
    if (args.getBool("list-workloads")) {
        for (const std::string &name : workloadNames())
            std::cout << name << "\n";
        return 0;
    }

    const std::string structure = args.getString("structure", "l1");
    const std::string scheme_name = args.getString("scheme", "parity");
    const std::string style = args.getString(
        "style", structure == "vgpr" ? "inter" : "way");
    const unsigned interleave =
        static_cast<unsigned>(args.getInt("interleave", 2));
    const unsigned max_mode =
        static_cast<unsigned>(args.getInt("modes", 8));
    const unsigned windows =
        static_cast<unsigned>(args.getInt("windows", 0));
    const double total_fit = args.getDouble("total-fit", 100.0);

    // 0 = all hardware threads; unset = MBAVF_THREADS or hardware.
    unsigned num_threads = 0;
    if (args.has("threads")) {
        num_threads =
            static_cast<unsigned>(args.getInt("threads", 0));
        setParallelThreads(num_threads == 0 ? 0 : num_threads);
    }

    if (args.getBool("campaign")) {
        return args.getBool("stratify")
                   ? runStratifiedCampaignCli(args)
                   : runCampaignCli(args);
    }

    const std::string manifest_path = args.getString("manifest", "");
    const std::string trace_path = args.getString("trace-out", "");
    enableObsSinks(manifest_path, trace_path);
    obs::Manifest manifest("mbavf");

    GpuConfig config;
    LifetimeStore life(8, 64);
    Cycle horizon = 0;

    const std::string arena_out = args.getString("arena-out", "");
    const std::string arena_in = args.getString("arena-in", "");

    // An arena file has no backing store, so every store-producing
    // or store-consuming option is incoherent next to --arena-in.
    std::optional<LifetimeArena> arena;
    if (!arena_in.empty()) {
        if (args.has("workload"))
            fatal("--arena-in replaces --workload");
        if (!arena_out.empty()) {
            fatal("--arena-out needs a lifetime store; --arena-in "
                  "provides none");
        }
        std::string error;
        arena = tryLoadArena(arena_in, error, &horizon);
        if (!arena)
            fatal("cannot load arena '", arena_in, "': ", error);
        if (horizon == 0) {
            fatal("arena '", arena_in, "' records no producer "
                  "horizon; re-save it with --arena-out");
        }
        std::cout << "mapped arena from " << arena_in << " ("
                  << arena->numWords() << " word(s), "
                  << arena->numSegments() << " segment(s), horizon "
                  << horizon << ")\n";
    } else {
        const std::string workload = args.getString("workload", "");
        if (workload.empty()) {
            usage();
            return 1;
        }
        const unsigned scale =
            static_cast<unsigned>(args.getInt("scale", 1));
        std::cout << "simulating '" << workload << "' ...\n";
        AceRun run = runAceAnalysis(workload, scale, config,
                                    structure == "l2");
        horizon = run.horizon;
        if (!manifest_path.empty()) {
            obs::JsonValue caches = obs::JsonValue::object();
            caches.set("l1", obs::cacheStatsJson(run.l1Stats));
            caches.set("l2", obs::cacheStatsJson(run.l2Stats));
            manifest.set("cache", std::move(caches));
        }
        if (structure == "l1")
            life = std::move(run.l1);
        else if (structure == "l2")
            life = std::move(run.l2);
        else if (structure == "vgpr")
            life = std::move(run.vgpr);
        else
            fatal("unknown structure '", structure, "'");
    }

    if (!arena_out.empty()) {
        // Stream straight from the store: byte-identical to the
        // in-memory snapshot path without holding both copies.
        streamArenaFromStore(life, arena_out, horizon);
        std::cout << "saved arena to " << arena_out << "\n";
    }

    // Guard against pairing a saved arena with the wrong structure:
    // VGPR lifetimes are 32-bit words, cache lifetimes 8-bit.
    const unsigned word_width =
        arena ? arena->wordWidth() : life.wordWidth();
    unsigned expected_width = structure == "vgpr" ? 32 : 8;
    if (word_width != expected_width) {
        fatal("lifetime word width ", word_width,
              " does not match structure '", structure, "'");
    }

    // Build the physical array.
    std::unique_ptr<PhysicalArray> array;
    if (structure == "vgpr") {
        RegInterleave ri = style == "intra"
            ? RegInterleave::IntraThread
            : RegInterleave::InterThread;
        if (style != "intra" && style != "inter")
            fatal("vgpr style must be intra|inter");
        array = makeRegFileArray(config.regs, ri, interleave);
    } else {
        const CacheParams &cp =
            structure == "l2" ? config.l2 : config.l1;
        CacheGeometry geom{cp.sets, cp.ways, cp.lineBytes};
        array = makeCacheArray(geom, parseCacheInterleave(style),
                               interleave);
    }

    auto scheme = makeScheme(scheme_name);
    MbAvfOptions opt;
    opt.horizon = horizon;
    opt.numWindows = windows;
    opt.numThreads = num_threads;
    opt.dueShieldsSdc = args.getBool("shield-due") ||
        (structure == "vgpr" && style == "inter");

    std::cout << "\n" << structure << ", " << scheme->name() << ", "
              << style << " x" << interleave << ", horizon "
              << horizon << "\n\n";

    ModeSweep sweep = arena
        ? sweepModesArena(*array, *arena, *scheme, opt, max_mode)
        : sweepModes(*array, life, *scheme, opt, max_mode);

    Table table({"mode", "SDC AVF", "trueDUE AVF", "falseDUE AVF",
                 "total"});
    for (unsigned m = 1; m <= max_mode; ++m) {
        const AvfFractions &avf = sweep.avf(m);
        table.beginRow()
            .cell(std::to_string(m) + "x1")
            .cell(avf.sdc, 5)
            .cell(avf.trueDue, 5)
            .cell(avf.falseDue, 5)
            .cell(avf.total(), 5);
    }
    table.printText(std::cout);

    auto fits = caseStudyFaultRates(total_fit);
    StructureSer ser = sweepSer(sweep, fits);
    std::cout << "\nSER @ " << total_fit << " FIT raw:  SDC "
              << formatFixed(ser.sdc, 4) << "  DUE "
              << formatFixed(ser.due(), 4) << "  (check bits: +"
              << formatFixed(100.0 * scheme->areaOverhead(
                                 structure == "vgpr"
                                     ? config.regs.regBits
                                     : config.l1.lineBytes * 8),
                             1)
              << "% area)\n";

    if (windows) {
        std::cout << "\nAVF over time ("
                  << std::to_string(windows) << " windows, mode "
                  << max_mode << "x1):\n";
        const MbAvfResult &last = sweep.results[max_mode - 1];
        Table wt({"window", "SDC", "DUE"});
        for (unsigned w = 0; w < windows; ++w) {
            wt.beginRow()
                .cell(std::to_string(w))
                .cell(last.windows[w].sdc, 4)
                .cell(last.windows[w].due(), 4);
        }
        wt.printText(std::cout);
    }

    if (!manifest_path.empty()) {
        obs::JsonValue run = obs::JsonValue::object();
        run.set("workload", args.getString("workload", ""));
        run.set("structure", structure);
        run.set("scheme", scheme_name);
        run.set("style", style);
        run.set("interleave",
                obs::JsonValue(std::uint64_t(interleave)));
        run.set("modes", obs::JsonValue(std::uint64_t(max_mode)));
        run.set("windows", obs::JsonValue(std::uint64_t(windows)));
        run.set("horizon", obs::JsonValue(std::uint64_t(horizon)));
        run.set("total_fit", obs::JsonValue(total_fit));
        run.set("shield_due", obs::JsonValue(opt.dueShieldsSdc));
        manifest.set("run", std::move(run));
        manifest.set("avf", obs::modeSweepJson(sweep));
        manifest.set("ser", obs::serJson(ser));
    }
    writeObsOutputs(&manifest, manifest_path, trace_path);
    return 0;
}

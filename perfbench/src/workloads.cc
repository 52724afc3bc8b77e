#include "workloads.hh"

#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analyze/attribution.hh"
#include "common/rng.hh"
#include "core/arena_io.hh"
#include "core/fault_mode.hh"
#include "core/fault_rates.hh"
#include "core/layout.hh"
#include "core/lifetime_arena.hh"
#include "core/protection.hh"
#include "core/sweep.hh"
#include "inject/campaign.hh"
#include "inject/stratified.hh"
#include "workloads/ace_runner.hh"

namespace perfbench
{

namespace
{

using namespace mbavf;

/**
 * explore analyzes the largest kernel whose scale-2 golden run is at
 * most this many instructions: large enough that sweeps dominate a
 * pass, small enough that a pass takes a few seconds on two threads.
 */
constexpr std::uint64_t exploreCap = 11000;

/** campaign injects into the largest scale-1 kernel up to this size. */
constexpr std::uint64_t campaignCap = 2500;

constexpr unsigned sweepModesMax = 8;

enum Structure : unsigned { L1 = 0, L2 = 1, Vgpr = 2 };
constexpr std::array<const char *, 3> structureNames = {"l1", "l2",
                                                       "vgpr"};
constexpr std::array<const char *, 5> schemeNames = {
    "none", "parity", "secded", "dected", "crc"};

/** Interleaving styles of a structure; the first is the CLI default. */
std::vector<std::string>
stylesOf(unsigned s)
{
    if (s == Vgpr)
        return {"inter", "intra"};
    return {"way", "logical", "index"};
}

/** Physical array of a structure as `mbavf` builds it (interleave 2). */
std::unique_ptr<PhysicalArray>
makeArray(unsigned s, const std::string &style)
{
    const GpuConfig config;
    if (s == Vgpr) {
        return makeRegFileArray(config.regs,
                                style == "intra"
                                    ? RegInterleave::IntraThread
                                    : RegInterleave::InterThread,
                                2);
    }
    const CacheParams &cp = s == L2 ? config.l2 : config.l1;
    return makeCacheArray(
        CacheGeometry{cp.sets, cp.ways, cp.lineBytes},
        parseCacheInterleave(style), 2);
}

MbAvfOptions
sweepOptions(Cycle horizon, unsigned s, const std::string &style)
{
    MbAvfOptions opt;
    opt.horizon = horizon;
    opt.numThreads = 0; // the shared pool, sized once by the driver
    opt.dueShieldsSdc = s == Vgpr && style == "inter";
    return opt;
}

const LifetimeStore &
storeOf(const AceRun &run, unsigned s)
{
    return s == L1 ? run.l1 : s == L2 ? run.l2 : run.vgpr;
}

std::uint64_t
countSegments(const LifetimeStore &store)
{
    std::uint64_t n = 0;
    for (const auto &[id, container] : store.containers()) {
        for (const WordLifetime &word : container.words)
            n += word.segments().size();
    }
    return n;
}

void
mixSweep(Digest &d, const ModeSweep &sweep)
{
    for (const MbAvfResult &r : sweep.results) {
        for (Cycle c : r.cycles)
            d.mix(std::uint64_t(c));
        d.mix(r.numGroups);
        d.mix(std::uint64_t(r.horizon));
        d.mix(r.avf.sdc);
        d.mix(r.avf.trueDue);
        d.mix(r.avf.falseDue);
        for (const AvfFractions &w : r.windows) {
            d.mix(w.sdc);
            d.mix(w.trueDue);
            d.mix(w.falseDue);
        }
    }
}

std::uint64_t
sweepDigest(const ModeSweep &sweep)
{
    Digest d;
    mixSweep(d, sweep);
    return d.value();
}

struct Ranked
{
    std::string kernel;
    std::uint64_t instrs = 0;
};

/**
 * Registry kernels by golden instruction count at @p scale,
 * largest first, ties in registry order. Instruction counts are
 * model quantities, so the ranking is the same on every host.
 */
std::vector<Ranked>
rankKernels(Harness &h, unsigned scale)
{
    std::vector<Ranked> ranked;
    for (const std::string &kernel : workloadNames()) {
        ranked.push_back({kernel, h.call("golden", [&] {
                              return Campaign(kernel, scale, GpuConfig{})
                                  .goldenInstrs();
                          })});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Ranked &a, const Ranked &b) {
                         return a.instrs > b.instrs;
                     });
    return ranked;
}

template <typename T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

/** The `mbavf` CLI's simulation: ACE probes on l1, l2 and vgpr. */
AceRun
runAce(const std::string &kernel, unsigned scale)
{
    AceRunOptions options;
    options.scale = scale;
    options.measureL2 = true;
    return runAceAnalysis(kernel, options);
}

/** Count an ACE run's model statistics into the pass. */
void
countAceRun(Harness &h, const AceRun &run)
{
    h.count("ace.instrs", double(run.instrs));
    h.count("ace.cycles", double(run.horizon));
    h.count("mem.l1_accesses",
            double(run.l1Stats.hits + run.l1Stats.misses));
    h.count("mem.l1_misses", double(run.l1Stats.misses));
    h.count("mem.l2_misses", double(run.l2Stats.misses));
    h.count("trace.defs", double(run.numDefs));
    h.count("trace.dead_defs", double(run.numDeadDefs));
}

// ---------------------------------------------------------------

/**
 * The full `mbavf` CLI path for every registry kernel: simulate with
 * ACE probes on l1, l2 and vgpr, then flatten, sweep (secded, modes
 * 8) and fold the SER of each structure.
 */
class Analyze : public Workload
{
  public:
    explicit Analyze(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Harness &h) override
    {
        Rng rng(splitMix64(seed_, 1));
        // The seed orders the jobs. Every kernel runs at scale 1, the
        // CLI's default: drawing scale 1 or 2 per kernel changed a
        // pass's work by a fifth between seeds.
        jobs_ = workloadNames();
        shuffle(jobs_, rng);

        for (unsigned s = 0; s < 3; ++s)
            arrays_[s] = makeArray(s, stylesOf(s).front());
        scheme_ = makeScheme("secded");
        fits_ = caseStudyFaultRates(100.0);

        // Warm-up on the registry's first kernel, doubling as the
        // oracle: for each structure, the reference per-mode path over
        // the store must match the arena kernel bit for bit. A fixed
        // kernel keeps set-up's work the same for every seed; a
        // seed-drawn one moved setup_s by half between seeds.
        const std::string &kernel = workloadNames().front();
        const AceRun run =
            h.call("ace.run", [&] { return runAce(kernel, 1); });
        for (unsigned s = 0; s < 3; ++s) {
            const MbAvfOptions opt =
                sweepOptions(run.horizon, s, stylesOf(s).front());
            const LifetimeArena arena = h.call("arena.build", [&] {
                return LifetimeArena(storeOf(run, s));
            });
            const ModeSweep fast = h.call("sweep", [&] {
                return sweepModesArena(*arrays_[s], arena, *scheme_, opt,
                                       sweepModesMax);
            });
            MbAvfOptions ref = opt;
            ref.referenceKernel = true;
            const ModeSweep slow = h.call("sweep.reference", [&] {
                return sweepModes(*arrays_[s], storeOf(run, s), *scheme_,
                                  ref, sweepModesMax);
            });
            h.check(sweepDigest(fast) == sweepDigest(slow),
                    "analyze oracle: arena sweep of " + kernel + " " +
                        structureNames[s] +
                        " differs from the reference path");
        }
    }

    void
    pass(Harness &h) override
    {
        for (const std::string &kernel : jobs_) {
            const AceRun run = h.call(
                "ace.run", [&] { return runAce(kernel, 1); }, true);
            countAceRun(h, run);
            h.digest.mix(kernel);
            h.digest.mix(run.instrs);
            h.digest.mix(std::uint64_t(run.horizon));
            for (unsigned s = 0; s < 3; ++s) {
                const LifetimeStore &store = storeOf(run, s);
                const std::uint64_t segments = countSegments(store);
                const LifetimeArena arena = h.call(
                    "arena.build", [&] { return LifetimeArena(store); });
                h.count("ace.segments", double(segments));
                h.count("arena.segments", double(arena.numSegments()));
                h.count("arena.words", double(arena.numWords()));
                h.check(arena.numSegments() == segments,
                        "arena of " + kernel + " " +
                            structureNames[s] + " lost segments");
                const MbAvfOptions opt =
                    sweepOptions(run.horizon, s, stylesOf(s).front());
                const ModeSweep sweep = h.call("sweep", [&] {
                    return sweepModesArena(*arrays_[s], arena, *scheme_,
                                           opt, sweepModesMax);
                });
                const StructureSer ser =
                    h.call("ser", [&] { return sweepSer(sweep, fits_); });
                h.count("sweep.calls", 1);
                mixSweep(h.digest, sweep);
                h.digest.mix(ser.sdc);
                h.digest.mix(ser.trueDue);
                h.digest.mix(ser.falseDue);
            }
            h.stepDone();
        }
    }

    std::uint64_t
    jobsPerPass() const override
    {
        return jobs_.size() * 3;
    }

  private:
    std::uint64_t seed_;
    /** Kernel names, in the seed's order. */
    std::vector<std::string> jobs_;
    std::array<std::unique_ptr<PhysicalArray>, 3> arrays_;
    std::unique_ptr<ProtectionScheme> scheme_;
    std::array<double, maxTabulatedMode> fits_{};
};

// ---------------------------------------------------------------

/**
 * Design-space exploration: analyze one kernel once in set-up,
 * persist its arenas, then re-map and sweep them over a grid of
 * schemes, styles and sweep shapes every pass.
 */
class Explore : public Workload
{
  public:
    Explore(std::uint64_t seed, std::string workdir)
        : seed_(seed), workdir_(std::move(workdir))
    {
    }

    void
    setup(Harness &h) override
    {
        Rng rng(splitMix64(seed_, 2));
        // A fixed kernel, so that a seed changes the grid order and
        // the sampled points but not the amount of work.
        kernel_.clear();
        for (const Ranked &r : rankKernels(h, 2)) {
            if (r.instrs <= exploreCap) {
                kernel_ = r.kernel;
                break;
            }
        }
        if (kernel_.empty())
            throw std::runtime_error("no kernel within the explore cap");
        run_ = h.call("ace.run", [&] { return runAce(kernel_, 2); });
        double save_s = 0.0;
        double bytes = 0.0;
        for (unsigned s = 0; s < 3; ++s) {
            arenaPath_[s] = workdir_ + "/explore-" + kernel_ + "-" +
                            structureNames[s] + ".arena";
            const double t0 = nowSeconds();
            h.call("arena.save", [&] {
                streamArenaFromStore(storeOf(run_, s), arenaPath_[s],
                                     run_.horizon);
            });
            save_s += nowSeconds() - t0;
            bytes += double(std::filesystem::file_size(arenaPath_[s]));
        }
        setupMetrics["arena.save_s"] = save_s;
        setupMetrics["arena.bytes"] = bytes;

        for (unsigned s = 0; s < 3; ++s) {
            for (const std::string &style : stylesOf(s))
                arrays_[key(s, style)] = makeArray(s, style);
        }
        for (const char *name : schemeNames)
            schemes_[name] = makeScheme(name);

        grid_.clear();
        for (unsigned s = 0; s < 3; ++s) {
            for (const char *scheme : schemeNames) {
                for (const std::string &style : stylesOf(s))
                    grid_.push_back({s, scheme, style});
            }
        }
        shuffle(grid_, rng);
        // Attribution runs at `mbavf_analyze`'s default point (vgpr,
        // secded, inter): its cost differs fivefold between points, so
        // a seed-drawn point would change a pass's work.
        std::vector<std::size_t> vgpr_points;
        for (std::size_t i = 0; i < grid_.size(); ++i) {
            const Point &p = grid_[i];
            if (p.structure != Vgpr)
                continue;
            vgpr_points.push_back(i);
            if (p.scheme == "secded" && p.style == "inter")
                attrPoint_ = i;
        }

        // Oracle: a seed-drawn vgpr grid point through the reference
        // per-mode path over the in-memory store, against the mapped
        // arena.
        const Point &p = grid_[vgpr_points[rng.below(vgpr_points.size())]];
        const LifetimeArena arena = load(h, p.structure);
        const MbAvfOptions opt =
            sweepOptions(run_.horizon, p.structure, p.style);
        MbAvfOptions ref = opt;
        ref.referenceKernel = true;
        const ModeSweep fast = h.call("sweep.m8", [&] {
            return sweepModesArena(*arrays_.at(key(p.structure, p.style)),
                                   arena, *schemes_.at(p.scheme), opt,
                                   sweepModesMax);
        });
        const ModeSweep slow = h.call("sweep.reference", [&] {
            return sweepModes(*arrays_.at(key(p.structure, p.style)),
                              storeOf(run_, p.structure),
                              *schemes_.at(p.scheme), ref,
                              sweepModesMax);
        });
        h.check(sweepDigest(fast) == sweepDigest(slow),
                "explore oracle: " + kernel_ + " " +
                    structureNames[p.structure] + " " + p.scheme + " " +
                    p.style + " differs from the reference path");
    }

    void
    pass(Harness &h) override
    {
        std::array<LifetimeArena, 3> arenas;
        for (unsigned s = 0; s < 3; ++s) {
            arenas[s] = load(h, s);
            h.count("arena.words", double(arenas[s].numWords()));
            h.count("arena.segments", double(arenas[s].numSegments()));
        }
        h.stepDone();

        std::optional<MbAvfResult> attr_reference;
        for (std::size_t i = 0; i < grid_.size(); ++i) {
            const Point &p = grid_[i];
            const ModeSweep sweep = h.call("sweep.m8", [&] {
                return sweepModesArena(
                    *arrays_.at(key(p.structure, p.style)),
                    arenas[p.structure], *schemes_.at(p.scheme),
                    sweepOptions(run_.horizon, p.structure, p.style),
                    sweepModesMax);
            });
            mixSweep(h.digest, sweep);
            if (i == attrPoint_)
                attr_reference = sweep.results[attrMode - 1];
            h.stepDone();
        }

        // Each arena once more through the other sweep paths: the
        // scalar one-mode kernel, the multi-block vector kernel, and
        // the windowed accumulators.
        for (unsigned s = 0; s < 3; ++s) {
            const std::string style = stylesOf(s).front();
            const PhysicalArray &array = *arrays_.at(key(s, style));
            const ProtectionScheme &scheme = *schemes_.at("secded");
            MbAvfOptions opt = sweepOptions(run_.horizon, s, style);
            const LifetimeArena &arena = arenas[s];
            mixSweep(h.digest, h.call("sweep.m1", [&] {
                return sweepModesArena(array, arena, scheme, opt, 1);
            }));
            mixSweep(h.digest, h.call("sweep.m16", [&] {
                return sweepModesArena(array, arena, scheme, opt, 16);
            }));
            opt.numWindows = 8;
            mixSweep(h.digest, h.call("sweep.win", [&] {
                return sweepModesArena(array, arena, scheme, opt,
                                       sweepModesMax);
            }));
            h.stepDone();
        }
        h.count("sweep.calls", double(grid_.size() + 9));

        const Point &p = grid_[attrPoint_];
        const analyze::AttributionResult attr = h.call("attr", [&] {
            return analyze::attributeMbAvf(
                *arrays_.at(key(p.structure, p.style)),
                storeOf(run_, p.structure), *schemes_.at(p.scheme),
                FaultMode::mx1(attrMode),
                sweepOptions(run_.horizon, p.structure, p.style));
        });
        h.count("attr.calls", 1);
        const std::string conservation =
            analyze::checkConservation(attr, *attr_reference);
        h.check(conservation.empty(),
                "attribution of " + kernel_ + " does not conserve: " +
                    conservation);
        for (Cycle c : attr.cycles)
            h.digest.mix(std::uint64_t(c));
        for (const analyze::TagContribution &t : attr.perTag) {
            h.digest.mix(std::uint64_t(t.tag));
            for (Cycle c : t.cycles)
                h.digest.mix(std::uint64_t(c));
        }
        h.stepDone();
    }

    std::uint64_t
    jobsPerPass() const override
    {
        return grid_.size() + 9 + 1;
    }

  private:
    static constexpr unsigned attrMode = 2;

    struct Point
    {
        unsigned structure = 0;
        std::string scheme;
        std::string style;
    };

    static std::string
    key(unsigned s, const std::string &style)
    {
        return std::string(structureNames[s]) + "/" + style;
    }

    LifetimeArena
    load(Harness &h, unsigned s) const
    {
        return h.call("arena.load", [&] {
            std::string error;
            Cycle horizon = 0;
            std::optional<LifetimeArena> arena =
                tryLoadArena(arenaPath_[s], error, &horizon);
            if (!arena)
                throw std::runtime_error("cannot map " + arenaPath_[s] +
                                         ": " + error);
            if (horizon != run_.horizon)
                throw std::runtime_error(arenaPath_[s] +
                                         " records the wrong horizon");
            return std::move(*arena);
        });
    }

    std::uint64_t seed_;
    std::string workdir_;
    std::string kernel_;
    AceRun run_;
    std::array<std::string, 3> arenaPath_;
    std::vector<Point> grid_;
    std::size_t attrPoint_ = 0;
    std::map<std::string, std::unique_ptr<PhysicalArray>> arrays_;
    std::map<std::string, std::unique_ptr<ProtectionScheme>> schemes_;
};

// ---------------------------------------------------------------

/**
 * Injection campaign on one short kernel: uniform register and
 * memory trials, then a stratified leg whose partition is rebuilt
 * every pass.
 */
class CampaignWorkload : public Workload
{
  public:
    explicit CampaignWorkload(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Harness &h) override
    {
        Rng rng(splitMix64(seed_, 3));
        std::string kernel;
        for (const Ranked &r : rankKernels(h, 1)) {
            if (r.instrs <= campaignCap) {
                kernel = r.kernel;
                break;
            }
        }
        if (kernel.empty())
            throw std::runtime_error("no kernel within the campaign cap");
        const double t0 = nowSeconds();
        campaign_ = h.call("campaign.golden", [&] {
            return std::make_unique<Campaign>(kernel, 1, GpuConfig{});
        });
        setupMetrics["campaign.golden_s"] = nowSeconds() - t0;
        setupMetrics["campaign.golden_instrs"] =
            double(campaign_->goldenInstrs());
        regSeed_ = rng.next();
        memSeed_ = rng.next();
        stratSeed_ = rng.next();

        // Warm-up doubling as the oracle: a slice of the register leg
        // run as one batch must match each trial replayed alone.
        const std::size_t first = rng.below(regTrials - oracleTrials);
        const std::vector<TrialResult> batch = h.call("trials.reg", [&] {
            return campaign_->runTrialsDetailed(first, oracleTrials,
                                                regSeed_,
                                                TrialKind::Register);
        });
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const TrialResult alone = h.call("trials.replay", [&] {
                return campaign_->runOne(campaign_->trialSpec(
                    first + i, regSeed_, TrialKind::Register));
            });
            h.check(alone == batch[i],
                    "campaign oracle: trial " + std::to_string(first + i) +
                        " replays differently");
        }
    }

    void
    pass(Harness &h) override
    {
        // Each leg runs in batches of `batch` trials, as the service
        // shards a campaign; a batch is one step of the pass.
        std::vector<TrialResult> reg;
        std::vector<TrialResult> mem;
        for (std::size_t first = 0; first < regTrials; first += batch) {
            append(reg, h.call("trials.reg", [&] {
                return campaign_->runTrialsDetailed(first, batch, regSeed_,
                                                    TrialKind::Register);
            }));
            h.stepDone();
        }
        for (std::size_t first = 0; first < memTrials; first += batch) {
            append(mem, h.call("trials.mem", [&] {
                return campaign_->runTrialsDetailed(first, batch, memSeed_,
                                                    TrialKind::Memory);
            }));
            h.stepDone();
        }
        const Stratification strat = h.call(
            "stratify.build",
            [&] {
                return Stratification::build(*campaign_,
                                             StratifyOptions{});
            },
            true);
        h.stepDone();
        std::vector<Stratification::Pick> picks;
        std::vector<TrialResult> stratified;
        for (std::size_t first = 0; first < stratBudget; first += batch) {
            append(stratified, h.call("stratify.trials", [&] {
                const std::vector<Stratification::Pick> slice =
                    strat.picks(first, batch);
                std::vector<TrialSpec> specs;
                specs.reserve(slice.size());
                for (const Stratification::Pick &pick : slice)
                    specs.push_back(strat.trialSpec(pick, stratSeed_));
                picks.insert(picks.end(), slice.begin(), slice.end());
                return campaign_->runBatchDetailed(specs);
            }));
            h.stepDone();
        }

        CampaignTally tally;
        for (const auto *leg : {&reg, &mem, &stratified}) {
            for (const TrialResult &r : *leg) {
                tally.add(r);
                h.digest.mix(std::uint64_t(r.outcome));
                h.digest.mix(r.code);
            }
        }
        std::vector<StratumTally> tallies(strat.strata().size());
        for (std::size_t i = 0; i < picks.size(); ++i) {
            StratumTally &t = tallies[picks[i].stratum];
            ++t.trials;
            ++t.counts[std::size_t(stratified[i].outcome)];
        }
        const WilsonInterval sdc =
            strat.combinedInterval(tallies, InjectOutcome::Sdc);
        const double multiplier =
            picks.empty() ? 0.0
                          : double(effectiveUniformTrials(sdc.high - sdc.low,
                                                          sdc.point)) /
                                double(picks.size());
        h.digest.mix(strat.hash());
        h.digest.mix(sdc.point);
        h.digest.mix(sdc.low);
        h.digest.mix(sdc.high);

        h.count("trials.count", double(tally.total()));
        h.count("trials.masked", double(tally.count(InjectOutcome::Masked)));
        h.count("trials.sdc", double(tally.count(InjectOutcome::Sdc)));
        h.count("trials.due", double(tally.count(InjectOutcome::Due)));
        h.count("trials.crash", double(tally.count(InjectOutcome::Crash)));
        h.count("trials.hang", double(tally.count(InjectOutcome::Hang)));
        h.count("stratify.strata", double(strat.strata().size()));
        h.count("stratify.skipped_weight", strat.skippedWeight());
        h.count("stratify.multiplier", multiplier);
    }

    std::uint64_t
    jobsPerPass() const override
    {
        return regTrials + memTrials + stratBudget;
    }

  private:
    static constexpr std::size_t batch = 125;
    static constexpr std::size_t regTrials = 8 * batch;
    static constexpr std::size_t memTrials = regTrials / 2;
    static constexpr std::size_t stratBudget = 4 * batch;
    static constexpr std::size_t oracleTrials = 16;

    static void
    append(std::vector<TrialResult> &to, std::vector<TrialResult> from)
    {
        to.insert(to.end(), std::make_move_iterator(from.begin()),
                  std::make_move_iterator(from.end()));
    }

    std::uint64_t seed_;
    std::unique_ptr<Campaign> campaign_;
    std::uint64_t regSeed_ = 0;
    std::uint64_t memSeed_ = 0;
    std::uint64_t stratSeed_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &workdir)
{
    if (name == "analyze")
        return std::make_unique<Analyze>(seed);
    if (name == "explore")
        return std::make_unique<Explore>(seed, workdir);
    if (name == "campaign")
        return std::make_unique<CampaignWorkload>(seed);
    return nullptr;
}

} // namespace perfbench

/**
 * @file
 * Outcome pins for the GPU model's execution paths.
 *
 * Speed-only changes to the simulator (wave dispatch, register file,
 * caches, device memory) must leave every simulated result bit for
 * bit where it was. Two checks hold them there:
 *
 * - OutcomePin: for every registry kernel at scale 1 whose golden
 *   run is at most 3000 instructions, a fixed-seed batch of 64
 *   register and 32 memory trials is digested together with the
 *   golden instruction and cycle counts. The digests were recorded
 *   before the untracked path was optimized. runOne() settles most
 *   of these trials from the golden-run liveness map without
 *   simulating them, so the same batch also runs through
 *   simulateOne(): its digest must match the pin too, and every
 *   trial must classify the same both ways.
 * - TrackedUntrackedParity: a tracked and an untracked run of every
 *   kernel produce the same output bytes, instruction count, clock,
 *   per-cache hit/miss/writeback counts and register-file writes.
 *   Tracking only adds bookkeeping beside the same execution.
 *
 * AcePin holds the tracked path's results the same way: for every
 * registry kernel at scale 1, the lifetimes of one runAceAnalysis
 * with the L2 and every CU's VGPR probed (every segment's bounds,
 * masks and tag), the horizon and the definition counts are
 * digested. The digests were recorded before the tracked path's
 * provenance and cache-probe bookkeeping were optimized.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/journal_io.hh"
#include "common/parallel.hh"
#include "inject/campaign.hh"
#include "workloads/ace_runner.hh"
#include "workloads/workload.hh"

namespace mbavf
{
namespace
{

constexpr std::uint64_t pinSeed = 0x5eed0c0ffeeull;
constexpr std::size_t pinRegTrials = 64;
constexpr std::size_t pinMemTrials = 32;
constexpr std::uint64_t pinMaxGoldenInstrs = 3000;

/** FNV-1a over the little-endian bytes of @p value, chained. */
std::uint64_t
mix(std::uint64_t hash, std::uint64_t value)
{
    return fnv1a64(&value, sizeof(value), hash);
}

std::uint64_t
mix(std::uint64_t hash, const std::string &text)
{
    return fnv1a64(text, mix(hash, text.size()));
}

std::uint64_t
digestTrials(std::uint64_t hash, const std::vector<TrialResult> &trials)
{
    for (const TrialResult &r : trials) {
        hash = mix(hash, static_cast<std::uint64_t>(r.outcome));
        hash = mix(hash, r.code);
    }
    return hash;
}

/** The pinned trials of @p kind, every one simulated. */
std::vector<TrialResult>
simulateTrials(const Campaign &c, std::size_t n, TrialKind kind)
{
    std::vector<TrialResult> results(n);
    runTasks(n, [&](std::size_t t) {
        results[t] = c.simulateOne(c.trialSpec(t, pinSeed, kind));
    });
    return results;
}

/** Digest of one kernel's golden run and pinned trial batch. */
std::uint64_t
outcomeDigest(const Campaign &c, const std::vector<TrialResult> &reg,
              const std::vector<TrialResult> &mem)
{
    std::uint64_t hash = mix(0xcbf29ce484222325ull, c.workloadName());
    hash = mix(hash, c.goldenInstrs());
    hash = mix(hash, c.goldenCycles());
    return digestTrials(digestTrials(hash, reg), mem);
}

/** Digests recorded on the simulator before its untracked path was
 *  optimized; a kernel missing here has a longer golden run. */
const std::map<std::string, std::uint64_t> &
pinnedDigests()
{
    static const std::map<std::string, std::uint64_t> pins = {
        {"minife", 0xdcb89dfbf463a5bbull},
        {"comd", 0xd0467fbf1663edb2ull},
        {"backprop", 0x20817af7883fd82dull},
        {"prefix_sum", 0x1539acac076a0829ull},
        {"dwt_haar1d", 0xb3dc3863c2344255ull},
        {"dct", 0xca3d4be2bcc97512ull},
        {"histogram", 0xa672c602c43b6135ull},
        {"matrix_transpose", 0x2c9a1d5251baf0a7ull},
        {"recursive_gaussian", 0x9a66e7c748da219cull},
    };
    return pins;
}

TEST(OutcomePin, SmallKernelsMatchRecordedDigests)
{
    unsigned pinned = 0;
    for (const std::string &name : workloadNames()) {
        Campaign c(name, 1, GpuConfig{});
        if (c.goldenInstrs() > pinMaxGoldenInstrs) {
            EXPECT_EQ(pinnedDigests().count(name), 0u) << name;
            continue;
        }
        ++pinned;
        const std::vector<TrialResult> reg = c.runTrialsDetailed(
            0, pinRegTrials, pinSeed, TrialKind::Register);
        const std::vector<TrialResult> mem = c.runTrialsDetailed(
            0, pinMemTrials, pinSeed, TrialKind::Memory);
        const std::vector<TrialResult> sim_reg =
            simulateTrials(c, pinRegTrials, TrialKind::Register);
        const std::vector<TrialResult> sim_mem =
            simulateTrials(c, pinMemTrials, TrialKind::Memory);
        for (std::size_t t = 0; t < pinRegTrials; ++t)
            EXPECT_EQ(reg[t], sim_reg[t]) << name << " register " << t;
        for (std::size_t t = 0; t < pinMemTrials; ++t)
            EXPECT_EQ(mem[t], sim_mem[t]) << name << " memory " << t;

        const std::uint64_t digest = outcomeDigest(c, reg, mem);
        const std::uint64_t simulated = outcomeDigest(c, sim_reg, sim_mem);
        auto it = pinnedDigests().find(name);
        if (it == pinnedDigests().end()) {
            ADD_FAILURE() << name << " has no pin; digest 0x"
                          << std::hex << digest;
            continue;
        }
        EXPECT_EQ(it->second, digest)
            << name << ": digest 0x" << std::hex << digest;
        EXPECT_EQ(it->second, simulated)
            << name << ": simulated digest 0x" << std::hex << simulated;
    }
    EXPECT_EQ(pinned, pinnedDigests().size());
}

/** Everything one run leaves observable outside the trace. */
struct RunCounts
{
    std::vector<std::uint8_t> output;
    std::uint64_t instrs = 0;
    Cycle clock = 0;
    std::vector<std::uint64_t> cacheCounts;
    std::vector<std::uint64_t> regWrites;
};

RunCounts
runCounts(const std::string &name, bool tracking)
{
    const GpuConfig config;
    Gpu gpu(config);
    gpu.setTracking(tracking);
    auto w = makeWorkload(name);
    w->run(gpu);
    gpu.finish();

    RunCounts rc;
    for (const Workload::Range &r : w->outputs())
        gpu.mem().readBlock(r.addr, r.bytes, rc.output);
    rc.instrs = gpu.instrCount();
    rc.clock = gpu.clock().now();
    auto addCache = [&](const Cache &cache) {
        const CacheStats &s = cache.stats();
        rc.cacheCounts.insert(rc.cacheCounts.end(),
                              {s.hits, s.misses, s.writebacks});
    };
    for (unsigned cu = 0; cu < config.numCus; ++cu) {
        addCache(gpu.l1(cu));
        rc.regWrites.push_back(gpu.regFile(cu).writes());
    }
    addCache(gpu.l2());
    return rc;
}

class TrackedUntrackedParity
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TrackedUntrackedParity, SameExecution)
{
    const RunCounts tracked = runCounts(GetParam(), true);
    const RunCounts untracked = runCounts(GetParam(), false);
    EXPECT_FALSE(tracked.output.empty());
    EXPECT_EQ(tracked.output, untracked.output);
    EXPECT_EQ(tracked.instrs, untracked.instrs);
    EXPECT_EQ(tracked.clock, untracked.clock);
    EXPECT_EQ(tracked.cacheCounts, untracked.cacheCounts);
    EXPECT_EQ(tracked.regWrites, untracked.regWrites);
}

INSTANTIATE_TEST_SUITE_P(
    All, TrackedUntrackedParity, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** Digest of @p store: every segment, containers in id order. */
std::uint64_t
digestStore(std::uint64_t hash, const LifetimeStore &store)
{
    hash = mix(hash, store.wordWidth());
    hash = mix(hash, store.wordsPerContainer());
    std::vector<std::uint64_t> ids;
    for (const auto &entry : store.containers())
        ids.push_back(entry.first);
    std::sort(ids.begin(), ids.end());
    for (std::uint64_t id : ids) {
        const ContainerLifetime &c = store.containers().at(id);
        hash = mix(mix(hash, id), c.words.size());
        for (const WordLifetime &w : c.words) {
            hash = mix(hash, w.segments().size());
            for (const LifeSegment &s : w.segments()) {
                hash = mix(hash, s.begin);
                hash = mix(hash, s.end);
                hash = mix(hash, s.aceMask);
                hash = mix(hash, s.readMask);
                hash = mix(hash, s.tag);
            }
        }
    }
    return hash;
}

/** Digests of the tracked run of every registry kernel at scale 1,
 *  recorded before its bookkeeping was optimized. */
const std::map<std::string, std::uint64_t> &
pinnedAceDigests()
{
    static const std::map<std::string, std::uint64_t> pins = {
        {"minife", 0xceeb09ca237ab179ull},
        {"comd", 0x3a960da0861cf6b7ull},
        {"srad", 0xd5243b6935df833full},
        {"hotspot", 0x9a366e71625e7a8dull},
        {"pathfinder", 0xa1aae111ad0950f0ull},
        {"bfs", 0x387a2383cd46d4full},
        {"kmeans", 0xdab2ac5ca188a23bull},
        {"nw", 0x58dbae557f50f688ull},
        {"lud", 0x369de26ef34d1735ull},
        {"backprop", 0x878f7e920d19043aull},
        {"scan_large_arrays", 0x492d9824fd059702ull},
        {"prefix_sum", 0x1516eeb6e2c437e3ull},
        {"dwt_haar1d", 0xcf14fb7ab91606deull},
        {"fast_walsh", 0xdd2e0bb633eeb124ull},
        {"dct", 0xa5bbf1152eda0f5ull},
        {"histogram", 0xa4baf7a0c0028c1cull},
        {"matrix_transpose", 0x9d14146dc7a43982ull},
        {"recursive_gaussian", 0x1da86b42368163efull},
        {"matmul", 0xc46da41bd310fb0aull},
    };
    return pins;
}

TEST(AcePin, TrackedRunsMatchRecordedDigests)
{
    for (const std::string &name : workloadNames()) {
        AceRunOptions options;
        options.measureL2 = true;
        options.probeAllVgprs = true;
        const AceRun run = runAceAnalysis(name, options);

        std::uint64_t digest = mix(0xcbf29ce484222325ull, name);
        digest = mix(digest, run.horizon);
        digest = mix(digest, run.numDefs);
        digest = mix(digest, run.numDeadDefs);
        digest = digestStore(digest, run.l1);
        digest = digestStore(digest, run.l2);
        digest = digestStore(digest, run.vgpr);
        digest = mix(digest, run.vgprPerCu.size());
        for (const LifetimeStore &store : run.vgprPerCu)
            digest = digestStore(digest, store);

        auto it = pinnedAceDigests().find(name);
        if (it == pinnedAceDigests().end()) {
            ADD_FAILURE() << "{\"" << name << "\", 0x" << std::hex
                          << digest << "ull},";
            continue;
        }
        EXPECT_EQ(it->second, digest)
            << name << ": digest 0x" << std::hex << digest;
    }
    EXPECT_EQ(pinnedAceDigests().size(), workloadNames().size());
}

} // namespace
} // namespace mbavf

/**
 * @file
 * Tests for settling injection trials from the golden-run liveness
 * map (inject/liveness.hh).
 *
 * - LivenessBuilder pins the stamp rule and span merging on a
 *   hand-written access stream.
 * - LivenessPrune is differential: on every registry kernel whose
 *   golden run is at most 3000 instructions, at two seeds, every
 *   trial family (uniform register, memory and stratified trials,
 *   parity and SEC-DED protection, multi-flip specs, triggers at or
 *   past the golden run, flips past the footprint, dead sites under
 *   sub-golden watchdog budgets) must classify the same through
 *   runOne() as through simulateOne(), and some trials must
 *   actually be settled so the comparison is not vacuous.
 */

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/trap.hh"
#include "inject/campaign.hh"
#include "inject/liveness.hh"
#include "inject/stratified.hh"

namespace mbavf
{
namespace
{

/** The exposed spans of @p word, as a comparable vector. */
std::vector<TriggerSpan>
spansOf(const LivenessMap &map, std::uint64_t word)
{
    const std::span<const TriggerSpan> s = map.spans(word);
    return {s.begin(), s.end()};
}

TEST(LivenessBuilder, StampRuleAndMerging)
{
    LivenessBuilder b;
    // Word 0: read twice after the implicit write at 0, then
    // rewritten at 7 and read at 9 and 12 with a same-instruction
    // rewrite at 9 in between.
    b.read(0, 1, 3);
    b.read(0, 1, 5);
    b.write(0, 1, 7);
    b.read(0, 1, 9);
    b.write(0, 1, 9);
    b.read(0, 1, 12);
    // Word 1: written and read in the same instruction: nothing a
    // flip could reach.
    b.write(1, 1, 4);
    b.read(1, 1, 4);
    // Words 2-3: a block read at stamp 2 after a write at 2 on word
    // 3 only; word 4 is never touched; word 5 lies past the map.
    b.write(3, 1, 2);
    b.read(2, 2, 2);
    b.read(5, 1, 6);
    const LivenessMap map = b.finish(5);

    ASSERT_EQ(map.words(), 5u);
    EXPECT_EQ(spansOf(map, 0), (std::vector<TriggerSpan>{{0, 5}, {7, 12}}));
    EXPECT_TRUE(map.spans(1).empty());
    EXPECT_EQ(spansOf(map, 2), (std::vector<TriggerSpan>{{0, 2}}));
    EXPECT_TRUE(map.spans(3).empty());
    EXPECT_TRUE(map.spans(4).empty());

    EXPECT_TRUE(map.exposed(0, 0));
    EXPECT_TRUE(map.exposed(0, 4));
    EXPECT_FALSE(map.exposed(0, 5));
    EXPECT_FALSE(map.exposed(0, 6));
    EXPECT_TRUE(map.exposed(0, 7));
    EXPECT_TRUE(map.exposed(0, 11));
    EXPECT_FALSE(map.exposed(0, 12));
    EXPECT_FALSE(map.exposed(1, 3));
    EXPECT_TRUE(map.exposed(2, 1));
    EXPECT_FALSE(map.exposed(2, 2));
    EXPECT_FALSE(map.exposed(4, 0));
}

constexpr std::uint64_t maxGoldenInstrs = 3000;
constexpr std::uint64_t seeds[] = {11, 0x5eed0c0ffeeull};
constexpr std::size_t regTrials = 48;
constexpr std::size_t memTrials = 32;
constexpr std::size_t stratTrials = 32;
constexpr std::size_t multiTrials = 32;

std::string
describe(const TrialResult &r)
{
    return std::string(injectOutcomeName(r.outcome)) +
           (r.code.empty() ? "" : " " + r.code);
}

/**
 * runOne() and simulateOne() on every spec (on the pool) must agree.
 * Returns the simulated results.
 */
std::vector<TrialResult>
expectSettledMatchesSimulated(const Campaign &c,
                              const std::vector<TrialSpec> &specs,
                              const std::string &what)
{
    std::vector<TrialResult> fast(specs.size());
    std::vector<TrialResult> slow(specs.size());
    runTasks(specs.size(), [&](std::size_t i) {
        fast[i] = c.runOne(specs[i]);
        slow[i] = c.simulateOne(specs[i]);
    });
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(fast[i], slow[i])
            << c.workloadName() << " " << what << " trial " << i
            << ": runOne " << describe(fast[i]) << ", simulateOne "
            << describe(slow[i]);
    }
    return slow;
}

/** expectSettledMatchesSimulated() on one spec. */
TrialResult
expectOneMatches(const Campaign &c, const TrialSpec &spec)
{
    return expectSettledMatchesSimulated(c, {spec}, "budget").front();
}

/** Two-bit masks, so parity detects and SEC-DED sees doubles. */
TrialSpec
widened(TrialSpec spec)
{
    for (RegInjection &flip : spec.regFlips) {
        if ((flip.bitMask & 0x80000000u) == 0)
            flip.bitMask |= flip.bitMask << 1;
    }
    for (MemInjection &flip : spec.memFlips) {
        if ((flip.bitMask & 0x80u) == 0)
            flip.bitMask |= static_cast<std::uint8_t>(flip.bitMask << 1);
    }
    return spec;
}

/**
 * Several flips per trial, register and memory mixed, some of them
 * hitting one word twice at different triggers.
 */
TrialSpec
multiFlipSpec(const Campaign &c, Rng &rng)
{
    TrialSpec spec;
    const std::uint64_t regs = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < regs; ++i)
        spec.regFlips.push_back(c.sampleSingleBit(rng));
    const std::uint64_t mems = rng.below(3);
    for (std::uint64_t i = 0; i < mems; ++i)
        spec.memFlips.push_back(c.sampleMemBit(rng));
    if (rng.below(2) == 0) {
        RegInjection again = spec.regFlips.front();
        again.triggerInstr = rng.below(c.goldenInstrs());
        spec.regFlips.push_back(again);
    }
    return spec;
}

class LivenessPrune : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LivenessPrune, SettledTrialsMatchSimulation)
{
    Campaign c(GetParam(), 1, GpuConfig{});
    ASSERT_EQ(c.liveness().words(),
              registerWords(c.config()) + c.footprint());
    const Stratification strat =
        Stratification::build(c, StratifyOptions{});
    const std::uint64_t settled_before = c.trialsSettled();

    for (std::uint64_t seed : seeds) {
        std::vector<TrialSpec> reg;
        std::vector<TrialSpec> mem;
        std::vector<TrialSpec> stratified;
        std::vector<TrialSpec> multi;
        for (std::uint64_t t = 0; t < regTrials; ++t)
            reg.push_back(c.trialSpec(t, seed, TrialKind::Register));
        for (std::uint64_t t = 0; t < memTrials; ++t)
            mem.push_back(c.trialSpec(t, seed, TrialKind::Memory));
        for (const Stratification::Pick &pick : strat.picks(0, stratTrials))
            stratified.push_back(strat.trialSpec(pick, seed));
        Rng rng(seed);
        for (std::size_t t = 0; t < multiTrials; ++t)
            multi.push_back(multiFlipSpec(c, rng));

        expectSettledMatchesSimulated(c, reg, "register");
        expectSettledMatchesSimulated(c, mem, "memory");
        expectSettledMatchesSimulated(c, stratified, "stratified");
        expectSettledMatchesSimulated(c, multi, "multi-flip");

        // Triggers at and past the golden run never fire.
        std::vector<TrialSpec> late = multi;
        for (std::size_t i = 0; i < late.size(); ++i) {
            for (RegInjection &flip : late[i].regFlips)
                flip.triggerInstr = c.goldenInstrs() + i % 2;
            for (MemInjection &flip : late[i].memFlips)
                flip.triggerInstr = c.goldenInstrs() + i % 3;
        }
        for (const TrialResult &r :
             expectSettledMatchesSimulated(c, late, "late"))
            EXPECT_EQ(r.outcome, InjectOutcome::Masked);

        std::vector<TrialSpec> protected_specs;
        for (const std::vector<TrialSpec> *family : {&reg, &mem, &multi}) {
            for (const TrialSpec &spec : *family) {
                protected_specs.push_back(spec);
                protected_specs.push_back(widened(spec));
            }
        }
        for (const char *scheme : {"parity", "secded"}) {
            c.setProtection(scheme, 8);
            expectSettledMatchesSimulated(c, protected_specs, scheme);
        }
        c.setProtection("none", 0);
    }
    EXPECT_GT(c.trialsSettled(), settled_before)
        << "no trial was settled: the comparison proved nothing";
}

TEST_P(LivenessPrune, FlipsPastTheFootprintStillSimulate)
{
    Campaign c(GetParam(), 1, GpuConfig{});
    // At the footprint the byte is unused memory; at the end of
    // memory the flip itself is out of range and traps as it fires.
    MemInjection at_footprint;
    at_footprint.addr = c.footprint();
    at_footprint.bitMask = 0x10;
    at_footprint.triggerInstr = c.goldenInstrs() / 2;
    MemInjection out_of_memory = at_footprint;
    out_of_memory.addr = c.config().memBytes;
    std::vector<TrialSpec> specs{TrialSpec{{}, {at_footprint}}};
    // Checked builds reject a flip outside memory as a host error
    // before the trial runs (Campaign::execute).
    if (!runtimeChecksEnabled())
        specs.push_back(TrialSpec{{}, {out_of_memory}});
    const std::vector<TrialResult> results =
        expectSettledMatchesSimulated(c, specs, "past footprint");
    EXPECT_EQ(c.trialsSettled(), 0u);
    EXPECT_EQ(results[0].outcome, InjectOutcome::Masked);
    if (results.size() > 1) {
        EXPECT_EQ(results[1].outcome, InjectOutcome::Crash);
        EXPECT_EQ(results[1].code, trapcode::memOob);
    }
}

TEST_P(LivenessPrune, DeadFlipUnderSubGoldenBudgetStillHangs)
{
    Campaign c(GetParam(), 1, GpuConfig{});
    // A register flip the map proves dead.
    Rng rng(7);
    RegInjection dead;
    do {
        dead = c.sampleSingleBit(rng);
    } while (c.liveness().exposed(livenessWord(c.config(), dead),
                                  dead.triggerInstr));
    const TrialSpec spec{{dead}, {}};
    EXPECT_EQ(c.runOne(spec).outcome, InjectOutcome::Masked);
    EXPECT_EQ(c.trialsSettled(), 1u);

    c.setWatchdogBudgets(c.goldenInstrs() - 1, 0);
    TrialResult r = expectOneMatches(c, spec);
    EXPECT_EQ(r.outcome, InjectOutcome::Hang);
    EXPECT_EQ(r.code, trapcode::watchdogInstrs);

    c.setWatchdogBudgets(0, c.goldenCycles() / 2);
    r = expectOneMatches(c, spec);
    EXPECT_EQ(r.outcome, InjectOutcome::Hang);
    EXPECT_EQ(r.code, trapcode::watchdogCycles);

    // Budgets of exactly the golden run still let it finish.
    c.setWatchdogBudgets(c.goldenInstrs(), c.goldenCycles());
    r = expectOneMatches(c, spec);
    EXPECT_EQ(r.outcome, InjectOutcome::Masked);
    EXPECT_EQ(c.trialsSettled(), 2u);
}

/** Registry kernels whose golden run is at most maxGoldenInstrs. */
std::vector<std::string>
smallKernels()
{
    std::vector<std::string> names;
    for (const std::string &name : workloadNames()) {
        if (Campaign(name, 1, GpuConfig{}).goldenInstrs() <=
            maxGoldenInstrs)
            names.push_back(name);
    }
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    SmallKernels, LivenessPrune, ::testing::ValuesIn(smallKernels()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace mbavf

/**
 * @file
 * Tests for the service job spec: parsing and validation, the
 * canonical identity (stable across JSON formatting), sharding of
 * campaigns into contiguous trial ranges, and the spec hash.
 */

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "serve/spec.hh"

namespace mbavf::serve
{
namespace
{

JobSpec
parseSpec(const std::string &text)
{
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::JsonValue::parse(text, doc, error)) << error;
    JobSpec spec;
    EXPECT_TRUE(JobSpec::parse(doc, spec, error)) << error;
    return spec;
}

std::string
parseError(const std::string &text)
{
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::JsonValue::parse(text, doc, error)) << error;
    JobSpec spec;
    EXPECT_FALSE(JobSpec::parse(doc, spec, error));
    return error;
}

TEST(ServeSpec, ParsesSweepAndCampaignJobs)
{
    const JobSpec spec = parseSpec(R"({"jobs": [
        {"type": "sweep", "workload": "histogram", "modes": 4},
        {"type": "campaign", "workload": "histogram",
         "trials": 60, "seed": 11, "kind": "memory",
         "shard_trials": 20}
    ]})");
    ASSERT_EQ(spec.jobs.size(), 2u);
    EXPECT_EQ(spec.jobs[0].type, JobType::Sweep);
    EXPECT_EQ(spec.jobs[0].modes, 4u);
    EXPECT_EQ(spec.jobs[1].type, JobType::Campaign);
    EXPECT_EQ(spec.jobs[1].trials, 60u);
    EXPECT_EQ(spec.jobs[1].shardTrials, 20u);
    EXPECT_EQ(spec.jobs[1].kind, "memory");
}

TEST(ServeSpec, RejectsMalformedJobs)
{
    EXPECT_NE(parseError(R"({"jobs": []})").find("no jobs"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"jobs": [{"type": "bogus"}]})")
                  .find("sweep"),
              std::string::npos);
    // A sweep needs exactly one input: workload or arena.
    EXPECT_NE(parseError(R"({"jobs": [{"type": "sweep"}]})")
                  .find("workload/arena"),
              std::string::npos);
    EXPECT_NE(
        parseError(R"({"jobs": [{"type": "sweep",
            "workload": "histogram", "arena": "a.bin"}]})")
            .find("workload/arena"),
        std::string::npos);
    EXPECT_NE(parseError(R"({"jobs": [{"type": "campaign"}]})")
                  .find("needs a workload"),
              std::string::npos);
    EXPECT_NE(
        parseError(R"({"jobs": [{"type": "campaign",
            "workload": "histogram", "fault": "wedge"}]})")
            .find("fault"),
        std::string::npos);
    EXPECT_NE(
        parseError(R"({"jobs": [{"type": "sweep",
            "workload": "histogram", "modes": "four"}]})")
            .find("modes"),
        std::string::npos);
}

TEST(ServeSpec, RejectsOutOfRangeFields)
{
    // 2^32 + 1 must not narrow silently to 1.
    EXPECT_NE(parseError(R"({"jobs": [{"type": "sweep",
            "workload": "histogram", "modes": 4294967297}]})")
                  .find("'modes' does not fit in 32 bits"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"jobs": [{"type": "campaign",
            "workload": "histogram", "trials": 4,
            "stratify_classes": 4294967296}]})")
                  .find("'stratify_classes' does not fit in 32 bits"),
              std::string::npos);
    // Past the sweep kernel's widest mode: rejected here, not by a
    // fatal() inside the shard worker.
    EXPECT_NE(parseError(R"({"jobs": [{"type": "sweep",
            "workload": "histogram", "modes": 65}]})")
                  .find("modes must be in 1..64"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"jobs": [{"type": "sweep",
            "workload": "histogram", "modes": 0}]})")
                  .find("modes must be in 1..64"),
              std::string::npos);
    EXPECT_EQ(parseSpec(R"({"jobs": [{"type": "sweep",
            "workload": "histogram", "modes": 64}]})")
                  .jobs[0]
                  .modes,
              64u);
}

TEST(ServeSpec, CanonicalIsStableAcrossFormatting)
{
    const JobSpec a = parseSpec(R"({"jobs": [
        {"type": "sweep", "workload": "histogram", "modes": 4}
    ]})");
    // Same job, different field order, explicit defaults.
    const JobSpec b = parseSpec(R"({ "jobs" : [ {
        "modes": 4, "scale": 1, "workload": "histogram",
        "type": "sweep", "scheme": "parity"} ] })");
    EXPECT_EQ(a.jobs[0].canonical(), b.jobs[0].canonical());

    std::uint64_t hash_a = 0, hash_b = 0;
    std::string error;
    ASSERT_TRUE(a.hash(hash_a, error)) << error;
    ASSERT_TRUE(b.hash(hash_b, error)) << error;
    EXPECT_EQ(hash_a, hash_b);
}

TEST(ServeSpec, CanonicalDistinguishesJobs)
{
    const JobSpec spec = parseSpec(R"({"jobs": [
        {"type": "sweep", "workload": "histogram", "modes": 4},
        {"type": "sweep", "workload": "histogram", "modes": 8}
    ]})");
    EXPECT_NE(spec.jobs[0].canonical(), spec.jobs[1].canonical());
}

TEST(ServeSpec, StyleDefaultsFollowStructure)
{
    const JobSpec spec = parseSpec(R"({"jobs": [
        {"type": "sweep", "workload": "histogram"},
        {"type": "sweep", "workload": "histogram",
         "structure": "vgpr"},
        {"type": "sweep", "workload": "histogram",
         "structure": "vgpr", "style": "intra"}
    ]})");
    EXPECT_EQ(spec.jobs[0].effectiveStyle(), "way");
    EXPECT_EQ(spec.jobs[1].effectiveStyle(), "inter");
    EXPECT_EQ(spec.jobs[2].effectiveStyle(), "intra");
}

TEST(ServeSpec, ShardsCampaignsIntoContiguousRanges)
{
    const JobSpec spec = parseSpec(R"({"jobs": [
        {"type": "sweep", "workload": "histogram", "modes": 4},
        {"type": "campaign", "workload": "histogram",
         "trials": 50, "shard_trials": 20}
    ]})");
    const std::vector<ShardSpec> shards = shardJobs(spec);
    ASSERT_EQ(shards.size(), 4u);
    EXPECT_EQ(shards[0].job, 0u);
    EXPECT_EQ(shards[0].numTrials, 0u);
    EXPECT_EQ(shards[1].firstTrial, 0u);
    EXPECT_EQ(shards[1].numTrials, 20u);
    EXPECT_EQ(shards[2].firstTrial, 20u);
    EXPECT_EQ(shards[2].numTrials, 20u);
    // The tail shard takes the remainder.
    EXPECT_EQ(shards[3].firstTrial, 40u);
    EXPECT_EQ(shards[3].numTrials, 10u);
}

TEST(ServeSpec, UnshardedCampaignIsOneShard)
{
    const JobSpec spec = parseSpec(R"({"jobs": [
        {"type": "campaign", "workload": "histogram",
         "trials": 50}
    ]})");
    const std::vector<ShardSpec> shards = shardJobs(spec);
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_EQ(shards[0].firstTrial, 0u);
    EXPECT_EQ(shards[0].numTrials, 50u);
}

TEST(ServeSpec, ShardCanonicalCarriesTheTrialRange)
{
    const JobSpec spec = parseSpec(R"({"jobs": [
        {"type": "campaign", "workload": "histogram",
         "trials": 40, "shard_trials": 20}
    ]})");
    const std::vector<ShardSpec> shards = shardJobs(spec);
    ASSERT_EQ(shards.size(), 2u);
    const std::string first =
        shards[0].canonical(spec.jobs[0]);
    const std::string second =
        shards[1].canonical(spec.jobs[0]);
    EXPECT_NE(first, second);
    EXPECT_NE(first.find("first=0 n=20"), std::string::npos);
    EXPECT_NE(second.find("first=20 n=20"), std::string::npos);
}

} // namespace
} // namespace mbavf::serve

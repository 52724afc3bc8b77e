/**
 * @file
 * Tests for shard execution: a sweep shard yields the avf/ser
 * sections, identical whether it simulates or maps a saved arena,
 * and a campaign sharded into trial ranges merges to the
 * exact tally of the unsharded run — the invariant that makes any
 * sharding (and any kill/resume split) produce identical manifests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/arena_io.hh"
#include "core/lifetime_arena.hh"
#include "serve/shard.hh"
#include "serve/spec.hh"
#include "workloads/ace_runner.hh"

namespace mbavf::serve
{
namespace
{

JobConfig
campaignJob()
{
    JobConfig job;
    job.type = JobType::Campaign;
    job.workload = "histogram";
    job.trials = 40;
    job.seed = 5;
    return job;
}

ShardSpec
range(std::uint64_t first, std::uint64_t n)
{
    ShardSpec shard;
    shard.firstTrial = first;
    shard.numTrials = n;
    return shard;
}

TEST(ShardTest, SweepShardYieldsAvfAndSer)
{
    JobConfig job;
    job.type = JobType::Sweep;
    job.workload = "histogram";
    job.modes = 2;

    obs::JsonValue result;
    std::string error;
    ASSERT_TRUE(runShard(job, ShardSpec{}, result, error)) << error;
    EXPECT_NE(result.find("avf"), nullptr);
    EXPECT_NE(result.find("ser"), nullptr);
}

TEST(ShardTest, ArenaSweepMatchesWorkloadSweep)
{
    JobConfig job;
    job.type = JobType::Sweep;
    job.workload = "histogram";
    job.structure = "l1";
    job.modes = 4;
    job.windows = 4;

    obs::JsonValue from_workload;
    std::string error;
    ASSERT_TRUE(runShard(job, ShardSpec{}, from_workload, error))
        << error;

    const AceRun run = runAceAnalysis("histogram");
    const std::string path =
        ::testing::TempDir() + "shard_histogram_l1.arena";
    saveArena(LifetimeArena(run.l1), path, run.horizon);
    job.workload.clear();
    job.arenaIn = path;
    obs::JsonValue from_arena;
    ASSERT_TRUE(runShard(job, ShardSpec{}, from_arena, error))
        << error;
    EXPECT_EQ(from_workload.find("avf")->dump(),
              from_arena.find("avf")->dump());
    EXPECT_EQ(from_workload.find("ser")->dump(),
              from_arena.find("ser")->dump());

    // Cache lifetimes are 8-bit words; a VGPR sweep must refuse them.
    job.structure = "vgpr";
    obs::JsonValue mismatched;
    EXPECT_FALSE(runShard(job, ShardSpec{}, mismatched, error));
    EXPECT_NE(error.find("word width"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(ShardTest, ShardedCampaignMergesToTheUnshardedTally)
{
    const JobConfig job = campaignJob();
    std::string error;

    obs::JsonValue whole;
    ASSERT_TRUE(runShard(job, range(0, 40), whole, error)) << error;

    obs::JsonValue first, second;
    ASSERT_TRUE(runShard(job, range(0, 25), first, error)) << error;
    ASSERT_TRUE(runShard(job, range(25, 15), second, error))
        << error;

    const obs::JsonValue merged_whole = mergeCampaignShards({whole});
    const obs::JsonValue merged_split =
        mergeCampaignShards({first, second});
    EXPECT_EQ(merged_whole.dump(), merged_split.dump());

    // Shard order must not matter either: counts are sums.
    const obs::JsonValue merged_swapped =
        mergeCampaignShards({second, first});
    EXPECT_EQ(merged_split.dump(), merged_swapped.dump());
}

TEST(ShardTest, BadConfigurationFailsWithAMessage)
{
    JobConfig job;
    job.type = JobType::Sweep;
    job.workload = "histogram";
    job.structure = "l9";
    obs::JsonValue result;
    std::string error;
    EXPECT_FALSE(runShard(job, ShardSpec{}, result, error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace mbavf::serve

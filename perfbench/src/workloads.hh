/**
 * @file
 * The benchmark's three workloads (see perfbench/README.md for why
 * each was chosen and which layers it exercises).
 *
 * A workload turns the run's seed into a fixed job list during
 * setup() and runs that list once per pass(). setup() may run
 * several times; the last one's state serves the passes. Every
 * result a pass produces is mixed into the harness digest, so two
 * passes of one run — and any run of the same seed — must agree bit
 * for bit.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "harness.hh"

namespace perfbench
{

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the job list and every input the passes need. */
    virtual void setup(Harness &h) = 0;

    /** Run the job list once. */
    virtual void pass(Harness &h) = 0;

    /**
     * Jobs one pass completes, in the workload's own unit:
     * (kernel, structure) analyses, grid sweeps plus attributions,
     * or injected trials.
     */
    virtual std::uint64_t jobsPerPass() const = 0;

    /**
     * Per-layer figures that only set-up produces (golden run,
     * arena files), from the most recent setup().
     */
    std::map<std::string, double> setupMetrics;
};

/**
 * Construct the named workload ("analyze", "explore", "campaign");
 * nullptr for an unknown name. @p workdir holds any files it writes.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &workdir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

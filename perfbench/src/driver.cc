/**
 * @file
 * perfbench_driver: the repository benchmark's single process.
 *
 *   perfbench_driver --workload=analyze|explore|campaign --seed=N
 *                    --seconds=S --trace=0|1 --workdir=DIR
 *                    [--expect-digest=HEX] [--short]
 *
 * Sets the shared pool to T = min(2, hardware threads), runs the
 * workload's set-up five times (median = setup_s), then runs
 * closed-loop passes of its job list for about S seconds.
 * Every pass must reproduce the first pass's output digest and
 * deterministic counts, and, when --expect-digest is given, the
 * digest recorded for the seed.
 *
 * Every time an end-to-end metric is made of is normalized: scaled by
 * HostProbe::nominalSeconds over the time of a HostProbe run right
 * after it, which takes out the shared host's drift in speed.
 *
 * --trace=0 reports the end-to-end metrics with every obs sink off.
 * --trace=1 alternates untraced and traced passes and reports the
 * per-layer metrics: self times of the driver's spans (mean per
 * traced pass), the deterministic counts of one pass, set-up-only
 * figures, and the tracing overhead. --short runs one set-up and the
 * fewest passes that still compare two passes, and prints each
 * pass's counts on the line before the result.
 *
 * The last line of standard output is the result object
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Metric
{
    const char *name;
    const char *unit;
};

constexpr Metric endToEnd[] = {
    {"setup_s", "s"},
    {"norm_jobs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric perLayer[] = {
    {"ace.run_s", "s"},
    {"ace.unattributed_s", "s"},
    {"ace.sim_s", "s"},
    {"ace.liveness_s", "s"},
    {"ace.backward_s", "s"},
    {"ace.instrs", "count"},
    {"ace.cycles", "count"},
    {"ace.segments", "count"},
    {"mem.l1_accesses", "count"},
    {"mem.l1_misses", "count"},
    {"mem.l2_misses", "count"},
    {"trace.defs", "count"},
    {"trace.dead_defs", "count"},
    {"arena.build_s", "s"},
    {"arena.words", "count"},
    {"arena.segments", "count"},
    {"arena.save_s", "s"},
    {"arena.load_s", "s"},
    {"arena.bytes", "bytes"},
    {"sweep_s", "s"},
    {"ser_s", "s"},
    {"sweep.m1_s", "s"},
    {"sweep.m8_s", "s"},
    {"sweep.m16_s", "s"},
    {"sweep.win_s", "s"},
    {"sweep.calls", "count"},
    {"attr_s", "s"},
    {"attr.calls", "count"},
    {"campaign.golden_s", "s"},
    {"campaign.golden_instrs", "count"},
    {"trials.reg_s", "s"},
    {"trials.mem_s", "s"},
    {"trials.count", "count"},
    {"trials.masked", "count"},
    {"trials.sdc", "count"},
    {"trials.due", "count"},
    {"trials.crash", "count"},
    {"trials.hang", "count"},
    {"stratify.build_s", "s"},
    {"stratify.trials_s", "s"},
    {"stratify.strata", "count"},
    {"stratify.skipped_weight", "frac"},
    {"stratify.multiplier", "x"},
    {"pass.unattributed_s", "s"},
    {"pool.threads", "count"},
    {"obs.overhead_frac", "frac"},
    {"ops_failed_frac", "frac"},
    {"probe_ms", "ms"},
    {"sim_minstr_per_s", "Minstr/s"},
    {"analyses_per_s", "1/s"},
    {"sweeps_per_s", "1/s"},
    {"trials_per_s", "1/s"},
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench_driver: " << problem << "\n"
              << "usage: perfbench_driver --workload=analyze|explore|"
                 "campaign --seed=N --seconds=S --trace=0|1 "
                 "--workdir=DIR [--expect-digest=HEX] [--short]\n";
    std::exit(2);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** @p seconds scaled to a host on which the probe takes its nominal time. */
double
normalized(double seconds, double probe_seconds)
{
    return seconds * HostProbe::nominalSeconds / probe_seconds;
}

/**
 * Seconds of one pass of @p passes: each step's median across the
 * passes, summed over the job list; with @p normalize each sample is
 * first scaled by the probe run right after it. A burst of load from
 * outside the process that stalls a few steps of one pass moves no
 * median, while a change that slows any step in every pass moves
 * the sum.
 */
double
passSeconds(const std::vector<const PassRecord *> &passes, bool normalize)
{
    double total = 0.0;
    const std::size_t steps = passes.front()->stepTimes.size();
    for (std::size_t i = 0; i < steps; ++i) {
        std::vector<double> samples;
        for (const PassRecord *p : passes) {
            if (p->stepTimes.size() != steps)
                return 0.0;
            samples.push_back(normalize ? normalized(p->stepTimes[i],
                                                     p->probeTimes[i])
                                        : p->stepTimes[i]);
        }
        total += median(samples);
    }
    return total;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
countsJson(const std::map<std::string, double> &counts)
{
    std::string out = "{";
    for (const auto &[name, value] : counts) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": " + number(value);
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            usage("unexpected argument '" + arg + "'");
        const std::size_t eq = arg.find('=');
        args[arg.substr(2, eq == std::string::npos ? std::string::npos
                                                    : eq - 2)] =
            eq == std::string::npos ? "1" : arg.substr(eq + 1);
    }
    for (const auto &[key, value] : args) {
        if (key != "workload" && key != "seed" && key != "seconds" &&
            key != "trace" && key != "workdir" &&
            key != "expect-digest" && key != "short")
            usage("unknown option --" + key);
    }
    for (const char *required : {"workload", "seed", "seconds", "trace",
                                 "workdir"}) {
        if (!args.count(required))
            usage(std::string("missing --") + required);
    }
    const std::string name = args["workload"];
    const std::uint64_t seed =
        std::strtoull(args["seed"].c_str(), nullptr, 10);
    const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
    const bool trace = args["trace"] == "1";
    const bool short_mode = args.count("short") != 0;
    if (!(seconds > 0.0))
        usage("--seconds must be positive");
    if (args["trace"] != "0" && args["trace"] != "1")
        usage("--trace must be 0 or 1");

    // Two threads exercise the pool while leaving the rest of a small
    // shared host to the OS and other tenants; with one pool thread
    // per core, runs spread about twice as widely.
    const unsigned threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
    mbavf::setParallelThreads(threads);

    std::unique_ptr<Workload> workload =
        makeWorkload(name, seed, args["workdir"]);
    if (!workload)
        usage("unknown workload '" + name + "'");

    Harness h;
    std::vector<double> setup_s;
    std::map<std::string, std::vector<double>> setup_metrics;
    const unsigned setups = short_mode ? 1 : 5;
    try {
        for (unsigned i = 0; i < setups; ++i) {
            const double t0 = nowSeconds();
            workload->setup(h);
            const double seconds = nowSeconds() - t0;
            // A set-up is one sample, so it gets the median of three
            // probes rather than one.
            setup_s.push_back(normalized(
                seconds, median({h.probe.seconds(), h.probe.seconds(),
                                 h.probe.seconds()})));
            for (const auto &[key, value] : workload->setupMetrics)
                setup_metrics[key].push_back(value);
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
        return 1;
    }

    std::vector<PassRecord> passes;
    std::size_t untraced = 0;
    std::size_t traced = 0;
    const double start = nowSeconds();
    for (;;) {
        const bool traced_pass = trace && untraced > traced;
        h.beginPass(traced_pass);
        const double t0 = nowSeconds();
        try {
            workload->pass(h);
        } catch (const std::exception &e) {
            ++h.failed;
            std::cerr << "perfbench: pass failed: " << e.what() << "\n";
        }
        passes.push_back(h.endPass(nowSeconds() - t0));
        ++(traced_pass ? traced : untraced);
        // Stop once the minimum is met and another pass like the
        // last would end past the deadline, so a run lasts about
        // --seconds whatever the pass length.
        const std::size_t min_each = short_mode ? 2 : trace ? 2 : 3;
        const bool enough =
            untraced >= min_each && (!trace || traced >= min_each);
        const double ends_at =
            nowSeconds() - start + passes.back().seconds;
        if (enough && (short_mode || ends_at > seconds))
            break;
    }

    for (const PassRecord &p : passes) {
        h.check(p.digest == passes.front().digest,
                "pass digest " + hex(p.digest) + " differs from " +
                    hex(passes.front().digest));
        h.check(p.counts == passes.front().counts,
                "pass counts differ between passes");
    }
    if (args.count("expect-digest")) {
        const std::uint64_t expected =
            std::strtoull(args["expect-digest"].c_str(), nullptr, 16);
        h.check(passes.front().digest == expected,
                "digest " + hex(passes.front().digest) +
                    " differs from the one recorded for seed " +
                    std::to_string(seed) + ", " + hex(expected));
    }
    std::cerr << "perfbench: " << name << " seed " << seed << " digest "
              << hex(passes.front().digest) << ", pass seconds";
    for (const PassRecord &p : passes)
        std::cerr << " " << p.seconds << (p.traced ? "(traced)" : "");
    std::cerr << "\n";

    std::vector<const PassRecord *> plain;
    std::vector<const PassRecord *> traced_passes;
    for (const PassRecord &p : passes)
        (p.traced ? traced_passes : plain).push_back(&p);
    const double pass_s = passSeconds(plain, false);
    // A pass cut short by a failure has fewer steps; the run is then
    // incorrect and its rates read 0 rather than infinity.
    const bool timed =
        h.check(pass_s > 0.0 &&
                    (!trace || passSeconds(traced_passes, false) > 0.0),
                "passes differ in their number of steps");
    const double jobs_per_s =
        timed ? double(workload->jobsPerPass()) / pass_s : 0.0;

    std::map<std::string, double> values;
    if (!trace) {
        struct rusage usage_now;
        getrusage(RUSAGE_SELF, &usage_now);
        values["setup_s"] = median(setup_s);
        values["norm_jobs_per_s"] =
            timed ? double(workload->jobsPerPass()) /
                        passSeconds(plain, true)
                  : 0.0;
        values["peak_rss_mb"] = double(usage_now.ru_maxrss) / 1024.0;
    } else {
        for (const Metric &m : perLayer)
            values[m.name] = 0.0;
        for (const PassRecord &p : passes) {
            for (const auto &[key, value] : p.selfTimes)
                values[key] += value / double(traced);
        }
        for (const auto &[key, value] : passes.front().counts)
            values[key] = value;
        for (const auto &[key, samples] : setup_metrics)
            values[key] = median(samples);
        values["pool.threads"] = mbavf::parallelThreads();
        if (timed) {
            values["obs.overhead_frac"] =
                passSeconds(traced_passes, false) / pass_s - 1.0;
            values["sim_minstr_per_s"] =
                values["ace.instrs"] / pass_s / 1e6;
        }
        const char *rate = name == "analyze"   ? "analyses_per_s"
                           : name == "explore" ? "sweeps_per_s"
                                               : "trials_per_s";
        values[rate] = jobs_per_s;
        values["ops_failed_frac"] =
            double(h.failed) / double(std::max<std::uint64_t>(1, h.attempted));
        std::vector<double> probes;
        for (const PassRecord &p : passes)
            probes.insert(probes.end(), p.probeTimes.begin(),
                          p.probeTimes.end());
        values["probe_ms"] = 1e3 * median(probes);
    }

    if (short_mode) {
        std::string line = "{\"short_pass_counts\": [";
        for (std::size_t i = 0; i < passes.size(); ++i)
            line += (i ? ", " : "") + countsJson(passes[i].counts);
        std::cout << line << "]}\n";
    }

    std::string metrics;
    for (const Metric &m : trace ? std::span<const Metric>(perLayer)
                                 : std::span<const Metric>(endToEnd)) {
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + std::string(m.name) + "\": {\"value\": " +
                   number(values[m.name]) + ", \"unit\": \"" + m.unit +
                   "\"}";
    }
    std::cout << "{\"correct\": " << (h.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << h.attempted
              << ", \"failed\": " << h.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return 0;
}

/**
 * @file
 * Measurement harness of the repository benchmark: closed-loop pass
 * timing, per-call spans, deterministic counts, output digests and
 * the operation tally every workload reports through.
 *
 * A pass is one run of a workload's fixed job list by a single
 * caller; each call into a layer starts only after the previous one
 * returned. In a traced pass every call is wrapped in a span (name,
 * start, end, parent). Spans never overlap their siblings, because
 * the driver is the only caller, so a span's self time is its
 * duration minus the summed durations of its children. The
 * program's own `ace.*` phases (obs::phaseStats) are folded in as
 * duration-only children of the call that ran them.
 *
 * The host is a few cores of a shared machine whose speed drifts by
 * a quarter or more over minutes as the load of other tenants
 * changes. After every step the harness times a HostProbe, a
 * fixed task that depends on nothing in the program, so the driver
 * can scale each step to a host of nominal speed (see driver.cc).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Host seconds on the steady clock. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** 64-bit FNV-1a over everything a pass mixes in. */
class Digest
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    void
    mix(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }
    void
    mix(const std::string &s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ull;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One call into a layer (or a program phase folded under one). */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span in the pass, -1 at top level. */
    int parent = -1;
};

/**
 * A fixed task timed beside the program. Two threads at once, the
 * caller and a helper, each format and parse 3000 doubles (printf,
 * strtod) and count 4000 decimal strings in a hash map. The probe's
 * time is the slower thread's, as a step on the pool's two threads
 * waits for the slower one. Like the simulator, this code is branchy
 * and spread over much library code, so it slows as the program does
 * when another tenant shares a core, yet it runs nothing of the
 * program's. Of the probes tried (perfbench/README.md) it tracked the
 * program's drift best.
 */
class HostProbe
{
  public:
    /** Host seconds of one probe. */
    double seconds();

    /**
     * The probe's time on an idle 4-core Xeon container (the host
     * the benchmark was tuned on); a normalized time is a host time
     * times nominalSeconds / (the probe's time beside it).
     */
    static constexpr double nominalSeconds = 0.0045;
};

class Harness;

/** Scoped span; records nothing unless the pass is traced. */
class SpanScope
{
  public:
    SpanScope(Harness &h, const char *name, bool fold_phases);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Harness &h_;
    int index_ = -1;
    bool foldPhases_ = false;
    std::map<std::string, double> phasesBefore_;
};

/**
 * What one pass produced: its wall time less the probes', output
 * digest, the deterministic counts, and (traced passes) per-name
 * self times.
 */
struct PassRecord
{
    double seconds = 0.0;
    bool traced = false;
    std::uint64_t digest = 0;
    std::map<std::string, double> counts;
    std::map<std::string, double> selfTimes;
    /** Host seconds of each step of the pass, in job-list order. */
    std::vector<double> stepTimes;
    /** Host seconds of the probe run right after each step. */
    std::vector<double> probeTimes;
};

class Harness
{
  public:
    /** Layer calls and checks attempted / failed over the run. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Current pass state; reset by beginPass(). */
    bool tracing = false;
    std::vector<Span> spans;
    std::vector<int> open;
    Digest digest;
    std::map<std::string, double> counts;

    /**
     * Call into a layer: one attempted op, one span when traced.
     * With @p fold_phases the program's ace.* phases that ran inside
     * the call become its child spans.
     */
    template <typename F>
    decltype(auto)
    call(const char *name, F &&f, bool fold_phases = false)
    {
        ++attempted;
        SpanScope scope(*this, name, fold_phases);
        try {
            return f();
        } catch (const std::exception &e) {
            std::cerr << "perfbench: " << name << ": " << e.what() << "\n";
            throw;
        }
    }

    /** A correctness check: one attempted op, failed when !ok. */
    bool
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
        return ok;
    }

    void count(const std::string &name, double v) { counts[name] += v; }

    /**
     * Close one step of the pass (a job or a fixed slice of one).
     * Steps are timed in every pass, so the driver can take each
     * step's median across passes (see passSeconds in driver.cc).
     */
    void
    stepDone()
    {
        const double end = nowSeconds();
        stepTimes.push_back(end - stepStart_);
        probeTimes.push_back(probe.seconds());
        stepStart_ = nowSeconds();
        probeSeconds_ += stepStart_ - end;
    }

    void beginPass(bool traced);
    /**
     * Close the pass: self times and the wall-time identity check.
     * @p seconds is the pass's wall time; the probes' time is taken
     * out of it.
     */
    PassRecord endPass(double seconds);

    HostProbe probe;

  private:
    std::vector<double> stepTimes;
    std::vector<double> probeTimes;
    double stepStart_ = 0.0;
    double probeSeconds_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH

#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>

#include "obs/phase.hh"

namespace perfbench
{

namespace
{

/** The program's ace.* phase totals recorded so far. */
std::map<std::string, double>
acePhaseTotals()
{
    std::map<std::string, double> totals;
    for (const auto &[name, stat] : mbavf::obs::phaseStats()) {
        if (name.rfind("ace.", 0) == 0)
            totals[name] = stat.seconds;
    }
    return totals;
}

} // namespace

namespace
{

/** One thread's share of a probe; returns its host seconds. */
double
probeTask()
{
    const double t0 = nowSeconds();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    double sum = 0.0;
    char text[32];
    for (int i = 0; i < 3000; ++i) {
        std::snprintf(text, sizeof(text), "%.17g",
                      double(next() >> 11) * 1e-7);
        sum += std::strtod(text, nullptr);
    }
    std::unordered_map<std::string, int> counts;
    for (int i = 0; i < 4000; ++i)
        ++counts[std::to_string(next() % 5000)];
    for (int i = 0; i < 4000; ++i) {
        const auto it = counts.find(std::to_string(i));
        sum += it == counts.end() ? 0 : it->second;
    }
    // The sum keeps the work from being optimized away.
    return nowSeconds() - t0 + (sum < 0.0 ? 1.0 : 0.0);
}

} // namespace

double
HostProbe::seconds()
{
    double helper = 0.0;
    std::thread thread([&helper] { helper = probeTask(); });
    const double caller = probeTask();
    thread.join();
    return std::max(caller, helper);
}

SpanScope::SpanScope(Harness &h, const char *name, bool fold_phases)
    : h_(h)
{
    if (!h_.tracing)
        return;
    foldPhases_ = fold_phases;
    if (foldPhases_)
        phasesBefore_ = acePhaseTotals();
    Span span;
    span.name = name;
    span.parent = h_.open.empty() ? -1 : h_.open.back();
    index_ = static_cast<int>(h_.spans.size());
    h_.spans.push_back(std::move(span));
    h_.open.push_back(index_);
    h_.spans[index_].start = nowSeconds();
}

SpanScope::~SpanScope()
{
    if (index_ < 0)
        return;
    const double end = nowSeconds();
    h_.spans[index_].end = end;
    h_.open.pop_back();
    if (!foldPhases_)
        return;
    // The phase table only keeps totals, so a folded phase has a
    // duration but no position; it is laid out from the span's start
    // in phase-name order, which keeps it inside its parent.
    double cursor = h_.spans[index_].start;
    for (const auto &[name, seconds] : acePhaseTotals()) {
        auto it = phasesBefore_.find(name);
        const double delta =
            seconds - (it == phasesBefore_.end() ? 0.0 : it->second);
        if (delta <= 0.0)
            continue;
        Span phase;
        phase.name = name;
        phase.start = cursor;
        phase.end = cursor + delta;
        phase.parent = index_;
        cursor = phase.end;
        h_.spans.push_back(std::move(phase));
    }
}

void
Harness::beginPass(bool traced)
{
    tracing = traced;
    spans.clear();
    open.clear();
    digest = Digest();
    counts.clear();
    stepTimes.clear();
    probeTimes.clear();
    probeSeconds_ = 0.0;
    mbavf::obs::setTimingEnabled(traced);
    stepStart_ = nowSeconds();
}

PassRecord
Harness::endPass(double seconds)
{
    mbavf::obs::setTimingEnabled(false);
    PassRecord rec;
    rec.seconds = seconds - probeSeconds_;
    rec.traced = tracing;
    rec.digest = digest.value();
    rec.counts = counts;
    rec.stepTimes = stepTimes;
    rec.probeTimes = probeTimes;
    if (!tracing)
        return rec;

    std::vector<double> child(spans.size(), 0.0);
    double top = 0.0;
    for (const Span &s : spans) {
        const double d = s.end - s.start;
        if (s.parent < 0)
            top += d;
        else
            child[s.parent] += d;
    }
    double total = 0.0;
    bool non_negative = true;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double self = spans[i].end - spans[i].start - child[i];
        non_negative = non_negative && self > -1e-9;
        // ace.run's self time is the part of runAceAnalysis its own
        // phases do not cover; its inclusive time is reported too.
        if (spans[i].name == "ace.run") {
            rec.selfTimes["ace.unattributed_s"] += self;
            rec.selfTimes["ace.run_s"] += spans[i].end - spans[i].start;
        } else {
            rec.selfTimes[spans[i].name + "_s"] += self;
        }
        total += self;
    }
    const double unattributed = rec.seconds - top;
    rec.selfTimes["pass.unattributed_s"] += unattributed;
    total += unattributed;
    check(non_negative && unattributed > -1e-9 &&
              std::fabs(total - rec.seconds) <= 1e-9 * (1.0 + rec.seconds),
          "traced self times do not sum to the pass wall time");
    tracing = false;
    return rec;
}

} // namespace perfbench

#include "analyze/attribution.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "core/group_sweep.hh"

namespace mbavf::analyze
{

namespace
{

/**
 * Group-sweep sink (core/group_sweep.hh) that charges every
 * non-unACE slice, whole, to the tag of the charged member's segment:
 * tag -> per-class group-cycles.
 */
struct TagAccumulator
{
    std::unordered_map<InstrTag, std::array<Cycle, 3>> cycles;

    template <typename Charged>
    void
    add(Outcome outcome, Cycle begin, Cycle end, const Charged &charged)
    {
        if (outcome == Outcome::Unace)
            return;
        const unsigned idx =
            detail::OutcomeAccumulator::classIndex(outcome);
        cycles[charged(outcome).tag][idx] += end - begin;
    }

    /**
     * Fold @p other in. Plain integer additions keyed by tag: the
     * result is independent of both iteration and merge order, which
     * is what keeps the banded sweep bit-identical at any thread
     * count even though the map itself is unordered.
     */
    void
    mergeFrom(const TagAccumulator &other)
    {
        for (const auto &[tag, c] : other.cycles) {
            auto &mine = cycles[tag];
            for (unsigned i = 0; i < 3; ++i)
                mine[i] += c[i];
        }
    }
};

} // namespace

double
AttributionResult::share(const TagContribution &c) const
{
    const Cycle total = cycles[0] + cycles[1] + cycles[2];
    return total ? static_cast<double>(c.total()) /
                       static_cast<double>(total)
                 : 0.0;
}

AttributionResult
attributeMbAvf(const PhysicalArray &array, const LifetimeStore &store,
               const ProtectionScheme &scheme, const FaultMode &mode,
               const MbAvfOptions &opt)
{
    if (opt.horizon == 0)
        fatal("attribution horizon must be nonzero");
    if (mode.size() > detail::maxModeBits)
        fatal("fault mode larger than ", detail::maxModeBits, " bits");

    AttributionResult result;
    result.horizon = opt.horizon;
    result.numGroups = mode.numGroups(array.rows(), array.cols());
    const TagAccumulator acc = detail::sweepAnchorRows(
        array, store, scheme, mode, opt, TagAccumulator{},
        obs::Counter{});

    result.perTag.reserve(acc.cycles.size());
    for (const auto &[tag, c] : acc.cycles) {
        TagContribution tc;
        tc.tag = tag;
        tc.cycles = c;
        result.perTag.push_back(tc);
        for (unsigned i = 0; i < 3; ++i)
            result.cycles[i] += c[i];
    }
    std::sort(result.perTag.begin(), result.perTag.end(),
              [](const TagContribution &a, const TagContribution &b) {
                  return a.tag < b.tag;
              });
    return result;
}

std::vector<KernelContribution>
rollupByKernel(const AttributionResult &attr)
{
    std::vector<KernelContribution> out;
    for (const TagContribution &c : attr.perTag) {
        const unsigned kernel = c.tag == noInstrTag
            ? KernelContribution::noKernel
            : tagKernel(c.tag);
        // perTag is tag-ordered, so equal kernels are adjacent.
        if (out.empty() || out.back().kernel != kernel) {
            KernelContribution kc;
            kc.kernel = kernel;
            out.push_back(kc);
        }
        for (unsigned i = 0; i < 3; ++i)
            out.back().cycles[i] += c.cycles[i];
    }
    return out;
}

std::string
checkConservation(const AttributionResult &attr,
                  const MbAvfResult &reference)
{
    if (attr.horizon != reference.horizon) {
        return "horizon mismatch: attribution " +
               std::to_string(attr.horizon) + ", reference " +
               std::to_string(reference.horizon);
    }
    if (attr.numGroups != reference.numGroups) {
        return "group count mismatch: attribution " +
               std::to_string(attr.numGroups) + ", reference " +
               std::to_string(reference.numGroups);
    }
    static const char *const class_names[3] = {"SDC", "trueDUE",
                                               "falseDUE"};
    std::array<Cycle, 3> resummed = {0, 0, 0};
    for (const TagContribution &c : attr.perTag) {
        for (unsigned i = 0; i < 3; ++i)
            resummed[i] += c.cycles[i];
    }
    for (unsigned i = 0; i < 3; ++i) {
        if (resummed[i] != attr.cycles[i]) {
            return std::string("internal ") + class_names[i] +
                   " sum drifted from the recorded column total: " +
                   std::to_string(resummed[i]) + " != " +
                   std::to_string(attr.cycles[i]);
        }
        if (attr.cycles[i] != reference.cycles[i]) {
            return std::string(class_names[i]) +
                   " not conserved: per-tag sum " +
                   std::to_string(attr.cycles[i]) +
                   " != reference total " +
                   std::to_string(reference.cycles[i]);
        }
    }
    return {};
}

} // namespace mbavf::analyze

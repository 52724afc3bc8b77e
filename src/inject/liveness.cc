#include "inject/liveness.hh"

#include <algorithm>
#include <iterator>
#include <limits>

namespace mbavf
{

bool
LivenessMap::exposed(std::uint64_t word, std::uint64_t trigger) const
{
    const std::span<const TriggerSpan> s = spans(word);
    const auto before = [](std::uint64_t t, const TriggerSpan &span) {
        return t < span.begin;
    };
    // The first span starting past the trigger; its predecessor is
    // the only one that can contain it.
    auto it = std::upper_bound(s.begin(), s.end(), trigger, before);
    return it != s.begin() && trigger < std::prev(it)->end;
}

LivenessMap
LivenessBuilder::finish(std::uint64_t words)
{
    const std::uint64_t recorded =
        std::min<std::uint64_t>(words, state_.size());
    for (std::uint64_t w = 0; w < recorded; ++w) {
        const WordState &st = state_[w];
        if (st.end > st.begin)
            closed_.push_back({w, {st.begin, st.end}});
    }
    state_ = {};
    LivenessMap map;
    if (closed_.size() > std::numeric_limits<std::uint32_t>::max())
        words = 0;
    // Counting sort by word. closed_ holds each word's spans in
    // ascending order, and the sort is stable.
    map.offsets_.assign(words + 1, 0);
    for (const auto &[w, span] : closed_) {
        if (w < words)
            ++map.offsets_[w + 1];
    }
    for (std::uint64_t w = 0; w < words; ++w)
        map.offsets_[w + 1] += map.offsets_[w];
    map.spans_.resize(map.offsets_[words]);
    std::vector<std::uint32_t> next(map.offsets_.begin(),
                                    map.offsets_.end() - 1);
    for (const auto &[w, span] : closed_) {
        if (w < words)
            map.spans_[next[w]++] = span;
    }
    closed_ = {};
    return map;
}

LivenessRecorder::LivenessRecorder(Gpu &gpu)
    : gpu_(gpu)
{
    const GpuConfig &config = gpu.config();
    for (unsigned cu = 0; cu < config.numCus; ++cu) {
        gpu.regFile(cu).setObserver(
            this, std::uint64_t(cu) * config.regs.numContainers());
    }
    gpu.mem().setObserver(this, registerWords(config));
}

LivenessRecorder::~LivenessRecorder()
{
    detach();
}

void
LivenessRecorder::detach()
{
    for (unsigned cu = 0; cu < gpu_.config().numCus; ++cu)
        gpu_.regFile(cu).setObserver(nullptr);
    gpu_.mem().setObserver(nullptr);
}

LivenessMap
LivenessRecorder::finish(Addr footprint)
{
    detach();
    // Stamps never decrease, so the final count bounds them all.
    if (gpu_.instrCount() > std::numeric_limits<std::uint32_t>::max())
        return builder_.finish(0);
    return builder_.finish(registerWords(gpu_.config()) + footprint);
}

} // namespace mbavf

#include "gpu/gpu.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/trap.hh"
#include "gpu/wave.hh"

namespace mbavf
{

Gpu::Gpu(const GpuConfig &config)
    : config_(config)
{
    if (config.wavefrontSize == 0 || config.wavefrontSize > 64)
        fatal("wavefront size must be in [1, 64]");
    if (config.quarterWave == 0 ||
        config.wavefrontSize % config.quarterWave != 0) {
        fatal("quarter-wave width must divide the wavefront size");
    }
    if (config.regs.numLanes != config.wavefrontSize)
        fatal("register file lanes must match the wavefront size");
    if (!isPowerOfTwo(config.memBytes))
        fatal("memory size must be a power of two");

    mem_ = std::make_unique<MainMemory>(config.memBytes);
    dram_ = std::make_unique<Dram>(config.dramLatency);
    l2_ = std::make_unique<Cache>(config.l2, *dram_);
    for (unsigned cu = 0; cu < config.numCus; ++cu) {
        l1s_.push_back(std::make_unique<Cache>(config.l1, *l2_));
        regFiles_.push_back(
            std::make_unique<VectorRegFile>(config.regs));
    }
    cuWaveCount_.assign(config.numCus, 0);
}

Gpu::~Gpu() = default;

void
Gpu::launch(const std::function<void(Wave &)> &kernel,
            unsigned num_waves)
{
    if (finished_)
        panic("launch after finish()");
    if (launchedOnce_)
        ++kernelId_;
    launchedOnce_ = true;
    for (unsigned w = 0; w < num_waves; ++w) {
        unsigned cu = w % config_.numCus;
        unsigned slot = cuWaveCount_[cu] % config_.regs.numSlots;
        ++cuWaveCount_[cu];
        Wave wave(*this, cu, slot, w);
        kernel(wave);
        clock_.advanceTo(wave.endTime());
    }
}

void
Gpu::finish()
{
    if (finished_)
        return;
    finished_ = true;
    horizon_ = clock_.now() + 1;

    if (tracking_) {
        // Output buffers are consumed (fully live) at the horizon.
        for (const OutputRange &range : outputRanges_) {
            refIndex_.addLoad(range.addr,
                              static_cast<unsigned>(range.bytes),
                              horizon_, noDef);
        }
    }
    // Kernel-completion flush: write back all dirty state.
    for (auto &l1 : l1s_)
        l1->flush(horizon_);
    l2_->flush(horizon_);
}

unsigned
Gpu::cusWithWaves() const
{
    unsigned used = 0;
    for (unsigned count : cuWaveCount_)
        used += count > 0;
    return used;
}

void
Gpu::addOutputRange(Addr addr, std::uint64_t bytes)
{
    outputRanges_.push_back({addr, bytes});
}

void
Gpu::armInjections(std::vector<RegInjection> injections)
{
    injections_ = std::move(injections);
}

void
Gpu::armMemInjections(std::vector<MemInjection> injections)
{
    memInjections_ = std::move(injections);
}

void
Gpu::sampleCyclesAt(std::vector<std::uint64_t> instr_indices)
{
    for (std::size_t i = 1; i < instr_indices.size(); ++i) {
        if (instr_indices[i] < instr_indices[i - 1])
            fatal("cycle sample points must be sorted ascending");
    }
    samplePoints_ = std::move(instr_indices);
    sampledCycles_.clear();
    sampledCycles_.reserve(samplePoints_.size());
    nextSample_ = 0;
}

void
Gpu::preInstruction(Cycle wave_now)
{
    // Same fire point as an injection with this triggerInstr: just
    // before the instruction executes. One predictable compare when
    // no sampling is armed.
    while (nextSample_ < samplePoints_.size() &&
           instrCount_ == samplePoints_[nextSample_]) {
        sampledCycles_.push_back(wave_now);
        ++nextSample_;
    }
    for (RegInjection &inj : injections_) {
        if (!inj.fired && instrCount_ == inj.triggerInstr) {
            regFiles_[inj.cu]->flipBits(inj.slot, inj.reg, inj.lane,
                                        inj.bitMask);
            inj.fired = true;
        }
    }
    for (MemInjection &inj : memInjections_) {
        if (!inj.fired && instrCount_ == inj.triggerInstr) {
            mem_->write8(inj.addr,
                         mem_->read8(inj.addr) ^ inj.bitMask);
            inj.fired = true;
        }
    }
    ++instrCount_;
    // Two predictable compares on the hot path; the disabled (0)
    // case short-circuits. bench/micro_trap_overhead pins the cost.
    if (watchdogInstrs_ != 0 && instrCount_ > watchdogInstrs_)
        simTrap(trapcode::watchdogInstrs, "instruction budget ",
                watchdogInstrs_, " exhausted");
    // The shared clock only advances when a wave retires, so a
    // runaway inside one wave is visible only through the wave-local
    // time the caller passes in.
    if (watchdogCycles_ != 0 && wave_now > watchdogCycles_)
        simTrap(trapcode::watchdogCycles, "cycle budget ",
                watchdogCycles_, " exhausted at ", wave_now);
}

} // namespace mbavf

#include "gpu/wave.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/trap.hh"
#include "gpu/gpu.hh"

namespace mbavf
{

namespace
{

constexpr std::uint32_t allBits = ~std::uint32_t(0);

// Operand relevance functors: relevance of one operand =
// rel(own bits, other operand bits). Distinct types, so the ALU op
// templates below inline them.

constexpr auto relAll = [](std::uint32_t, std::uint32_t) {
    return allBits;
};

/** AND: a bit of one operand matters only where the other is 1. */
constexpr auto relAnd = [](std::uint32_t, std::uint32_t other) {
    return other;
};

/** OR: a bit of one operand matters only where the other is 0. */
constexpr auto relOr = [](std::uint32_t, std::uint32_t other) {
    return ~other;
};

/** MUL: if the other operand is zero, no bit matters. */
constexpr auto relMul = [](std::uint32_t, std::uint32_t other) {
    return other == 0 ? 0 : allBits;
};

/**
 * Call @p fn(lane) for every active lane of @p mask in ascending
 * lane order (the order the L1 sees accesses in, which fixes its
 * LRU state).
 */
template <class Fn>
inline void
forEachLane(std::uint64_t mask, Fn &&fn)
{
    for (; mask != 0; mask &= mask - 1)
        fn(static_cast<unsigned>(std::countr_zero(mask)));
}

} // namespace

Wave::Wave(Gpu &gpu, unsigned cu, unsigned slot, unsigned wave_id)
    : gpu_(gpu), rf_(gpu.regFile(cu)), l1_(gpu.l1(cu)), cu_(cu),
      slot_(slot), waveId_(wave_id),
      lanes_(gpu.config().wavefrontSize),
      quarterWave_(gpu.config().quarterWave),
      time_(gpu.clock().now())
{
    execStack_.push_back(lowMask(lanes_));
}

std::uint64_t
Wave::beginInstr()
{
    gpu_.preInstruction(time_);
    // pc_ counts issued operations; identical kernels give every
    // wave the same pc sequence, making (kernel, pc) a *static*
    // instruction identity.
    tag_ = gpu_.tagging() ? makeInstrTag(gpu_.kernelId(), pc_)
                          : noInstrTag;
    ++pc_;
    return execStack_.back();
}

Addr
Wave::dataAddr(std::uint64_t ea) const
{
    // Golden-run addresses are in range and 4-aligned by
    // construction (word-indexed buffers off 64-aligned
    // allocations), so these checks only ever fire when injected
    // faults corrupt an address register. They trap — the memory
    // protection of a real device — instead of silently wrapping,
    // so the campaign can classify the trial Crash.
    if ((ea & 3) != 0)
        simTrap(trapcode::memAlign, "unaligned 32-bit access at ", ea);
    if (ea + 4 > gpu_.config().memBytes)
        simTrap(trapcode::memOob, "wave access out of range: ", ea,
                " of ", gpu_.config().memBytes);
    return ea;
}

void
Wave::checkReg(unsigned reg) const
{
    if (reg >= gpu_.config().regs.numRegs)
        simTrap(trapcode::gpuBadReg, "register ", reg,
                " out of range (", gpu_.config().regs.numRegs, ")");
}

inline void
Wave::noteRead(unsigned lane, unsigned reg, std::uint32_t consume,
               DefId def, bool exact)
{
    rf_.noteRead(slot_, reg, lane, laneTime(lane), consume, def, exact);
}

inline void
Wave::writeReg(unsigned lane, unsigned reg, const Value &value)
{
    rf_.set(slot_, reg, lane, value, laneTime(lane), tag_);
}

// Every op below has the same shape: check its registers, begin the
// instruction once, then walk the active lanes. Tracking is a branch
// inside the lane loop, not a second interpreter: the untracked path
// (campaign trials, golden runs) skips the dataflow records and read
// events and executes exactly the same values, writes and accesses.

template <class Fn, class RelA, class RelB>
void
Wave::binaryOp(unsigned dst, unsigned a, unsigned b, bool bitwise,
               Fn fn, RelA rel_a, RelB rel_b)
{
    checkReg(dst);
    checkReg(a);
    checkReg(b);
    const bool tracking = gpu_.tracking();
    forEachLane(beginInstr(), [&](unsigned lane) {
        const Value va = rf_.get(slot_, a, lane);
        const Value vb = rf_.get(slot_, b, lane);
        Value out{fn(va.bits, vb.bits), noDef};
        if (tracking) {
            const std::uint32_t ra = rel_a(va.bits, vb.bits);
            const std::uint32_t rb = rel_b(vb.bits, va.bits);
            std::array<SrcUse, 2> srcs{
                SrcUse{va.def, ra, bitwise},
                SrcUse{vb.def, rb, bitwise}};
            out.def = gpu_.dataflow().record(srcs, tag_);
            // The register file reads both operands regardless of
            // relevance; zero-relevance reads are pure array reads.
            noteRead(lane, a, ra, out.def, bitwise);
            noteRead(lane, b, rb, out.def, bitwise);
        }
        writeReg(lane, dst, out);
    });
    time_ += gpu_.config().aluCycles;
}

template <class Fn>
void
Wave::immOp(unsigned dst, unsigned a, std::uint32_t imm, bool bitwise,
            Fn fn, std::uint32_t relevance)
{
    checkReg(dst);
    checkReg(a);
    const bool tracking = gpu_.tracking();
    forEachLane(beginInstr(), [&](unsigned lane) {
        const Value va = rf_.get(slot_, a, lane);
        Value out{fn(va.bits, imm), noDef};
        if (tracking) {
            std::array<SrcUse, 1> srcs{
                SrcUse{va.def, relevance, bitwise}};
            out.def = gpu_.dataflow().record(srcs, tag_);
            noteRead(lane, a, relevance, out.def, bitwise);
        }
        writeReg(lane, dst, out);
    });
    time_ += gpu_.config().aluCycles;
}

template <class ValueFn>
void
Wave::sourceOp(unsigned dst, ValueFn value)
{
    checkReg(dst);
    const bool tracking = gpu_.tracking();
    forEachLane(beginInstr(), [&](unsigned lane) {
        Value out{value(lane), noDef};
        if (tracking)
            out.def = gpu_.dataflow().record({}, tag_);
        writeReg(lane, dst, out);
    });
    time_ += gpu_.config().aluCycles;
}

void
Wave::movi(unsigned dst, std::uint32_t imm)
{
    sourceOp(dst, [imm](unsigned) { return imm; });
}

void
Wave::globalId(unsigned dst)
{
    const std::uint32_t base = waveId_ * lanes_;
    sourceOp(dst, [base](unsigned lane) { return base + lane; });
}

void
Wave::laneIdx(unsigned dst)
{
    sourceOp(dst, [](unsigned lane) { return std::uint32_t(lane); });
}

void
Wave::mov(unsigned dst, unsigned src)
{
    immOp(dst, src, 0, true,
          [](std::uint32_t a, std::uint32_t) { return a; }, allBits);
}

void
Wave::add(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) { return x + y; },
             relAll, relAll);
}

void
Wave::sub(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) { return x - y; },
             relAll, relAll);
}

void
Wave::mul(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) { return x * y; },
             relMul, relMul);
}

void
Wave::mad(unsigned dst, unsigned a, unsigned b, unsigned c)
{
    checkReg(dst);
    checkReg(a);
    checkReg(b);
    checkReg(c);
    const bool tracking = gpu_.tracking();
    forEachLane(beginInstr(), [&](unsigned lane) {
        const Value va = rf_.get(slot_, a, lane);
        const Value vb = rf_.get(slot_, b, lane);
        const Value vc = rf_.get(slot_, c, lane);
        Value out{va.bits * vb.bits + vc.bits, noDef};
        if (tracking) {
            const std::uint32_t ra = relMul(va.bits, vb.bits);
            const std::uint32_t rb = relMul(vb.bits, va.bits);
            std::array<SrcUse, 3> srcs{
                SrcUse{va.def, ra, false}, SrcUse{vb.def, rb, false},
                SrcUse{vc.def, allBits, false}};
            out.def = gpu_.dataflow().record(srcs, tag_);
            noteRead(lane, a, ra, out.def, false);
            noteRead(lane, b, rb, out.def, false);
            noteRead(lane, c, allBits, out.def, false);
        }
        writeReg(lane, dst, out);
    });
    time_ += gpu_.config().aluCycles;
}

void
Wave::addi(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) { return x + y; },
          allBits);
}

void
Wave::subi(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) { return x - y; },
          allBits);
}

void
Wave::muli(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) { return x * y; },
          imm == 0 ? 0 : allBits);
}

void
Wave::minu(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) {
                 return x < y ? x : y;
             },
             relAll, relAll);
}

void
Wave::maxu(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) {
                 return x > y ? x : y;
             },
             relAll, relAll);
}

void
Wave::divu(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) {
                 return y ? x / y : 0;
             },
             relAll, relAll);
}

void
Wave::and_(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, true,
             [](std::uint32_t x, std::uint32_t y) { return x & y; },
             relAnd, relAnd);
}

void
Wave::or_(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, true,
             [](std::uint32_t x, std::uint32_t y) { return x | y; },
             relOr, relOr);
}

void
Wave::xor_(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, true,
             [](std::uint32_t x, std::uint32_t y) { return x ^ y; },
             relAll, relAll);
}

void
Wave::andi(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, true,
          [](std::uint32_t x, std::uint32_t y) { return x & y; }, imm);
}

void
Wave::xori(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, true,
          [](std::uint32_t x, std::uint32_t y) { return x ^ y; },
          allBits);
}

void
Wave::shli(unsigned dst, unsigned a, unsigned amount)
{
    // Shifts move bits between positions, so positional relevance
    // composition does not apply; record the surviving range.
    immOp(dst, a, amount, false,
          [](std::uint32_t x, std::uint32_t y) { return x << y; },
          static_cast<std::uint32_t>(lowMask(32 - amount)));
}

void
Wave::shri(unsigned dst, unsigned a, unsigned amount)
{
    immOp(dst, a, amount, false,
          [](std::uint32_t x, std::uint32_t y) { return x >> y; },
          static_cast<std::uint32_t>(lowMask(32 - amount)) << amount);
}

void
Wave::cmpLtu(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) {
                 return std::uint32_t(x < y);
             },
             relAll, relAll);
}

void
Wave::cmpLtui(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) {
              return std::uint32_t(x < y);
          },
          allBits);
}

void
Wave::cmpEqi(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) {
              return std::uint32_t(x == y);
          },
          allBits);
}

void
Wave::select(unsigned dst, unsigned pred, unsigned a, unsigned b)
{
    checkReg(dst);
    checkReg(pred);
    checkReg(a);
    checkReg(b);
    const bool tracking = gpu_.tracking();
    forEachLane(beginInstr(), [&](unsigned lane) {
        const Value vp = rf_.get(slot_, pred, lane);
        const bool taken_a = vp.bits != 0;
        const Value vt = rf_.get(slot_, taken_a ? a : b, lane);
        Value out{vt.bits, noDef};
        if (tracking) {
            std::array<SrcUse, 2> srcs{
                SrcUse{vp.def, allBits, false},
                SrcUse{vt.def, allBits, false}};
            out.def = gpu_.dataflow().record(srcs, tag_);
            noteRead(lane, pred, allBits, out.def, false);
            // The taken operand is consumed; the untaken one is
            // still read out of the array (a pure read — logic
            // masking).
            noteRead(lane, taken_a ? a : b, allBits, out.def, false);
            noteRead(lane, taken_a ? b : a, 0, noDef, false);
        }
        writeReg(lane, dst, out);
    });
    time_ += gpu_.config().aluCycles;
}

void
Wave::load(unsigned dst, unsigned addr, std::uint32_t offset)
{
    checkReg(dst);
    checkReg(addr);
    MainMemory &mem = gpu_.mem();
    const bool tracking = gpu_.tracking();
    Cycle done = time_ + gpu_.config().aluCycles;
    forEachLane(beginInstr(), [&](unsigned lane) {
        const Value va = rf_.get(slot_, addr, lane);
        const Addr ea = dataAddr(va.bits + offset);

        Value out{mem.read32(ea), noDef};
        if (tracking) {
            // Sources: the producing defs of the four bytes, with
            // positional relevance; bit-exact only when fully aligned
            // with the producing value's byte lanes.
            std::array<SrcUse, DataflowLog::maxSrcs> srcs;
            unsigned nsrcs = 0;
            bool aligned = true;
            for (unsigned i = 0; i < 4; ++i) {
                ByteOrigin origin = mem.origin(ea + i);
                if (origin.def == noDef)
                    continue;
                if (origin.byteIdx != i)
                    aligned = false;
                std::uint32_t rel = 0xFFu << (8 * origin.byteIdx);
                unsigned s = 0;
                for (; s < nsrcs; ++s) {
                    if (srcs[s].def == origin.def) {
                        srcs[s].relevance |= rel;
                        break;
                    }
                }
                if (s == nsrcs && nsrcs < DataflowLog::maxSrcs)
                    srcs[nsrcs++] = {origin.def, rel, true};
            }
            if (!aligned) {
                for (unsigned s = 0; s < nsrcs; ++s)
                    srcs[s].positional = false;
            }
            // The address chain is live iff the load itself is.
            if (nsrcs < DataflowLog::maxSrcs)
                srcs[nsrcs++] = {va.def, allBits, false};
            out.def = gpu_.dataflow().record(
                std::span<const SrcUse>(srcs.data(), nsrcs), tag_);
            gpu_.refIndex().addLoad(ea, 4, laneTime(lane), out.def);
            // Address consumption: dead iff the load itself is dead.
            noteRead(lane, addr, allBits, out.def, false);
        }

        MemRequest req{ea, 4, MemCmd::Read, out.def};
        done = std::max(done, l1_.access(req, laneTime(lane)));
        writeReg(lane, dst, out);
    });
    time_ = done;
}

void
Wave::store(unsigned addr, unsigned src, std::uint32_t offset)
{
    storeImpl(addr, src, offset, false);
}

void
Wave::storeOut(unsigned addr, unsigned src, std::uint32_t offset)
{
    storeImpl(addr, src, offset, true);
}

void
Wave::storeImpl(unsigned addr, unsigned src, std::uint32_t offset,
                bool output)
{
    checkReg(addr);
    checkReg(src);
    MainMemory &mem = gpu_.mem();
    const bool tracking = gpu_.tracking();
    Cycle done = time_ + gpu_.config().aluCycles;
    forEachLane(beginInstr(), [&](unsigned lane) {
        const Value va = rf_.get(slot_, addr, lane);
        const Value vs = rf_.get(slot_, src, lane);
        const Addr ea = dataAddr(va.bits + offset);

        DefId store_def = noDef;
        if (tracking) {
            std::array<SrcUse, 1> srcs{SrcUse{vs.def, allBits, true}};
            store_def = gpu_.dataflow().record(srcs, tag_);
            if (output)
                gpu_.dataflow().markOutput(store_def);
            gpu_.refIndex().addStore(ea, 4, laneTime(lane));
            // A corrupt store address clobbers arbitrary state: the
            // whole address chain is conservatively live.
            std::array<SrcUse, 1> asrc{SrcUse{va.def, allBits, false}};
            DefId anchor = gpu_.dataflow().record(asrc);
            gpu_.dataflow().markOutput(anchor);
            noteRead(lane, addr, allBits, noDef, false);
            noteRead(lane, src, allBits, store_def, true);
        }

        MemRequest req{ea, 4, MemCmd::Write, noDef, tag_};
        done = std::max(done, l1_.access(req, laneTime(lane)));
        mem.write32(ea, vs.bits);
        mem.setOrigin(ea, 4, store_def);
    });
    time_ = done;
}

void
Wave::pushExecNonzero(unsigned cond)
{
    pushExec(cond, true);
}

void
Wave::pushExecZero(unsigned cond)
{
    pushExec(cond, false);
}

void
Wave::pushExec(unsigned cond, bool nonzero)
{
    checkReg(cond);
    const bool tracking = gpu_.tracking();
    std::uint64_t mask = 0;
    forEachLane(beginInstr(), [&](unsigned lane) {
        const Value vc = rf_.get(slot_, cond, lane);
        if (tracking) {
            // Control consumption is conservatively always live:
            // anchor the condition's whole producing chain.
            std::array<SrcUse, 1> csrc{SrcUse{vc.def, allBits, false}};
            DefId anchor = gpu_.dataflow().record(csrc);
            gpu_.dataflow().markOutput(anchor);
            noteRead(lane, cond, allBits, noDef, false);
        }
        if ((vc.bits != 0) == nonzero)
            mask |= std::uint64_t(1) << lane;
    });
    execStack_.push_back(mask);
    time_ += gpu_.config().aluCycles;
}

void
Wave::popExec()
{
    if (execStack_.size() <= 1)
        simTrap(trapcode::gpuDivStack,
                "popExec with empty divergence stack");
    execStack_.pop_back();
}

bool
Wave::anyActive() const
{
    return execStack_.back() != 0;
}

std::uint32_t
Wave::peek(unsigned reg, unsigned lane) const
{
    return rf_.get(slot_, reg, lane).bits;
}

} // namespace mbavf

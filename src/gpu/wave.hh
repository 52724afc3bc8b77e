/**
 * @file
 * Wavefront execution context and operation DSL.
 *
 * Kernels are C++ functions that receive a Wave and issue SIMT
 * operations on explicit vector registers (indices into the CU's
 * VGPR). Every operation executes functionally across the active
 * lanes, records the register/memory/dataflow events the ACE analysis
 * consumes, and advances the timing model (one wave instruction = 4
 * cycles, 16 lanes per cycle; memory operations coalesce per
 * quarter-wave into line requests against the CU's L1).
 *
 * Logic masking is value-aware where it is cheap and sound: AND/OR
 * record the other operand's current bits as the use's relevance,
 * shifts record the surviving bit range, and select() records only
 * the taken operand. Divergence uses an explicit structured exec-mask
 * stack (pushExecNonzero / pushExecZero / popExec), so injected
 * faults in condition registers genuinely change control flow.
 */

#ifndef MBAVF_GPU_WAVE_HH
#define MBAVF_GPU_WAVE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "gpu/value.hh"

namespace mbavf
{

class Cache;
class Gpu;
class VectorRegFile;

/** One executing wavefront. */
class Wave
{
  public:
    /**
     * @param gpu     owning device
     * @param cu      compute unit index
     * @param slot    wave slot within the CU (VGPR window)
     * @param wave_id global wavefront index
     */
    Wave(Gpu &gpu, unsigned cu, unsigned slot, unsigned wave_id);

    unsigned laneCount() const { return lanes_; }
    unsigned waveId() const { return waveId_; }
    unsigned cu() const { return cu_; }
    unsigned slot() const { return slot_; }

    /** Completion time of everything issued so far. */
    Cycle endTime() const { return time_; }

    /// @name Immediate / identity moves
    /// @{
    /** dst = imm in every active lane. */
    void movi(unsigned dst, std::uint32_t imm);
    /** dst = global work-item id (waveId * laneCount + lane). */
    void globalId(unsigned dst);
    /** dst = lane index within the wavefront. */
    void laneIdx(unsigned dst);
    /** dst = src. */
    void mov(unsigned dst, unsigned src);
    /// @}

    /// @name Integer arithmetic (two-register and immediate forms)
    /// @{
    void add(unsigned dst, unsigned a, unsigned b);
    void sub(unsigned dst, unsigned a, unsigned b);
    void mul(unsigned dst, unsigned a, unsigned b);
    /** dst = a * b + c (multiply-accumulate). */
    void mad(unsigned dst, unsigned a, unsigned b, unsigned c);
    void addi(unsigned dst, unsigned a, std::uint32_t imm);
    void subi(unsigned dst, unsigned a, std::uint32_t imm);
    void muli(unsigned dst, unsigned a, std::uint32_t imm);
    void mini(unsigned dst, unsigned a, std::uint32_t imm);
    void minu(unsigned dst, unsigned a, unsigned b);
    void maxu(unsigned dst, unsigned a, unsigned b);
    /** dst = b ? a / b : 0 (unsigned). */
    void divu(unsigned dst, unsigned a, unsigned b);
    /// @}

    /// @name Bitwise logic and shifts
    /// @{
    void and_(unsigned dst, unsigned a, unsigned b);
    void or_(unsigned dst, unsigned a, unsigned b);
    void xor_(unsigned dst, unsigned a, unsigned b);
    void andi(unsigned dst, unsigned a, std::uint32_t imm);
    void ori(unsigned dst, unsigned a, std::uint32_t imm);
    void xori(unsigned dst, unsigned a, std::uint32_t imm);
    void shli(unsigned dst, unsigned a, unsigned amount);
    void shri(unsigned dst, unsigned a, unsigned amount);
    /// @}

    /// @name Comparisons and selection
    /// @{
    /** dst = (a < b) ? 1 : 0, unsigned compare. */
    void cmpLtu(unsigned dst, unsigned a, unsigned b);
    void cmpLtui(unsigned dst, unsigned a, std::uint32_t imm);
    void cmpEq(unsigned dst, unsigned a, unsigned b);
    void cmpEqi(unsigned dst, unsigned a, std::uint32_t imm);
    /** dst = pred != 0 ? a : b; only the taken operand is consumed. */
    void select(unsigned dst, unsigned pred, unsigned a, unsigned b);
    /// @}

    /// @name Memory (4-byte, addresses in registers)
    /// @{
    /** dst = mem[a + offset] per lane (gather). */
    void load(unsigned dst, unsigned addr, std::uint32_t offset = 0);
    /** mem[a + offset] = src per lane (scatter). */
    void store(unsigned addr, unsigned src, std::uint32_t offset = 0);
    /**
     * Store that is program output: the stored value is marked as
     * reaching output in the dataflow trace.
     */
    void storeOut(unsigned addr, unsigned src, std::uint32_t offset = 0);
    /// @}

    /// @name Structured divergence
    /// @{
    /** Push exec &= (cond != 0). */
    void pushExecNonzero(unsigned cond);
    /** Push exec &= (cond == 0). */
    void pushExecZero(unsigned cond);
    void popExec();
    /** True when any lane is active. */
    bool anyActive() const;
    /// @}

    /// @name Host-visible helpers (no events, for kernel control)
    /// @{
    /** Raw bits of a register in one lane (no read event). */
    std::uint32_t peek(unsigned reg, unsigned lane) const;
    /// @}

  private:
    Cycle
    laneTime(unsigned lane) const
    {
        return time_ + lane / quarterWave_;
    }

    /**
     * Start one instruction: charge it to the device (injections,
     * sampling, watchdog), fix its attribution tag, and return the
     * active-lane mask the lane loop walks. Everything that is
     * constant across the lanes of an instruction is computed here,
     * once, rather than per lane.
     */
    std::uint64_t beginInstr();

    /** Generic two-register ALU op; @p fn computes, @p rel_a and
     *  @p rel_b give each operand's relevance from (own, other). */
    template <class Fn, class RelA, class RelB>
    void binaryOp(unsigned dst, unsigned a, unsigned b, bool bitwise,
                  Fn fn, RelA rel_a, RelB rel_b);

    /** Generic register-immediate ALU op. */
    template <class Fn>
    void immOp(unsigned dst, unsigned a, std::uint32_t imm,
               bool bitwise, Fn fn, std::uint32_t relevance);

    /** dst = value(lane) with no register sources. */
    template <class ValueFn>
    void sourceOp(unsigned dst, ValueFn value);

    /** store()/storeOut(); @p output marks the stored value live. */
    void storeImpl(unsigned addr, unsigned src, std::uint32_t offset,
                   bool output);

    /** pushExecNonzero()/pushExecZero(). */
    void pushExec(unsigned cond, bool nonzero);

    /**
     * Clamp an effective address into simulated memory (word
     * aligned). Golden addresses are always in range; this keeps
     * fault-injection runs with corrupted address registers
     * deterministic instead of out-of-bounds.
     */
    Addr dataAddr(std::uint64_t ea) const;

    /** Record a read event of @p reg in @p lane (tracking only). */
    void noteRead(unsigned lane, unsigned reg, std::uint32_t consume,
                  DefId def, bool exact);

    void writeReg(unsigned lane, unsigned reg, const Value &value);

    void checkReg(unsigned reg) const;

    Gpu &gpu_;
    VectorRegFile &rf_; ///< this CU's register file
    Cache &l1_;         ///< this CU's L1
    unsigned cu_;
    unsigned slot_;
    unsigned waveId_;
    unsigned lanes_;       ///< wavefront size
    unsigned quarterWave_; ///< lanes issued per cycle
    std::vector<std::uint64_t> execStack_;
    Cycle time_; ///< wave-local time on the shared clock
    unsigned pc_ = 0; ///< wave-local operation issue index
    /**
     * Attribution tag of the instruction in flight: the launch's
     * kernel id paired with the wave-local pc (identical across the
     * waves of one launch). noInstrTag when tagging is disabled.
     */
    InstrTag tag_ = noInstrTag;
};

} // namespace mbavf

#endif // MBAVF_GPU_WAVE_HH

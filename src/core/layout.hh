/**
 * @file
 * Physical SRAM array layouts and bit-interleaving styles.
 *
 * A layout maps a physical bit position (row = wordline, col = column)
 * to (a) the *container* + bit offset whose ACE lifetime describes the
 * cell, and (b) the *protection domain* the cell's data belongs to.
 * Spatial multi-bit fault modes are geometric patterns over physical
 * positions, so the layout is what determines which logical data a
 * given particle strike corrupts — the essence of interleaving.
 */

#ifndef MBAVF_CORE_LAYOUT_HH
#define MBAVF_CORE_LAYOUT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hh"

namespace mbavf
{

/** Resolution of one physical bit position. */
struct PhysBit
{
    /** Lifetime container (cache line id, physical register id). */
    std::uint64_t container = 0;
    /** Bit offset within the container. */
    std::uint32_t bitInContainer = 0;
    /** Protection word the bit's data belongs to. */
    DomainId domain = invalidDomain;
};

/**
 * Abstract physical bit array: a rows x cols grid of SRAM cells.
 * Fault groups are placements of a fault mode's pattern on this grid.
 */
class PhysicalArray
{
  public:
    virtual ~PhysicalArray() = default;

    virtual std::uint64_t rows() const = 0;
    virtual std::uint64_t cols() const = 0;
    virtual PhysBit at(std::uint64_t row, std::uint64_t col) const = 0;

    /** Total bits in the array. */
    std::uint64_t totalBits() const { return rows() * cols(); }
};

/** Interleaving style of a cache data array (paper Section VI-B). */
enum class CacheInterleave
{
    /**
     * Logical: each line is split into I check words; physically
     * adjacent bits belong to different check words of the *same*
     * line.
     */
    Logical,
    /**
     * Way-physical: physically adjacent bits belong to lines in
     * different ways of the same set.
     */
    WayPhysical,
    /**
     * Index-physical: physically adjacent bits belong to lines at
     * adjacent set indices (same way).
     */
    IndexPhysical,
};

/** Interleaving style of a vector register file (Section VIII). */
enum class RegInterleave
{
    /** Adjacent bits come from different registers of one thread. */
    IntraThread,
    /** Adjacent bits come from the same register of different threads. */
    InterThread,
};

/** Geometry of a cache data array. */
struct CacheGeometry
{
    unsigned sets = 64;
    unsigned ways = 4;
    unsigned lineBytes = 64;

    unsigned lineBits() const { return lineBytes * 8; }
    unsigned numLines() const { return sets * ways; }

    /** Container id of a line; containers are set-major. */
    std::uint64_t
    lineId(unsigned set, unsigned way) const
    {
        return std::uint64_t(set) * ways + way;
    }
};

/** Geometry of a vector register file. */
struct RegFileGeometry
{
    unsigned numRegs = 32;   ///< architectural registers per lane
    unsigned numLanes = 64;  ///< lanes (threads) per wavefront slot
    unsigned numSlots = 4;   ///< concurrent wavefront slots
    unsigned regBits = 32;

    std::uint64_t
    numContainers() const
    {
        return std::uint64_t(numSlots) * numRegs * numLanes;
    }

    /** Container id of one 32-bit register instance. */
    std::uint64_t
    regId(unsigned slot, unsigned reg, unsigned lane) const
    {
        return (std::uint64_t(slot) * numRegs + reg) * numLanes + lane;
    }
};

/**
 * Build the physical array of a cache data array under the given
 * interleaving style and factor. The protection domain is the cache
 * line (one parity/ECC word per line, matching the paper's overlap
 * arithmetic); under Logical interleaving each line carries
 * @p interleave check words, so domains are line sub-words.
 *
 * @param geom        cache geometry
 * @param style       interleaving style
 * @param interleave  interleave factor I (1 = none; way/index styles
 *                    require I to divide ways/sets respectively)
 */
std::unique_ptr<PhysicalArray>
makeCacheArray(const CacheGeometry &geom, CacheInterleave style,
               unsigned interleave);

/**
 * Build the physical array of a vector register file. Each 32-bit
 * register is its own protection domain (per the paper's case study).
 *
 * @param geom        register file geometry
 * @param style       intra- vs inter-thread interleaving
 * @param interleave  interleave factor I (1 = none)
 */
std::unique_ptr<PhysicalArray>
makeRegFileArray(const RegFileGeometry &geom, RegInterleave style,
                 unsigned interleave);

/** Parse "logical" | "way" | "index"; nullopt on any other name. */
std::optional<CacheInterleave>
tryParseCacheInterleave(const std::string &name);

/** tryParseCacheInterleave(), fatal on an unknown name. */
CacheInterleave parseCacheInterleave(const std::string &name);

/** Short display name of a cache interleaving style. */
std::string cacheInterleaveName(CacheInterleave style);

} // namespace mbavf

#endif // MBAVF_CORE_LAYOUT_HH

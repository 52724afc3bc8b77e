#include "core/layout.hh"

#include "common/logging.hh"

namespace mbavf
{

namespace
{

/**
 * Cache data array, logical interleaving: one physical row per cache
 * line; column c belongs to check word (c mod I) of that line.
 */
class LogicalCacheArray : public PhysicalArray
{
  public:
    LogicalCacheArray(const CacheGeometry &geom, unsigned interleave)
        : geom_(geom), ileave_(interleave)
    {}

    std::uint64_t rows() const override { return geom_.numLines(); }
    std::uint64_t cols() const override { return geom_.lineBits(); }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        PhysBit b;
        b.container = row;
        b.bitInContainer = static_cast<std::uint32_t>(col);
        b.domain = row * ileave_ + (col % ileave_);
        return b;
    }

  private:
    CacheGeometry geom_;
    unsigned ileave_;
};

/**
 * Cache data array, way-physical interleaving: a physical row holds I
 * lines from different ways of the same set, bit-interleaved.
 */
class WayPhysicalCacheArray : public PhysicalArray
{
  public:
    WayPhysicalCacheArray(const CacheGeometry &geom, unsigned interleave)
        : geom_(geom), ileave_(interleave)
    {
        if (geom.ways % interleave != 0) {
            fatal("way-physical interleave ", interleave,
                  " must divide ways ", geom.ways);
        }
    }

    std::uint64_t
    rows() const override
    {
        return std::uint64_t(geom_.sets) * (geom_.ways / ileave_);
    }

    std::uint64_t
    cols() const override
    {
        return std::uint64_t(geom_.lineBits()) * ileave_;
    }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        unsigned way_groups = geom_.ways / ileave_;
        unsigned set = static_cast<unsigned>(row / way_groups);
        unsigned group = static_cast<unsigned>(row % way_groups);
        unsigned way = group * ileave_ +
            static_cast<unsigned>(col % ileave_);
        PhysBit b;
        b.container = geom_.lineId(set, way);
        b.bitInContainer = static_cast<std::uint32_t>(col / ileave_);
        b.domain = b.container;
        return b;
    }

  private:
    CacheGeometry geom_;
    unsigned ileave_;
};

/**
 * Cache data array, index-physical interleaving: a physical row holds
 * I lines at adjacent set indices (same way), bit-interleaved.
 */
class IndexPhysicalCacheArray : public PhysicalArray
{
  public:
    IndexPhysicalCacheArray(const CacheGeometry &geom,
                            unsigned interleave)
        : geom_(geom), ileave_(interleave)
    {
        if (geom.sets % interleave != 0) {
            fatal("index-physical interleave ", interleave,
                  " must divide sets ", geom.sets);
        }
    }

    std::uint64_t
    rows() const override
    {
        return std::uint64_t(geom_.sets / ileave_) * geom_.ways;
    }

    std::uint64_t
    cols() const override
    {
        return std::uint64_t(geom_.lineBits()) * ileave_;
    }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        unsigned set_group = static_cast<unsigned>(row / geom_.ways);
        unsigned way = static_cast<unsigned>(row % geom_.ways);
        unsigned set = set_group * ileave_ +
            static_cast<unsigned>(col % ileave_);
        PhysBit b;
        b.container = geom_.lineId(set, way);
        b.bitInContainer = static_cast<std::uint32_t>(col / ileave_);
        b.domain = b.container;
        return b;
    }

  private:
    CacheGeometry geom_;
    unsigned ileave_;
};

/** Vector register file array for both interleaving styles. */
class RegFileArray : public PhysicalArray
{
  public:
    RegFileArray(const RegFileGeometry &geom, RegInterleave style,
                 unsigned interleave)
        : geom_(geom), style_(style), ileave_(interleave)
    {
        if (style == RegInterleave::IntraThread &&
            geom.numRegs % interleave != 0) {
            fatal("intra-thread interleave ", interleave,
                  " must divide registers ", geom.numRegs);
        }
        if (style == RegInterleave::InterThread &&
            geom.numLanes % interleave != 0) {
            fatal("inter-thread interleave ", interleave,
                  " must divide lanes ", geom.numLanes);
        }
    }

    std::uint64_t
    rows() const override
    {
        return geom_.numContainers() / ileave_;
    }

    std::uint64_t
    cols() const override
    {
        return std::uint64_t(geom_.regBits) * ileave_;
    }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        unsigned slot, reg, lane;
        unsigned pick = static_cast<unsigned>(col % ileave_);
        if (style_ == RegInterleave::IntraThread) {
            // Row order: slot-major, then lane, then register group.
            unsigned reg_groups = geom_.numRegs / ileave_;
            std::uint64_t per_slot =
                std::uint64_t(geom_.numLanes) * reg_groups;
            slot = static_cast<unsigned>(row / per_slot);
            std::uint64_t rem = row % per_slot;
            lane = static_cast<unsigned>(rem / reg_groups);
            unsigned group = static_cast<unsigned>(rem % reg_groups);
            reg = group * ileave_ + pick;
        } else {
            // Row order: slot-major, then register, then lane group.
            unsigned lane_groups = geom_.numLanes / ileave_;
            std::uint64_t per_slot =
                std::uint64_t(geom_.numRegs) * lane_groups;
            slot = static_cast<unsigned>(row / per_slot);
            std::uint64_t rem = row % per_slot;
            reg = static_cast<unsigned>(rem / lane_groups);
            unsigned group = static_cast<unsigned>(rem % lane_groups);
            lane = group * ileave_ + pick;
        }
        PhysBit b;
        b.container = geom_.regId(slot, reg, lane);
        b.bitInContainer = static_cast<std::uint32_t>(col / ileave_);
        b.domain = b.container;
        return b;
    }

  private:
    RegFileGeometry geom_;
    RegInterleave style_;
    unsigned ileave_;
};

} // namespace

std::unique_ptr<PhysicalArray>
makeCacheArray(const CacheGeometry &geom, CacheInterleave style,
               unsigned interleave)
{
    if (interleave == 0)
        fatal("interleave factor must be >= 1");
    switch (style) {
      case CacheInterleave::Logical:
        return std::make_unique<LogicalCacheArray>(geom, interleave);
      case CacheInterleave::WayPhysical:
        if (interleave == 1)
            return std::make_unique<LogicalCacheArray>(geom, 1);
        return std::make_unique<WayPhysicalCacheArray>(geom, interleave);
      case CacheInterleave::IndexPhysical:
        if (interleave == 1)
            return std::make_unique<LogicalCacheArray>(geom, 1);
        return std::make_unique<IndexPhysicalCacheArray>(geom,
                                                         interleave);
    }
    panic("unreachable cache interleave style");
}

std::unique_ptr<PhysicalArray>
makeRegFileArray(const RegFileGeometry &geom, RegInterleave style,
                 unsigned interleave)
{
    if (interleave == 0)
        fatal("interleave factor must be >= 1");
    return std::make_unique<RegFileArray>(geom, style, interleave);
}

std::optional<CacheInterleave>
tryParseCacheInterleave(const std::string &name)
{
    if (name == "logical")
        return CacheInterleave::Logical;
    if (name == "way")
        return CacheInterleave::WayPhysical;
    if (name == "index")
        return CacheInterleave::IndexPhysical;
    return std::nullopt;
}

CacheInterleave
parseCacheInterleave(const std::string &name)
{
    if (const auto style = tryParseCacheInterleave(name))
        return *style;
    fatal("unknown cache interleave style '", name, "'");
}

std::string
cacheInterleaveName(CacheInterleave style)
{
    switch (style) {
      case CacheInterleave::Logical: return "logical";
      case CacheInterleave::WayPhysical: return "way-phys";
      case CacheInterleave::IndexPhysical: return "index-phys";
    }
    return "?";
}

} // namespace mbavf

#include "gpu/regfile.hh"

namespace mbavf
{

VectorRegFile::VectorRegFile(const RegFileGeometry &geom)
    : geom_(geom), values_(geom.numContainers())
{
}

void
VectorRegFile::noteRead(unsigned slot, unsigned reg, unsigned lane,
                        Cycle t, std::uint32_t consume_mask, DefId def,
                        bool exact)
{
    ++reads_;
    if (listener_) {
        listener_->onRegRead(geom_.regId(slot, reg, lane), t,
                             consume_mask, def, exact);
    }
}

void
VectorRegFile::flipBits(unsigned slot, unsigned reg, unsigned lane,
                        std::uint32_t mask)
{
    values_[geom_.regId(slot, reg, lane)].bits ^= mask;
}

} // namespace mbavf

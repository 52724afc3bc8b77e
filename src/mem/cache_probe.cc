#include "mem/cache_probe.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/check.hh"
#include "common/logging.hh"

namespace mbavf
{

CacheAvfProbe::CacheAvfProbe(const CacheGeometry &geom,
                             const MemRefIndex &ref_index)
    : geom_(geom), refIndex_(ref_index),
      slots_(std::size_t(geom.sets) * geom.ways)
{
}

CacheAvfProbe::SlotLog &
CacheAvfProbe::slot(unsigned set, unsigned way)
{
    MBAVF_CHECK(set < geom_.sets && way < geom_.ways, "slot (", set,
                ", ", way, ") outside the probe geometry");
    SlotLog &s = slots_[std::size_t(set) * geom_.ways + way];
    if (!s.touched) {
        s.bytes.resize(geom_.lineBytes);
        s.touched = true;
    }
    return s;
}

void
CacheAvfProbe::onFill(unsigned set, unsigned way, Addr, Cycle t)
{
    slot(set, way).fills.push_back(t);
}

void
CacheAvfProbe::onRead(unsigned set, unsigned way, Addr addr,
                      unsigned size, Cycle t, DefId def)
{
    SlotLog &s = slot(set, way);
    s.lineReads.push_back(t);
    unsigned offset = static_cast<unsigned>(addr % geom_.lineBytes);
    MBAVF_CHECK(size > 0 && offset + size <= geom_.lineBytes,
                "read of ", size, " byte(s) at line offset ", offset,
                " spills past the line");
    for (unsigned i = 0; i < size; ++i) {
        ByteAccess access{t, false, def,
                          static_cast<std::uint8_t>(8 * i), false, 0};
        if (def == noDef && resolveReadsViaRefIndex_) {
            // A fill from the level above: the data's consumption is
            // the program's next reference to the byte.
            access.resolveFuture = true;
            access.addr = addr + i;
        }
        s.bytes[offset + i].push_back(access);
    }
}

void
CacheAvfProbe::onWrite(unsigned set, unsigned way, Addr addr,
                       unsigned size, Cycle t, InstrTag tag)
{
    SlotLog &s = slot(set, way);
    // A write into the array is also an access that reads the line
    // out for the read-modify-write of its check bits; model it as a
    // pure overwrite of the written bytes (see DESIGN.md).
    unsigned offset = static_cast<unsigned>(addr % geom_.lineBytes);
    MBAVF_CHECK(size > 0 && offset + size <= geom_.lineBytes,
                "write of ", size, " byte(s) at line offset ", offset,
                " spills past the line");
    for (unsigned i = 0; i < size; ++i)
        s.bytes[offset + i].push_back({t, true, noDef, 0, false, 0,
                                       tag});
}

void
CacheAvfProbe::onEvict(unsigned set, unsigned way, Addr line_addr,
                       std::uint64_t dirty_bytes, Cycle t)
{
    slot(set, way).evicts.push_back({t, line_addr, dirty_bytes});
}

LifetimeStore
CacheAvfProbe::finalize(Cycle horizon, const LivenessResolver &live) const
{
    LifetimeStore store(8, geom_.lineBytes);

    // A byte's events go in (time, Prio, insertion) order, where
    // the slot's line-level fills and reads come before the byte's
    // own write-back reads and accesses: the order a stable sort of
    // that concatenation by (time, Prio) gives. The line-level events
    // are sorted once per slot, the byte's own once per byte, and the
    // two merged, line-level first among equal keys. The buffers are
    // reused across all bytes and slots.
    struct Tagged
    {
        Prio prio;
        std::uint32_t order; ///< insertion index within its list
        WordEvent event;
    };
    auto before = [](const Tagged &a, const Tagged &b) {
        return a.event.time != b.event.time
                   ? a.event.time < b.event.time
                   : a.prio < b.prio;
    };
    auto sortEvents = [&before](std::vector<Tagged> &v) {
        std::sort(v.begin(), v.end(),
                  [&before](const Tagged &a, const Tagged &b) {
                      return before(a, b) ||
                             (!before(b, a) && a.order < b.order);
                  });
    };
    auto add = [](std::vector<Tagged> &v, Prio prio,
                  const WordEvent &ev) {
        v.push_back({prio, static_cast<std::uint32_t>(v.size()), ev});
    };
    std::vector<Tagged> line_events;
    std::vector<Tagged> own;
    WordEventLog log;

    for (std::size_t idx = 0; idx < slots_.size(); ++idx) {
        const SlotLog &s = slots_[idx];
        if (!s.touched)
            continue;
        ContainerLifetime &life = store.container(idx);

        line_events.clear();
        for (Cycle t : s.fills) {
            add(line_events, Prio::Fill,
                {t, WordEvent::Kind::Write, 0xFF, noDef, false, 0});
        }
        for (Cycle t : s.lineReads) {
            add(line_events, Prio::Access,
                {t, WordEvent::Kind::Read, 0, noDef, false, 0});
        }
        sortEvents(line_events);

        for (unsigned b = 0; b < geom_.lineBytes; ++b) {
            own.clear();
            for (const Evict &e : s.evicts) {
                if (!e.dirtyBytes)
                    continue; // clean: data dropped, never read out
                // Write-back reads the whole line; the fate of byte b
                // is its next program-level reference.
                WordEvent ev{e.time, WordEvent::Kind::Read, 0, noDef,
                             false, 0};
                const ByteRef *ref =
                    refIndex_.firstAfter(e.lineAddr + b, e.time);
                if (ref && ref->isLoad) {
                    ev.mask = 0xFF;
                    ev.def = ref->def;
                    ev.exact = true;
                    ev.relShift = ref->relShift;
                }
                add(own, Prio::EvictRead, ev);
            }
            for (const ByteAccess &a : s.bytes[b]) {
                WordEvent ev;
                if (a.isWrite) {
                    ev = {a.time, WordEvent::Kind::Write, 0xFF, noDef,
                          false, 0, a.tag};
                } else if (a.resolveFuture) {
                    ev = {a.time, WordEvent::Kind::Read, 0, noDef,
                          false, 0};
                    const ByteRef *ref =
                        refIndex_.firstAfter(a.addr, a.time);
                    if (ref && ref->isLoad) {
                        ev.mask = 0xFF;
                        ev.def = ref->def;
                        ev.exact = true;
                        ev.relShift = ref->relShift;
                    }
                } else {
                    ev = {a.time, WordEvent::Kind::Read, 0xFF, a.def,
                          true, a.relShift};
                }
                add(own, Prio::Access, ev);
            }
            sortEvents(own);

            log.events.clear();
            auto l = line_events.begin();
            auto o = own.begin();
            while (l != line_events.end() || o != own.end()) {
                const bool take_own =
                    l == line_events.end() ||
                    (o != own.end() && before(*o, *l));
                log.events.push_back((take_own ? o++ : l++)->event);
            }
            life.words[b] = buildWordLifetime(log, horizon, 8, live);
        }
    }
    return store;
}

} // namespace mbavf

/**
 * @file
 * Persistent binary format for LifetimeArenas ("build once, sweep
 * many").
 *
 * Snapshotting a large LifetimeStore into the flat arena is itself a
 * memory-bound pass; a design sweep that re-analyzes one simulation
 * under many schemes and layouts pays it on every run. saveArena()
 * writes the arena's columns verbatim into a versioned, 64-byte
 * aligned, little-endian file (format: DESIGN.md Section 13) and
 * tryLoadArena() maps it back read-only — the loaded arena aliases the
 * mapping, so load time and memory are O(1) in the segment count and
 * a mapped arena is indistinguishable from a built one to the sweep
 * kernels (bit-identical results at any thread count).
 *
 * Writes are atomic: the image is assembled at <path>.tmp and
 * renamed over the destination, so readers never observe a torn
 * file. Loading validates the header, the section layout (with
 * overflow-checked arithmetic against the actual file size), every
 * cross-array index, that the words' segment ranges tile the segment
 * columns, and that each word's segment chain is sorted, before the
 * arena is handed out; anything suspect is rejected whole, so every
 * file that loads also passes lintArenaStructure(). Arena-vs-store
 * staleness remains the job of `mbavf_lint --arena`.
 *
 * Format version 2 appends a per-segment InstrTag attribution column
 * after the handle table; version-1 files still load, yielding an
 * untagged arena (LifetimeArena::tags() == nullptr). All version-1
 * section offsets are unchanged.
 */

#ifndef MBAVF_CORE_ARENA_IO_HH
#define MBAVF_CORE_ARENA_IO_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hh"
#include "core/lifetime.hh"
#include "core/lifetime_arena.hh"

namespace mbavf
{

/**
 * Write @p arena to @p path atomically; the only arena writer.
 * @p horizon records the measurement horizon the producer was
 * configured with (0 = none); consumers may use it as their default
 * sweep horizon.
 */
void saveArena(const LifetimeArena &arena, const std::string &path,
               Cycle horizon = 0);

/**
 * Map the arena file at @p path read-only. Returns nullopt and sets
 * @p error on any structural problem — bad magic or version, foreign
 * byte order, a section layout that disagrees with the file size,
 * an out-of-range cross-array index, or segment ranges that leave a
 * word empty, gap or overlap, or run unsorted. When @p horizon is
 * non-null it receives the stored producer horizon.
 *
 * The returned arena aliases the file mapping (malloc fallback when
 * mmap is unavailable); copies share it refcounted.
 */
std::optional<LifetimeArena> tryLoadArena(const std::string &path,
                                          std::string &error,
                                          Cycle *horizon = nullptr);

/**
 * Save @p store's arena to @p path: exactly
 * saveArena(LifetimeArena(store), path, horizon), for callers that
 * hold only the store.
 */
void streamArenaFromStore(const LifetimeStore &store,
                          const std::string &path, Cycle horizon = 0);

} // namespace mbavf

#endif // MBAVF_CORE_ARENA_IO_HH

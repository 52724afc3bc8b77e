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
 * overflow-checked arithmetic against the actual file size), and
 * every cross-array index before the arena is handed out; anything
 * suspect is rejected whole. Deeper semantic checks — segment
 * ordering, arena-vs-store staleness — remain the job of
 * `mbavf_lint --arena`.
 *
 * ArenaStreamWriter produces the identical bytes without ever
 * holding the segment columns in memory, for stores too large to
 * snapshot: segments stream through temporary spill files and only
 * the per-word and per-container tables stay resident.
 *
 * Format version 2 appends a per-segment InstrTag attribution column
 * after the handle table; version-1 files still load, yielding an
 * untagged arena (LifetimeArena::tags() == nullptr). All version-1
 * section offsets are unchanged.
 */

#ifndef MBAVF_CORE_ARENA_IO_HH
#define MBAVF_CORE_ARENA_IO_HH

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/lifetime.hh"
#include "core/lifetime_arena.hh"

namespace mbavf
{

/**
 * Write @p arena to @p path atomically. @p horizon records the
 * measurement horizon the producer was configured with (0 = none);
 * consumers may use it as their default sweep horizon.
 */
void saveArena(const LifetimeArena &arena, const std::string &path,
               Cycle horizon = 0);

/**
 * Map the arena file at @p path read-only. Returns nullopt and sets
 * @p error on any structural problem — bad magic or version, foreign
 * byte order, a section layout that disagrees with the file size, or
 * an out-of-range cross-array index. When @p horizon is non-null it
 * receives the stored producer horizon.
 *
 * The returned arena aliases the file mapping (malloc fallback when
 * mmap is unavailable); copies share it refcounted.
 */
std::optional<LifetimeArena> tryLoadArena(const std::string &path,
                                          std::string &error,
                                          Cycle *horizon = nullptr);

/**
 * Streaming writer producing byte-identical output to
 * saveArena(LifetimeArena(store), path, horizon) while keeping only
 * O(words) state in memory: segment columns spill to three
 * temporary files next to @p path and are concatenated on finish().
 *
 * Feed containers in strictly ascending id order and words in
 * strictly ascending index order within each container; empty words
 * are simply not added. The writer enforces the well-formed-store
 * shape (word index < wordsPerContainer) and is fatal on violations
 * — malformed stores must go through the in-memory snapshot path.
 */
class ArenaStreamWriter
{
  public:
    ArenaStreamWriter(std::string path, unsigned word_width,
                      unsigned words_per_container, Cycle horizon);

    /** Not copyable: owns spill files keyed to the target path. */
    ArenaStreamWriter(const ArenaStreamWriter &) = delete;
    ArenaStreamWriter &operator=(const ArenaStreamWriter &) = delete;

    ~ArenaStreamWriter();

    /** Open container @p id; ids must strictly ascend. */
    void beginContainer(std::uint64_t id);

    /**
     * Add the non-empty word @p index of the open container with
     * @p num_segments segments; indices must strictly ascend within
     * the container. Adding zero segments is a no-op (the word stays
     * empty, handle noWord).
     */
    void addWord(unsigned index, const LifeSegment *segments,
                 std::size_t num_segments);

    /** Assemble the final file and rename it into place. */
    void finish();

  private:
    std::string path_;
    unsigned wordWidth_;
    unsigned wordsPerContainer_;
    Cycle horizon_;
    bool finished_ = false;

    std::ofstream spill_[4]; ///< segment begin/end/masks/tag columns
    std::uint64_t numSegments_ = 0;

    bool haveContainer_ = false;
    std::uint64_t lastContainer_ = 0;
    std::uint32_t base_ = 0;   ///< open container's handle base
    std::uint32_t nextIndex_ = 0;

    std::vector<std::uint32_t> wordOffset_;
    std::vector<std::uint32_t> wordCount_;
    std::vector<std::uint64_t> wordContainer_;
    std::vector<std::uint32_t> wordIndex_;
    std::vector<std::uint64_t> containerIds_;
    std::vector<std::uint32_t> containerBase_;
    std::vector<std::uint32_t> handles_;
};

/**
 * Stream @p store straight to an arena file without materializing
 * the arena. Byte-identical to saveArena(LifetimeArena(store), ...);
 * fatal if the store is malformed (see ArenaStreamWriter).
 */
void streamArenaFromStore(const LifetimeStore &store,
                          const std::string &path, Cycle horizon = 0);

} // namespace mbavf

#endif // MBAVF_CORE_ARENA_IO_HH

// Stage 1 of the DEW walk: the direct-mapped (MRA) plane, shared by every
// associativity of one block size.
//
// By Property 2 a node's MRA tag is the content of the direct-mapped set it
// represents: the last block that mapped to that set.  Which block mapped
// there last depends only on the block-number stream, never on the
// associativity, so the MRA probe, the level at which a walk stops and the
// A = 1 misses are the same for every associativity pass of a block size.
// One plane per block size therefore serves all of them, and the MRA half of
// the walk runs once instead of once per pass.
//
// run() walks a chunk of block numbers through the plane and leaves, per
// access, exactly the levels whose A-way record the pass must resolve:
//
//  * use_mra_stop on (DEW): an access walks levels 0..depth-1, where depth
//    is its first MRA hit (or the leaf count).  The hit certifies every
//    deeper level, so nothing below it is resolved.  One byte per access.
//  * use_mra_stop off (the ablation): every level is visited; levels whose
//    MRA tag matched are certified hits whose FIFO state is untouched, but
//    they break the wave chain.  A 32-bit miss mask per access.
//
// Accesses that hit the root's MRA tag touch no record at all; run()
// compacts the stream in place down to the others, so stage 2 (the
// per-associativity record walk, basic_dew_pass in dew/simulator.hpp) never
// sees them.
#ifndef DEW_DEW_MRA_STAGE_HPP
#define DEW_DEW_MRA_STAGE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dew::core {

// Stage 1's output for one chunk of one block-number stream.  The views
// alias the stream, the caller's mra_walk_buffer and the stage; they stay
// valid until the next run() over any of them.
struct mra_walks {
    // The accesses that must walk the record arena, in trace order.
    std::span<const std::uint64_t> blocks;
    // use_mra_stop: blocks[k] missed the MRA tag at levels 0..depth[k]-1.
    const std::uint8_t* depth{nullptr};
    // !use_mra_stop: bit l of miss_mask[k] is set iff blocks[k] missed the
    // MRA tag at level l.
    const std::uint32_t* miss_mask{nullptr};

    // Whole-chunk totals (before compaction), the same for every pass.
    std::uint64_t requests{0};
    std::uint64_t node_visits{0}; // MRA probes made = nodes evaluated
    std::uint64_t mra_hits{0};
    std::span<const std::uint64_t> dm_misses; // per level
};

// Per-access scratch of run(), owned by the caller so that a serial sweep
// reuses one buffer across its block sizes.  Only the fields the stage's
// mode needs are sized: depth and live (5 bytes per access) with the MRA
// stop, miss_mask (4 bytes) without it.
struct mra_walk_buffer {
    std::vector<std::uint8_t> depth;
    std::vector<std::uint32_t> miss_mask;
    std::vector<std::uint32_t> live; // survivors of the level walked last

    [[nodiscard]] std::size_t bytes() const noexcept {
        return depth.capacity() +
               (miss_mask.capacity() + live.capacity()) *
                   sizeof(std::uint32_t);
    }
};

class mra_stage {
public:
    // Levels 0..max_level (max_level < 32).
    mra_stage(unsigned max_level, bool use_mra_stop);

    // Walks every block through the plane, counts the direct-mapped misses
    // per level, and compacts `blocks` in place to the accesses that miss
    // the root's MRA tag, recording each one's path in `buffer`.  Throws
    // dew::contract_violation on the all-ones block number (the empty-way
    // sentinel).  With the MRA stop the plane is then untouched; without
    // it the accesses before the sentinel have advanced the plane only, so
    // the caller must discard its passes — or split the chunk at the
    // sentinel first, as basic_dew_simulator does.  At most 2^32 - 1
    // blocks per run.
    [[nodiscard]] mra_walks run(std::span<std::uint64_t> blocks,
                                mra_walk_buffer& buffer);

    // MRA tag of the node for set `index` at `level` (invalid_tag when
    // cold).
    [[nodiscard]] std::uint64_t mra(unsigned level,
                                    std::uint64_t index) const noexcept {
        return plane_[slot(level, index)];
    }
    [[nodiscard]] std::uint64_t& mra(unsigned level,
                                     std::uint64_t index) noexcept {
        return plane_[slot(level, index)];
    }

    // Bytes of the dense plane: 8 per node.
    [[nodiscard]] std::size_t storage_bytes() const noexcept {
        return plane_.size() * sizeof(std::uint64_t);
    }

    // Reset the plane to the cold state.
    void clear();

private:
    // Same implicit layout as dew_tree: level l at [2^l - 1, 2^(l+1) - 1).
    [[nodiscard]] static std::uint64_t slot(unsigned level,
                                            std::uint64_t index) noexcept {
        return (std::uint64_t{1} << level) - 1 + index;
    }

    unsigned max_level_;
    bool use_mra_stop_;
    std::vector<std::uint64_t> plane_; // one MRA tag per node
    std::vector<std::uint64_t> dm_misses_; // last run, per level
};

} // namespace dew::core

#endif // DEW_DEW_MRA_STAGE_HPP

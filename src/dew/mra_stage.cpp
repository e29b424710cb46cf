#include "dew/mra_stage.hpp"

#include <algorithm>
#include <limits>

#include "cache/set_model.hpp" // invalid_tag
#include "common/contracts.hpp"

namespace dew::core {

namespace {

// Checked before the member initializers: the plane size shifts by
// max_level + 1, and the miss mask has one bit per level.
unsigned checked_max_level(unsigned max_level) {
    DEW_EXPECTS(max_level < 32);
    return max_level;
}

} // namespace

mra_stage::mra_stage(unsigned max_level, bool use_mra_stop)
    : max_level_{checked_max_level(max_level)},
      use_mra_stop_{use_mra_stop},
      plane_(slot(max_level + 1, 0), cache::invalid_tag),
      dm_misses_(max_level + 1, 0) {}

void mra_stage::clear() {
    std::fill(plane_.begin(), plane_.end(), cache::invalid_tag);
}

mra_walks mra_stage::run(std::span<std::uint64_t> blocks,
                         mra_walk_buffer& buffer) {
    const std::size_t count = blocks.size();
    const unsigned levels = max_level_ + 1;
    // Survivor lists hold 32-bit positions into the chunk.
    DEW_EXPECTS(count <= std::numeric_limits<std::uint32_t>::max());
    std::fill(dm_misses_.begin(), dm_misses_.end(), 0);
    if (use_mra_stop_) {
        buffer.depth.resize(count);
        buffer.live.resize(count);
    } else {
        buffer.miss_mask.resize(count);
    }
    std::uint64_t* const plane = plane_.data();
    std::uint64_t* const stream = blocks.data();
    std::uint64_t* const missed = dm_misses_.data();
    std::size_t kept = 0;

    // The MRA half of every access, once per block size: dewlint's hot-loop
    // rule keeps allocation and I/O out (the buffers are sized above).
    // dewlint: hot-loop begin mra-stage
    if (use_mra_stop_) {
        // Level by level rather than access by access: a level's MRA tags
        // change only in the order of the accesses that reach it, so each
        // pass over the survivors of the level above, in trace order, is
        // exact — and it has no data-dependent branch, where a per-access
        // walk mispredicts its stop level.
        //
        // Level 0 sees every access, so its MRA tag is the previous block:
        // an access hits it iff it repeats that block.  The others are
        // compacted to the front of the stream.  Nothing is stored in the
        // plane before every block has been checked.
        std::uint64_t previous = plane[0];
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t block = stream[i];
            // The all-ones block number is the empty-way sentinel; a real
            // request can only produce it from the top bytes of the address
            // space at tiny block sizes, and accepting it would corrupt the
            // tree silently.
            DEW_EXPECTS(block != cache::invalid_tag);
            stream[kept] = block;
            kept += block != previous;
            previous = block;
        }
        plane[0] = previous;
        missed[0] = kept;

        // Deeper levels: `live` lists the compacted accesses that missed
        // every level so far.  Storing the block into its set is right
        // either way (a hit stores the tag it found), and each live access
        // records the level it reached; those that miss go on.
        std::uint8_t* const depth = buffer.depth.data();
        std::uint32_t* const live = buffer.live.data();
        std::size_t alive = kept;
        for (std::size_t k = 0; k < kept; ++k) {
            live[k] = static_cast<std::uint32_t>(k);
        }
        for (unsigned level = 1; level < levels && alive != 0; ++level) {
            const std::uint64_t sets_mask = (std::uint64_t{1} << level) - 1;
            std::uint64_t* const row = plane + sets_mask; // level's first slot
            std::size_t next = 0;
            for (std::size_t j = 0; j < alive; ++j) {
                const std::uint32_t k = live[j];
                const std::uint64_t block = stream[k];
                std::uint64_t& tag = row[block & sets_mask];
                const bool hit = tag == block;
                tag = block;
                depth[k] = static_cast<std::uint8_t>(level);
                live[next] = k;
                next += !hit;
            }
            missed[level] = next;
            alive = next;
        }
        for (std::size_t j = 0; j < alive; ++j) {
            depth[live[j]] = static_cast<std::uint8_t>(levels);
        }
    } else {
        std::uint32_t* const mask_out = buffer.miss_mask.data();
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t block = stream[i];
            DEW_EXPECTS(block != cache::invalid_tag);
            std::uint64_t slot = 0;
            std::uint64_t bit = 1;
            std::uint32_t mask = 0;
            for (unsigned level = 0; level < levels;
                 ++level, slot += bit + (block & bit), bit <<= 1) {
                if (plane[slot] != block) {
                    plane[slot] = block;
                    mask |= std::uint32_t{1} << level;
                    ++missed[level];
                }
            }
            stream[kept] = block;
            mask_out[kept] = mask;
            kept += mask != 0;
        }
    }
    // dewlint: hot-loop end mra-stage

    mra_walks out;
    out.blocks = {stream, kept};
    out.requests = count;
    std::uint64_t missed_total = 0;
    for (const std::uint64_t level_misses : dm_misses_) {
        missed_total += level_misses;
    }
    if (use_mra_stop_) {
        out.depth = buffer.depth.data();
        // Each access probes level 0, and every miss above the leaf
        // probes the next level.
        out.node_visits = count + missed_total - missed[max_level_];
    } else {
        out.miss_mask = buffer.miss_mask.data();
        out.node_visits = static_cast<std::uint64_t>(count) * levels;
    }
    // Every probe is a hit or a direct-mapped miss.
    out.mra_hits = out.node_visits - missed_total;
    out.dm_misses = dm_misses_;
    return out;
}

} // namespace dew::core

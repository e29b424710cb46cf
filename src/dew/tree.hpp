// The binomial simulation tree (Property 1, Figure 1 of the paper).
//
// Level l holds 2^l nodes; the node for set index i at level l represents
// the cache set i of the configuration with 2^l sets.  Its two children at
// level l+1 are the sets i and i + 2^l: the index grows by one block-address
// bit per level, so a block's root-to-leaf path is implicit in its address
// and the tree needs no child pointers at all.
//
// Two record stores share that implicit layout, one per instrumentation
// policy of basic_dew_pass (dew/simulator.hpp).  Neither holds the MRA tag:
// it is the same for every associativity, so it lives in the dense plane of
// the shared stage 1 (dew/mra_stage.hpp), which runs once per block size.
//
// dew_tree is the paper's node, for the counted policy.  Per node: the MRE
// tag with its wave pointer and A tag-list entries of (tag, wave pointer) —
// with the MRA tag, 96 + 64*A bits.  The wave pointer of an entry holding
// tag t names the way t occupied in the *child node on t's path* when t
// last descended through it; `empty_wave` means unknown.  FIFO never moves
// a resident block between ways, which is what makes a stored way index
// trustworthy until eviction.  Storage: one packed record per node of the
// FIFO/victim cursors, the A way entries, then the victim buffer, at a
// fixed runtime stride.  A record is only touched when the walk has to
// resolve an A-way set (a DM miss at that node), and then the cursor, tag
// list and victim buffer are needed together: one stride computation into
// one allocation, one or two adjacent lines.  The stride rounds the record
// up to 32 bytes inside a 64-byte-aligned arena; rounding all the way to 64
// was measured slower (a 4-way record is 88 bytes — padding to 128 costs a
// third more footprint and misses than it saves in alignment).  The seed
// layout segmented one logical node across three parallel vectors
// (headers, ways, victims), so resolving one set gathered three distant
// lines; bench/seed_baseline.hpp preserves that layout as the perf
// baseline.
//
// Extension over the paper: the single MRE entry generalises to a small
// per-node *victim buffer* of `victim_depth` (tag, wave) entries holding
// the most recently evicted tags.  Depth 1 is exactly the paper's MRE
// entry; depth 0 disables Property 4; larger depths prove more misses
// without a search and preserve more wave pointers across evict/re-fetch
// cycles, at one extra comparison per probed entry.  The ablation bench
// measures the trade.
//
// tag_arena is the fast policy's store: the A tags of every node and
// nothing else (8*A bytes, so an A = 8 node is one 64-byte line), plus one
// FIFO cursor per node in a dense side array.  Without wave pointers and a
// victim buffer a set is resolved by one scan of its tags; docs/PERF.md
// (layer 3) gives the measured trade.
#ifndef DEW_DEW_TREE_HPP
#define DEW_DEW_TREE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "cache/set_model.hpp" // invalid_tag
#include "common/hints.hpp"

namespace dew::core {

inline constexpr std::uint32_t empty_wave = ~std::uint32_t{0};

struct way_entry {
    std::uint64_t tag{cache::invalid_tag};
    std::uint32_t wave{empty_wave};
};

// The non-MRA scalar state of one node, leading its record in the arena.
struct node_header {
    std::uint32_t cursor{0};        // FIFO insertion pointer (ways)
    std::uint32_t victim_cursor{0}; // round-robin victim-buffer slot
};

// The record layout below hard-codes these sizes when computing strides
// and offsets.
static_assert(sizeof(node_header) == 8);
static_assert(sizeof(way_entry) == 16);

// Mutable view of one node's record: its cursor header, its A-entry tag
// list, and its victim buffer (nullptr when victim_depth == 0).
struct node_ref {
    node_header& header;
    way_entry* ways;    // [associativity]
    way_entry* victims; // [victim_depth], most recently evicted tags
};

class dew_tree {
public:
    // Levels 0..max_level inclusive; every node has `associativity` ways
    // and `victim_depth` victim-buffer entries (1 = the paper's MRE).
    dew_tree(unsigned max_level, std::uint32_t associativity,
             std::uint32_t victim_depth = 1);

    // The record arena is a raw aligned allocation, so copying must clone
    // it by hand (all record types are trivially copyable); moves transfer
    // the buffer.
    dew_tree(const dew_tree& other);
    dew_tree& operator=(const dew_tree& other);
    dew_tree(dew_tree&&) noexcept = default;
    dew_tree& operator=(dew_tree&&) noexcept = default;
    ~dew_tree() = default;

    // Register-resident view of the tree's layout for the walk's inner
    // loop.  The walk stores block numbers (std::uint64_t) through node
    // references, and under type-based aliasing such a store may alias any
    // same-typed member (stride_, arena_bytes_ are 64-bit unsigned too) —
    // so going through the dew_tree members would reload them after every
    // node mutation.  A walker snapshots the arena base and stride
    // into locals once, making the per-level lookup pure arithmetic.
    class walker {
    public:
        explicit walker(dew_tree& tree) noexcept
            : base_{tree.storage_.get()},
              stride_{tree.stride_},
              victim_offset_{tree.victim_offset_},
              has_victims_{tree.victim_depth_ != 0} {}

        // Node at a flat slot (level_offset(level) + index).
        [[nodiscard]] node_ref at(std::uint64_t slot) const noexcept {
            std::byte* const base = base_ + slot * stride_;
            return {*std::launder(reinterpret_cast<node_header*>(base)),
                    std::launder(reinterpret_cast<way_entry*>(
                        base + sizeof(node_header))),
                    has_victims_
                        ? std::launder(reinterpret_cast<way_entry*>(
                              base + victim_offset_))
                        : nullptr};
        }

        // Asks for every 64-byte line of the record at `slot` ahead of its
        // use.  A record starts 32-byte aligned, so it may begin mid-line;
        // the arena is 64-byte aligned, so that line starts inside it.
        void prefetch(std::uint64_t slot) const noexcept {
            const std::byte* const record = base_ + slot * stride_;
            const std::size_t lead =
                reinterpret_cast<std::uintptr_t>(record) & 63;
            for (std::size_t offset = 0; offset < lead + stride_;
                 offset += 64) {
                prefetch_for_write(record - lead + offset);
            }
        }

    private:
        std::byte* base_;
        std::size_t stride_;
        std::size_t victim_offset_;
        bool has_victims_;
    };

    [[nodiscard]] walker make_walker() noexcept { return walker{*this}; }

    [[nodiscard]] node_ref node(unsigned level, std::uint64_t index) noexcept {
        return make_walker().at(level_offset(level) + index);
    }

    [[nodiscard]] unsigned max_level() const noexcept { return max_level_; }
    [[nodiscard]] std::uint32_t associativity() const noexcept { return assoc_; }
    [[nodiscard]] std::uint32_t victim_depth() const noexcept {
        return victim_depth_;
    }
    [[nodiscard]] std::uint64_t node_count() const noexcept {
        return node_count_;
    }

    // Bytes between consecutive records in the arena (the packed record
    // rounded up to 32 bytes).
    [[nodiscard]] std::size_t node_stride_bytes() const noexcept {
        return stride_;
    }
    // Total footprint in bytes of the record arena.
    [[nodiscard]] std::size_t storage_bytes() const noexcept {
        return arena_bytes_;
    }

    // Reset all nodes to the cold state.
    void clear();

    // The paper's storage accounting (Section 5): bits per tree node and per
    // whole level, assuming 32-bit tags and 32-bit wave pointers.  The
    // paper's 96 + 64*A decomposes as 32 (MRA) + 64 (one MRE entry) +
    // 64*A (tag list); the general form substitutes the victim depth.  The
    // MRA tag is counted here although it lives in the shared stage-1 plane.
    [[nodiscard]] static constexpr std::uint64_t
    paper_bits_per_node(std::uint32_t associativity) noexcept {
        return 96 + std::uint64_t{64} * associativity;
    }
    [[nodiscard]] constexpr std::uint64_t bits_per_node() const noexcept {
        return 32 + std::uint64_t{64} * victim_depth_ +
               std::uint64_t{64} * assoc_;
    }
    [[nodiscard]] std::uint64_t paper_bits_per_level(unsigned level) const noexcept;
    [[nodiscard]] std::uint64_t paper_bits_total() const noexcept;

private:
    // Nodes of level l live at flat offsets [2^l - 1, 2^(l+1) - 1): the
    // classic implicit layout for a complete binary hierarchy of levels.
    [[nodiscard]] static constexpr std::uint64_t
    level_offset(unsigned level) noexcept {
        return (std::uint64_t{1} << level) - 1;
    }

    static constexpr std::size_t arena_alignment = 64;

    struct arena_delete {
        void operator()(std::byte* p) const noexcept {
            ::operator delete[](p, std::align_val_t{arena_alignment});
        }
    };
    using arena_ptr = std::unique_ptr<std::byte[], arena_delete>;

    [[nodiscard]] static arena_ptr allocate_arena(std::size_t bytes) {
        return arena_ptr{static_cast<std::byte*>(::operator new[](
            bytes, std::align_val_t{arena_alignment}))};
    }

    unsigned max_level_;
    std::uint32_t assoc_;
    std::uint32_t victim_depth_;
    std::uint64_t node_count_;
    std::size_t stride_;        // bytes per node record, multiple of 32
    std::size_t victim_offset_; // byte offset of the victim buffer in a record
    std::size_t arena_bytes_;   // node_count_ * stride_
    // Packed records: one contiguous 64-byte-aligned byte allocation (a
    // single provided-storage region, so a record never straddles distinct
    // storage objects).
    arena_ptr storage_;
};

namespace detail {

// A std::vector allocator whose element 0 starts a 64-byte cache line.
template <class T>
struct line_allocator {
    using value_type = T;
    static constexpr std::align_val_t alignment{64};

    line_allocator() = default;
    template <class U>
    explicit line_allocator(const line_allocator<U>& /*other*/) noexcept {}

    [[nodiscard]] T* allocate(std::size_t count) {
        return static_cast<T*>(::operator new(count * sizeof(T), alignment));
    }
    void deallocate(T* pointer, std::size_t /*count*/) noexcept {
        ::operator delete(pointer, alignment);
    }
    friend bool operator==(const line_allocator&,
                           const line_allocator&) noexcept {
        return true;
    }
};

} // namespace detail

// The fast policy's records (see the top of this file).
class tag_arena {
public:
    // Levels 0..max_level inclusive; every node has `associativity` ways.
    tag_arena(unsigned max_level, std::uint32_t associativity);

    // The arena base and cursor array as plain pointers for the walk's
    // inner loop: node `slot`'s tags are tags[slot * A .. slot * A + A), its
    // FIFO cursor is cursors[slot].
    struct walker {
        std::uint64_t* tags;
        std::uint32_t* cursors;
    };
    [[nodiscard]] walker make_walker() noexcept {
        return {tags_.data(), cursors_.data()};
    }

    [[nodiscard]] std::uint64_t node_count() const noexcept {
        return cursors_.size();
    }

    // 8 * A bytes per node; the cursors add 4 bytes per node.
    [[nodiscard]] std::size_t tag_bytes() const noexcept {
        return tags_.size() * sizeof(std::uint64_t);
    }
    [[nodiscard]] std::size_t cursor_bytes() const noexcept {
        return cursors_.size() * sizeof(std::uint32_t);
    }
    [[nodiscard]] std::size_t storage_bytes() const noexcept {
        return tag_bytes() + cursor_bytes();
    }

    // Reset all nodes to the cold state.
    void clear();

private:
    std::vector<std::uint64_t, detail::line_allocator<std::uint64_t>> tags_;
    std::vector<std::uint32_t> cursors_;
};

} // namespace dew::core

#endif // DEW_DEW_TREE_HPP

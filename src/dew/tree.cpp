#include "dew/tree.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/bits.hpp"
#include "common/contracts.hpp"

namespace dew::core {

namespace {

// Preconditions must run before the member initializers: node_count_ shifts
// by max_level + 1, which is undefined for max_level >= 63, so the contract
// has to fire first (the class promises misuse throws, never corrupts).
unsigned checked_max_level(unsigned max_level) {
    DEW_EXPECTS(max_level < 32);
    return max_level;
}

// Likewise before the tag arena is sized by it.
std::uint32_t checked_associativity(std::uint32_t associativity) {
    DEW_EXPECTS(is_pow2(associativity));
    return associativity;
}

// Nodes of levels 0..max_level.
std::uint64_t tree_nodes(unsigned max_level) {
    return (std::uint64_t{1} << (max_level + 1)) - 1;
}

} // namespace

dew_tree::dew_tree(unsigned max_level, std::uint32_t associativity,
                   std::uint32_t victim_depth)
    : max_level_{checked_max_level(max_level)},
      assoc_{associativity},
      victim_depth_{victim_depth},
      node_count_{level_offset(max_level + 1)},
      stride_{static_cast<std::size_t>(
          align_up(sizeof(node_header) +
                       sizeof(way_entry) * (std::size_t{associativity} +
                                            victim_depth),
                   32))},
      victim_offset_{sizeof(node_header) +
                     sizeof(way_entry) * std::size_t{associativity}} {
    DEW_EXPECTS(is_pow2(associativity));
    arena_bytes_ = node_count_ * stride_;
    storage_ = allocate_arena(arena_bytes_);
    clear();
}

dew_tree::dew_tree(const dew_tree& other)
    : max_level_{other.max_level_},
      assoc_{other.assoc_},
      victim_depth_{other.victim_depth_},
      node_count_{other.node_count_},
      stride_{other.stride_},
      victim_offset_{other.victim_offset_},
      arena_bytes_{other.arena_bytes_},
      storage_{allocate_arena(other.arena_bytes_)} {
    // Records are trivially copyable implicit-lifetime types, so memcpy
    // both clones the bytes and (formally) creates the objects in the new
    // storage.
    std::memcpy(storage_.get(), other.storage_.get(), arena_bytes_);
}

dew_tree& dew_tree::operator=(const dew_tree& other) {
    if (this != &other) {
        *this = dew_tree{other}; // copy-construct, then move-assign
    }
    return *this;
}

void dew_tree::clear() {
    // (Re)construct every record in place.  node_header and way_entry are
    // trivially destructible, so placement-new over live entries is a plain
    // reset; on the first call it also starts the objects' lifetimes inside
    // the raw arena bytes.
    const std::uint32_t entries = assoc_ + victim_depth_;
    std::byte* base = storage_.get();
    for (std::uint64_t slot = 0; slot < node_count_; ++slot, base += stride_) {
        ::new (base) node_header{};
        auto* entry = base + sizeof(node_header);
        for (std::uint32_t i = 0; i < entries; ++i, entry += sizeof(way_entry)) {
            ::new (entry) way_entry{};
        }
    }
}

std::uint64_t dew_tree::paper_bits_per_level(unsigned level) const noexcept {
    return (std::uint64_t{1} << level) * paper_bits_per_node(assoc_);
}

std::uint64_t dew_tree::paper_bits_total() const noexcept {
    std::uint64_t total = 0;
    for (unsigned level = 0; level <= max_level_; ++level) {
        total += paper_bits_per_level(level);
    }
    return total;
}

tag_arena::tag_arena(unsigned max_level, std::uint32_t associativity)
    : tags_(tree_nodes(checked_max_level(max_level)) *
                checked_associativity(associativity),
            cache::invalid_tag),
      cursors_(tree_nodes(max_level), 0) {}

void tag_arena::clear() {
    std::fill(tags_.begin(), tags_.end(), cache::invalid_tag);
    std::fill(cursors_.begin(), cursors_.end(), 0);
}

} // namespace dew::core

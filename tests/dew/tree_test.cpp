#include "dew/tree.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "dew/mra_stage.hpp"

namespace {

using namespace dew::core;

TEST(DewTree, NodeCountIsCompleteBinaryHierarchy) {
    EXPECT_EQ(dew_tree(0, 1).node_count(), 1u);
    EXPECT_EQ(dew_tree(1, 1).node_count(), 3u);
    EXPECT_EQ(dew_tree(14, 4).node_count(), 32767u); // 2^15 - 1
}

TEST(DewTree, FreshNodesAreCold) {
    dew_tree tree{3, 4};
    const mra_stage stage{3, true}; // the MRA tags live in the shared plane
    for (unsigned level = 0; level <= 3; ++level) {
        for (std::uint64_t index = 0; index < (1u << level); ++index) {
            const node_ref node = tree.node(level, index);
            EXPECT_EQ(stage.mra(level, index), dew::cache::invalid_tag);
            EXPECT_EQ(node.header.cursor, 0u);
            EXPECT_EQ(node.header.victim_cursor, 0u);
            EXPECT_EQ(node.victims[0].tag, dew::cache::invalid_tag);
            for (std::uint32_t way = 0; way < 4; ++way) {
                EXPECT_EQ(node.ways[way].tag, dew::cache::invalid_tag);
                EXPECT_EQ(node.ways[way].wave, empty_wave);
            }
        }
    }
}

TEST(DewTree, NodesAreDistinctStorage) {
    dew_tree tree{2, 2};
    mra_stage stage{2, true};
    stage.mra(1, 0) = 111;
    stage.mra(1, 1) = 222;
    tree.node(2, 0).ways[0].tag = 333;
    EXPECT_EQ(stage.mra(1, 0), 111u);
    EXPECT_EQ(stage.mra(1, 1), 222u);
    EXPECT_EQ(tree.node(2, 0).ways[0].tag, 333u);
    EXPECT_EQ(tree.node(2, 1).ways[0].tag, dew::cache::invalid_tag);
}

TEST(DewTree, ClearRestoresColdState) {
    dew_tree tree{2, 2};
    mra_stage stage{2, true};
    stage.mra(0, 0) = 5;
    tree.node(2, 3).ways[1] = {42, 1};
    tree.clear();
    stage.clear();
    EXPECT_EQ(stage.mra(0, 0), dew::cache::invalid_tag);
    EXPECT_EQ(tree.node(2, 3).ways[1].tag, dew::cache::invalid_tag);
    EXPECT_EQ(tree.node(2, 3).ways[1].wave, empty_wave);
}

TEST(DewTree, PaperBitsPerNodeFormula) {
    // Section 5: per tree node, 96 + 64*A bits.
    EXPECT_EQ(dew_tree::paper_bits_per_node(1), 160u);
    EXPECT_EQ(dew_tree::paper_bits_per_node(4), 352u);
    EXPECT_EQ(dew_tree::paper_bits_per_node(16), 1120u);
}

TEST(DewTree, PaperBitsPerLevelScalesWithSets) {
    dew_tree tree{3, 4};
    // Per level: S * (96 + 64*A).
    EXPECT_EQ(tree.paper_bits_per_level(0), 352u);
    EXPECT_EQ(tree.paper_bits_per_level(3), 8u * 352u);
    EXPECT_EQ(tree.paper_bits_total(), (1 + 2 + 4 + 8) * 352u);
}

TEST(DewTree, RejectsInvalidGeometry) {
    EXPECT_THROW(dew_tree(32, 4), dew::contract_violation);
    EXPECT_THROW(dew_tree(2, 3), dew::contract_violation);
}

TEST(DewTree, RecordStrideIsPackedAndRounded) {
    // Record = 8-byte header + 16 bytes per (way or victim) entry, rounded
    // up to 32 bytes.
    EXPECT_EQ(dew_tree(2, 4, 1).node_stride_bytes(), 96u);   // 8+80 -> 96
    EXPECT_EQ(dew_tree(2, 2, 1).node_stride_bytes(), 64u);   // 8+48 -> 64
    EXPECT_EQ(dew_tree(2, 1, 0).node_stride_bytes(), 32u);   // 8+16 -> 32
    EXPECT_EQ(dew_tree(2, 8, 4).node_stride_bytes(), 224u); // 8+192 -> 224
}

TEST(DewTree, StorageCoversMraPlanePlusRecords) {
    dew_tree tree{3, 4, 1};
    const mra_stage stage{3, true};
    const std::uint64_t nodes = tree.node_count();
    EXPECT_GE(tree.storage_bytes() + stage.storage_bytes(),
              nodes * (8 + tree.node_stride_bytes()));
}

TEST(DewTree, NodeFieldsOfOneRecordAreContiguous) {
    dew_tree tree{4, 4, 2};
    const node_ref node = tree.node(3, 5);
    const auto* header_bytes =
        reinterpret_cast<const std::byte*>(&node.header);
    const auto* ways_bytes = reinterpret_cast<const std::byte*>(node.ways);
    const auto* victims_bytes =
        reinterpret_cast<const std::byte*>(node.victims);
    EXPECT_EQ(ways_bytes - header_bytes,
              static_cast<std::ptrdiff_t>(sizeof(node_header)));
    EXPECT_EQ(victims_bytes - ways_bytes,
              static_cast<std::ptrdiff_t>(4 * sizeof(way_entry)));
}

TEST(DewTree, ZeroVictimDepthYieldsNullVictimView) {
    dew_tree tree{2, 2, 0};
    EXPECT_EQ(tree.node(1, 1).victims, nullptr);
    EXPECT_EQ(tree.victim_depth(), 0u);
}

} // namespace

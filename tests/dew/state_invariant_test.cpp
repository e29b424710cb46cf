// White-box invariants of the DEW tree, checked against reference FIFO
// state after EVERY access of adversarial traces.  These are the structural
// facts the soundness arguments in simulator.hpp rest on:
//
//   I1 (contents): each tree node's tag list equals the corresponding set
//      of a reference FIFO cache at that level — even though MRA stops skip
//      deeper levels (hits change no FIFO state, and stops happen only at
//      certified hits).
//   I2 (MRA truthfulness): each node's MRA tag equals the last requested
//      block that mapped to that set — even for nodes a stopped walk never
//      visited (the certificate proves the field is already correct).
//   I3 (wave consistency): if an entry's tag is resident in the child node
//      on its path, a non-empty wave pointer names its exact way.  (For a
//      non-resident tag the pointer may dangle — that is the "stale
//      pointer proves a miss" case.)
#include <gtest/gtest.h>

#include <vector>

#include "cache/set_model.hpp"
#include "common/bits.hpp"
#include "dew/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::core;

constexpr unsigned max_level = 5;
constexpr std::uint32_t assoc = 2;
constexpr std::uint32_t block_size = 4;

class invariant_checker {
public:
    invariant_checker() {
        for (unsigned level = 0; level <= max_level; ++level) {
            reference_.emplace_back(std::uint32_t{1} << level, assoc);
        }
        last_request_.resize(std::size_t{2} << max_level,
                             cache::invalid_tag);
    }

    // Feeds one address to both the DEW simulator and the reference banks,
    // then checks I1-I3 over the whole tree.
    void access_and_check(std::uint64_t address) {
        sim_.access(address);
        const std::uint64_t block = address >> log2_exact(block_size);
        for (unsigned level = 0; level <= max_level; ++level) {
            const auto set =
                static_cast<std::uint32_t>(block & low_mask(level));
            reference_[level].access(set, block);
            record_last_request(level, set, block);
        }
        check_all();
    }

private:
    void record_last_request(unsigned level, std::uint32_t set,
                             std::uint64_t block) {
        last_request_[slot(level, set)] = block;
    }

    [[nodiscard]] static std::size_t slot(unsigned level, std::uint64_t set) {
        return (std::size_t{1} << level) - 1 + set;
    }

    void check_all() {
        // The tree accessor is non-const; a const_cast keeps the checker's
        // interface honest (node() does not mutate).
        auto& tree = const_cast<dew_tree&>(sim_.tree());
        for (unsigned level = 0; level <= max_level; ++level) {
            const auto sets = std::uint64_t{1} << level;
            for (std::uint64_t set = 0; set < sets; ++set) {
                const node_ref node =
                    tree.node(level, set);

                // I2: MRA truthfulness, read from the shared plane.
                ASSERT_EQ(sim_.stage().mra(level, set),
                          last_request_[slot(level, set)])
                    << "level " << level << " set " << set;

                for (std::uint32_t way = 0; way < assoc; ++way) {
                    const std::uint64_t tag = node.ways[way].tag;
                    // I1: contents match the reference FIFO bank way-for-way
                    // (FIFO positions are deterministic, so equality is
                    // positional, not just set-wise).
                    ASSERT_EQ(tag,
                              reference_[level].tag_at(
                                  static_cast<std::uint32_t>(set), way))
                        << "level " << level << " set " << set << " way "
                        << way;

                    // I3: wave pointers of resident children are exact.
                    if (level == max_level || tag == cache::invalid_tag) {
                        continue;
                    }
                    const std::uint32_t wave = node.ways[way].wave;
                    if (wave == empty_wave) {
                        continue;
                    }
                    const auto child_set = static_cast<std::uint32_t>(
                        tag & low_mask(level + 1));
                    if (reference_[level + 1].contains(child_set, tag)) {
                        const node_ref child =
                            tree.node(level + 1, child_set);
                        ASSERT_LT(wave, assoc);
                        ASSERT_EQ(child.ways[wave].tag, tag)
                            << "level " << level << " set " << set << " way "
                            << way << ": stale wave pointer at a resident "
                            << "tag";
                    }
                }
            }
        }
    }

    dew_simulator sim_{max_level, assoc, block_size};
    std::vector<cache::fifo_cache_state> reference_;
    std::vector<std::uint64_t> last_request_; // per (level, set)
};

TEST(StateInvariants, HoldOnConflictHeavyRandomTraffic) {
    // 32 blocks over 64 sets max: dense aliasing, constant evictions.
    invariant_checker checker;
    const auto trace = trace::make_random_trace(0, 32 * block_size, 2000,
                                                0x51EE7, 4);
    for (const auto& access : trace) {
        checker.access_and_check(access.address);
    }
}

TEST(StateInvariants, HoldOnCyclicThrash) {
    invariant_checker checker;
    const auto trace = trace::make_cyclic_trace(0, 7, 200, block_size);
    for (const auto& access : trace) {
        checker.access_and_check(access.address);
    }
}

TEST(StateInvariants, HoldOnMediabenchMixture) {
    invariant_checker checker;
    const auto trace =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 1500);
    for (const auto& access : trace) {
        checker.access_and_check(access.address);
    }
}

TEST(StateInvariants, HoldUnderEveryAblationVariant) {
    // The invariants concern the data structure, not the shortcuts; they
    // must survive any switch combination.  (MRA stops leave deeper nodes
    // untouched — I1/I2 assert that is semantically invisible.)
    for (const bool mra : {false, true}) {
        for (const bool wave : {false, true}) {
            for (const bool mre : {false, true}) {
                dew_simulator sim{3, 2, 4, dew_options{mra, wave, mre, 1}};
                std::vector<cache::fifo_cache_state> reference;
                for (unsigned level = 0; level <= 3; ++level) {
                    reference.emplace_back(std::uint32_t{1} << level, 2);
                }
                const auto trace =
                    trace::make_random_trace(0, 64, 800, 99, 4);
                for (const auto& access : trace) {
                    sim.access(access.address);
                    const std::uint64_t block = access.address >> 2;
                    for (unsigned level = 0; level <= 3; ++level) {
                        const auto set = static_cast<std::uint32_t>(
                            block & low_mask(level));
                        reference[level].access(set, block);
                    }
                }
                // Spot-check final contents positionally at every level.
                auto& tree = const_cast<dew_tree&>(sim.tree());
                for (unsigned level = 0; level <= 3; ++level) {
                    for (std::uint64_t set = 0;
                         set < (std::uint64_t{1} << level); ++set) {
                        const node_ref node = tree.node(level, set);
                        for (std::uint32_t way = 0; way < 2; ++way) {
                            ASSERT_EQ(
                                node.ways[way].tag,
                                reference[level].tag_at(
                                    static_cast<std::uint32_t>(set), way))
                                << "mra=" << mra << " wave=" << wave
                                << " mre=" << mre;
                        }
                    }
                }
            }
        }
    }
}

} // namespace

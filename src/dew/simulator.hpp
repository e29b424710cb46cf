// The DEW simulator: exact, single-pass, multi-configuration level-1 cache
// simulation under FIFO replacement (Section 4 of the paper).
//
// One instance simulates, in a single pass over the trace, every cache
// configuration with
//     set count      S = 2^0 .. 2^max_level,
//     associativity  A (the constructor argument)  *and*  A = 1,
//     block size     B (the constructor argument),
// producing exact hit/miss counts for all of them.  The associativity-1
// results come for free: each node's MRA tag *is* the content of the
// direct-mapped cache set it represents, so the MRA probe that implements
// Property 2 simultaneously resolves the direct-mapped configuration — this
// is the paper's "DEW automatically simulates [direct mapped] while
// simulating any other associativity".
//
// The walk runs in two stages.  Stage 1 (dew/mra_stage.hpp) walks the MRA
// plane and decides, per access, how deep the walk goes; stage 2
// (basic_dew_pass below) resolves exactly those levels in the pass's A-way
// records.  basic_dew_simulator runs both on its own chunks of the trace;
// dew::session runs stage 1 once per block size and stage 2 once per
// (block size, associativity).
//
// Why each property is sound under FIFO:
//  * MRA stop (P2): if the request equals node.mra, the *previous* request
//    mapping to this set was the same block; every deeper set on the path
//    sees a subsequence of this set's requests, so that block was also the
//    last request there, is still resident (hits change no FIFO state), and
//    the walk can stop with a hit certified for all deeper levels.
//    The MRA tag is the last block mapped to the set, a function of the
//    block stream alone, so the probe's outcome and the stop level are the
//    same at every associativity.  A plane shared by all passes of one block
//    size is therefore exact: each pass would have written the same tags
//    into a private copy and stopped at the same level.
//  * Wave pointer (P3): FIFO never relocates a resident block, so the way
//    recorded when the tag last visited the child either still holds the
//    tag (hit) or the tag was evicted (miss).  One comparison decides.
//  * MRE entry (P4): a block matching the most-recently-evicted tag cannot
//    be resident (re-insertion would have displaced the MRE entry first),
//    so the match proves a miss; the swap returns the preserved wave
//    pointer, keeping P3 effective across evict/re-fetch cycles.  This
//    library generalises the entry to a k-deep victim buffer
//    (dew_options::mre_depth; k = 1 is the paper, bit-for-bit).
//
// Instrumentation is a compile-time policy (see dew/counters.hpp), and each
// policy has its own stage 2:
//  * `full_counters` (`dew_simulator`) is the paper's algorithm: the
//    P2+P3+P4 walk over dew_tree's records, every switch of dew_options
//    honoured, with the exact Table-3/4 bookkeeping.  It is the reference
//    the fast walk is proven against.  A counted pass is charged the MRA
//    probes, hits and node evaluations stage 1 made for it, so its counters
//    equal those of a walk that probed its own plane.
//  * `fast` (`fast_dew_simulator`, what run_sweep and the examples default
//    to) walks a tag_arena: at each level stage 1 left, one branchless scan
//    of the A tags, and on a miss a store at the FIFO cursor.  P3 and P4
//    save tag comparisons, which only the counted policy reports; as
//    records they cost more memory traffic than the comparisons they save
//    (docs/PERF.md, layer 1).  The fast policy therefore ignores
//    dew_options: it always runs stage 1 with the MRA stop, and any options
//    give the same misses bit for bit.
// Both policies produce bit-identical miss counts.
#ifndef DEW_DEW_SIMULATOR_HPP
#define DEW_DEW_SIMULATOR_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "cache/config.hpp"
#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/hints.hpp"
#include "dew/counters.hpp"
#include "dew/mra_stage.hpp"
#include "dew/options.hpp"
#include "dew/result.hpp"
#include "dew/tree.hpp"
#include "trace/record.hpp"

namespace dew::core {

// Stage 2 of the walk for one (block size, associativity) pass: the A-way
// records, its per-level misses and its counters.  It consumes stage 1's
// output (mra_walks) for its block size; the direct-mapped misses come from
// there too.  The records are a dew_tree under `full_counters` and a
// tag_arena under `fast` (dew/tree.hpp).
template <class Instrumentation = full_counters>
class basic_dew_pass {
public:
    // True when this instantiation maintains dew_counters on the hot path.
    static constexpr bool counted = Instrumentation::counted;

    using records_type = std::conditional_t<counted, dew_tree, tag_arena>;

    // Set counts 2^0..2^max_level at associativities {1, assoc} and block
    // size block_size (bytes, power of two).  `options` are validated under
    // both policies but only the counted walk uses them.
    basic_dew_pass(unsigned max_level, std::uint32_t assoc,
                   std::uint32_t block_size, dew_options options = {});

    // Walks every access of `walks` through exactly the levels stage 1 left
    // it, and adds the chunk's direct-mapped misses and requests.  `walks`
    // must come from an mra_stage with this pass's max_level and
    // options().use_mra_stop, run over this pass's block-number stream.
    void walk(const mra_walks& walks);

    // Exact per-configuration results (valid at any point of the pass).
    [[nodiscard]] dew_result result() const;

    // With the `fast` policy this is an all-zero struct (no bookkeeping
    // exists to report); use requests() for the request count.
    [[nodiscard]] const dew_counters& counters() const noexcept {
        if constexpr (counted) {
            return instrumentation_.counters;
        } else {
            static const dew_counters none{};
            return none;
        }
    }
    [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
    [[nodiscard]] unsigned max_level() const noexcept { return max_level_; }
    [[nodiscard]] std::uint32_t associativity() const noexcept { return assoc_; }
    [[nodiscard]] std::uint32_t block_size() const noexcept { return block_size_; }
    // The options the walk runs under: the constructor's under
    // `full_counters`, the defaults (DEW, MRA stop on) under `fast`.
    [[nodiscard]] const dew_options& options() const noexcept { return options_; }
    [[nodiscard]] const records_type& tree() const noexcept { return tree_; }

    // Reset the records and all counters to the cold state.
    void reset();

private:
    enum class mre_knowledge : std::uint8_t {
        unknown,    // victim buffer not yet probed for this request
        matched,    // probe matched at `matched_slot` (swap required)
        mismatched, // probe came up empty (plain insert)
    };

    // probe_victims() returns this when `block` is in no buffer slot.
    static constexpr std::uint32_t no_victim_match = ~std::uint32_t{0};

    // While walking access k, stage 2 prefetches the records of access
    // k + prefetch_distance.  Stage 1 fixed that access's path, so no line
    // off the path is fetched.  Distances 4 and 16 measured 1-2% slower on
    // the paper grid (docs/PERF.md, layer 5).
    static constexpr std::size_t prefetch_distance = 8;
    // Records of the shallow levels stay cached across walks and are not
    // prefetched: levels 0..9 of the counted walk (at most 1023 records;
    // prefetching them too cost 17-23% on the paper grid and on shallow
    // shapes), and levels 0..11 of the fast walk, whose records are
    // 1.7-2.5x smaller (starting at 10, 11 or 13 instead measured within
    // the noise on mpeg2_dec and g721_enc, and up to 1.13x as long on
    // cjpeg; docs/PERF.md, layer 5).
    static constexpr unsigned first_prefetched_level = 10;
    static constexpr unsigned fast_first_prefetched_level = 12;

    DEW_NOINLINE static unsigned validate_construction(
        unsigned max_level, std::uint32_t assoc, std::uint32_t block_size,
        const dew_options& options) {
        DEW_EXPECTS(max_level < 32);
        DEW_EXPECTS(is_pow2(assoc));
        DEW_EXPECTS(is_pow2(block_size));
        DEW_EXPECTS(!options.use_mre || options.mre_depth >= 1);
        return max_level;
    }

    static records_type make_records(unsigned max_level, std::uint32_t assoc,
                                     const dew_options& options) {
        if constexpr (counted) {
            return dew_tree{max_level, assoc, options.effective_mre_depth()};
        } else {
            return tag_arena{max_level, assoc};
        }
    }

    // Associativity is a loop bound in the search and a mask in the FIFO
    // cursor wrap; baking the common powers of two in as compile-time
    // constants lets the optimiser unroll the tag scan and fold the masks.
    // StaticAssoc == 0 is the generic fallback reading assoc_ at runtime.
    // Results are identical across all instantiations.
    template <class F>
    static decltype(auto) with_static_assoc(std::uint32_t assoc, F&& f) {
        switch (assoc) {
        case 1: return f(std::integral_constant<std::uint32_t, 1>{});
        case 2: return f(std::integral_constant<std::uint32_t, 2>{});
        case 4: return f(std::integral_constant<std::uint32_t, 4>{});
        case 8: return f(std::integral_constant<std::uint32_t, 8>{});
        case 16: return f(std::integral_constant<std::uint32_t, 16>{});
        default: return f(std::integral_constant<std::uint32_t, 0>{});
        }
    }

    // Same trick for the victim-buffer depth: depth 1 (the paper's MRE) is
    // the overwhelmingly common configuration, and baking it in turns the
    // buffer probe into a single compare and the round-robin aging into a
    // fixed-slot store.  runtime_depth (~0) reads mre_depth_ at runtime.
    static constexpr std::uint32_t runtime_depth = ~std::uint32_t{0};

    template <class F>
    static decltype(auto) with_static_depth(std::uint32_t depth, F&& f) {
        switch (depth) {
        case 1: return f(std::integral_constant<std::uint32_t, 1>{});
        default:
            return f(std::integral_constant<std::uint32_t, runtime_depth>{});
        }
    }

    // And for the property switches: full DEW (P2+P3+P4 all on, the
    // default) folds every per-level `options_.use_*` test away; ablation
    // configurations take the generic runtime-checked walk.
    template <class F>
    static decltype(auto) with_static_options(const dew_options& options,
                                              F&& f) {
        if (options.use_mra_stop && options.use_wave && options.use_mre) {
            return f(std::true_type{});
        }
        return f(std::false_type{});
    }

    // The counted walk of one access (Algorithms 1 and 2) through levels
    // 0..end-1; without the MRA stop, levels whose bit is clear in
    // `miss_mask` were MRA hits.  Force-inlined into run_walks: as a
    // standalone call the walk reloads members (options, tree base, stride,
    // counters) per access; inlined, they are hoisted into registers across
    // the whole chunk — measured at ~25% of hot-loop time on the micro
    // trace.  Plain `inline` is not enough: GCC declines on the
    // runtime-depth specialisations.
    template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth,
              bool AllOpts>
    DEW_ALWAYS_INLINE void walk_block(const dew_tree::walker& nodes,
                                      std::uint64_t block, unsigned end,
                                      std::uint32_t miss_mask);

    // The counted walk's whole-chunk loop of one static specialisation.
    // noinline keeps each specialisation a compact standalone function.
    template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth,
              bool AllOpts>
    DEW_NOINLINE void run_walks(const mra_walks& walks);

    // The fast walk's whole-chunk loop over the tag arena.
    template <std::uint32_t StaticAssoc>
    DEW_NOINLINE void run_fast_walks(const mra_walks& walks);

    // Request bookkeeping, hoisted out of the per-access walk: one bulk
    // update per chunk instead of a member read-modify-write per access.
    void note_requests(std::uint64_t count) {
        requests_ += count;
        if constexpr (counted) {
            instrumentation_.counters.requests += count;
            // Paper Table 4 column 2: per-configuration simulation evaluates
            // one set per configuration per request — levels x {1, A}
            // configurations (30 for the paper's parameters), versus one
            // tree node per level for DEW.
            instrumentation_.counters.unoptimized_evaluations +=
                count * (max_level_ + 1) * (assoc_ == 1 ? 1 : 2);
        }
    }

    // Scans the node's victim buffer for `block` (Property 4, generalised
    // to mre_depth entries), counting its comparisons.
    template <std::uint32_t StaticDepth>
    DEW_ALWAYS_INLINE std::uint32_t probe_victims(node_ref node, std::uint64_t block);

    // Algorithm 2 ("Handle_miss"): picks the FIFO victim, performs either
    // the victim-buffer swap or a plain insert with victim-buffer update,
    // and returns the way the requested block now occupies.
    template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth,
              bool AllOpts>
    DEW_ALWAYS_INLINE std::uint32_t insert_on_miss(node_ref node, std::uint64_t block,
                                 mre_knowledge known,
                                 std::uint32_t matched_slot = no_victim_match);

    unsigned max_level_;
    std::uint32_t assoc_;
    std::uint32_t way_mask_; // assoc - 1
    std::uint32_t block_size_;
    dew_options options_;
    // options_.effective_mre_depth(), cached so the per-access loops never
    // re-derive it.
    std::uint32_t mre_depth_;
    records_type tree_;
    // Empty under the `fast` policy; [[no_unique_address]] keeps it free.
    [[no_unique_address]] Instrumentation instrumentation_{};
    std::uint64_t requests_{0};
    // Exact miss counts per level, for associativity `assoc_` and for the
    // piggybacked direct-mapped (associativity 1) configurations.
    std::vector<std::uint64_t> misses_assoc_;
    std::vector<std::uint64_t> misses_dm_;
};

// One complete DEW simulation of one (block size, associativity): its own
// MRA plane (stage 1) and record arena (stage 2), run chunk by chunk over
// whatever it is fed.
template <class Instrumentation = full_counters>
class basic_dew_simulator {
public:
    // True when this instantiation maintains dew_counters on the hot path.
    static constexpr bool counted = Instrumentation::counted;

    // Simulates set counts 2^0..2^max_level at associativities {1, assoc}
    // and block size block_size (bytes, power of two).
    basic_dew_simulator(unsigned max_level, std::uint32_t assoc,
                        std::uint32_t block_size, dew_options options = {});

    // Simulate a single byte address / reference / whole trace.
    void access(std::uint64_t address) { access_block(address >> block_bits_); }
    void access(const trace::mem_access& reference) { access(reference.address); }
    void simulate(const trace::mem_trace& trace) {
        simulate_chunk({trace.data(), trace.size()});
    }

    // The uniform incremental step of the streaming pipeline: simulating a
    // trace in chunks of any size — through any interleaving of
    // simulate_chunk, simulate_blocks and access calls — yields bit-identical
    // state and results to one whole-trace simulate() call.  The plane and
    // the records carry all state between chunks; nothing is finalised until
    // result() is read.
    void simulate_chunk(std::span<const trace::mem_access> chunk);

    // The entry points on pre-decoded block numbers (address >> log2(block
    // size)).
    void access_block(std::uint64_t block) { simulate_blocks({&block, 1}); }
    void simulate_blocks(std::span<const std::uint64_t> blocks);

    // Results, counters and geometry, as basic_dew_pass reports them.
    [[nodiscard]] dew_result result() const { return pass_.result(); }
    [[nodiscard]] const dew_counters& counters() const noexcept {
        return pass_.counters();
    }
    [[nodiscard]] std::uint64_t requests() const noexcept {
        return pass_.requests();
    }
    [[nodiscard]] unsigned max_level() const noexcept {
        return pass_.max_level();
    }
    [[nodiscard]] std::uint32_t associativity() const noexcept {
        return pass_.associativity();
    }
    [[nodiscard]] std::uint32_t block_size() const noexcept {
        return pass_.block_size();
    }
    [[nodiscard]] const dew_options& options() const noexcept {
        return pass_.options();
    }
    // The records (stage 2) and the MRA plane (stage 1).
    [[nodiscard]] const auto& tree() const noexcept { return pass_.tree(); }
    [[nodiscard]] const mra_stage& stage() const noexcept { return stage_; }

    // Reset the plane, the records and all counters to the cold state.
    void reset() {
        stage_.clear();
        pass_.reset();
    }

private:
    // Accesses per internal chunk: the block numbers and their depths
    // (36 KiB) stay cache-resident from stage 1 to stage 2.
    static constexpr std::size_t stage_chunk = 4096;

    // Decodes `count` accesses (decode(i) is the i-th block number) into
    // scratch_ one stage_chunk at a time and runs both stages on each.
    template <class Decode>
    void run_stages(std::size_t count, Decode decode);

    basic_dew_pass<Instrumentation> pass_; // validates the geometry first
    mra_stage stage_;
    unsigned block_bits_;
    std::vector<std::uint64_t> scratch_; // stage_chunk block numbers
    mra_walk_buffer buffer_;
};

// The counted simulator: the seed-compatible default every test and bench
// table uses.  `fast` is the zero-overhead production configuration.
using dew_simulator = basic_dew_simulator<full_counters>;
using fast_dew_simulator = basic_dew_simulator<fast>;

// --- implementation ---------------------------------------------------------

template <class Instrumentation>
basic_dew_pass<Instrumentation>::basic_dew_pass(unsigned max_level,
                                                std::uint32_t assoc,
                                                std::uint32_t block_size,
                                                dew_options options)
    : max_level_{validate_construction(max_level, assoc, block_size,
                                       options)},
      assoc_{assoc},
      way_mask_{assoc - 1},
      block_size_{block_size},
      options_{counted ? options : dew_options{}},
      mre_depth_{options_.effective_mre_depth()},
      tree_{make_records(max_level, assoc, options_)},
      misses_assoc_(max_level + 1, 0),
      misses_dm_(max_level + 1, 0) {}

template <class Instrumentation>
basic_dew_simulator<Instrumentation>::basic_dew_simulator(
    unsigned max_level, std::uint32_t assoc, std::uint32_t block_size,
    dew_options options)
    : pass_{max_level, assoc, block_size, options},
      stage_{max_level, pass_.options().use_mra_stop},
      block_bits_{log2_exact(block_size)},
      scratch_(stage_chunk) {}

template <class Instrumentation>
void basic_dew_pass<Instrumentation>::walk(const mra_walks& walks) {
    DEW_EXPECTS(walks.dm_misses.size() == misses_dm_.size());
    note_requests(walks.requests);
    for (std::size_t level = 0; level < misses_dm_.size(); ++level) {
        misses_dm_[level] += walks.dm_misses[level];
    }
    if constexpr (counted) {
        // Stage 1 probed the MRA tag of every node this pass would have
        // evaluated on its own: one tag comparison each.
        instrumentation_.counters.node_evaluations += walks.node_visits;
        instrumentation_.counters.tag_comparisons += walks.node_visits;
        instrumentation_.counters.mra_hits += walks.mra_hits;
        with_static_assoc(assoc_, [&](auto a) {
            with_static_depth(mre_depth_, [&](auto d) {
                with_static_options(options_, [&](auto o) {
                    this->template run_walks<a(), d(), o()>(walks);
                });
            });
        });
    } else {
        // The fast walk reads each access's stop depth (the MRA stop).
        DEW_EXPECTS(walks.blocks.empty() || walks.depth != nullptr);
        with_static_assoc(assoc_, [&](auto a) {
            this->template run_fast_walks<a()>(walks);
        });
    }
}

// The record walk and the chunk loops: every instruction here runs once per
// trace reference.  dewlint's hot-loop rule bans allocation, container
// growth, formatted I/O and wall-clock reads inside the region — the walk
// must stay pure loads, stores and compares.
// dewlint: hot-loop begin dew-walk
template <class Instrumentation>
template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth, bool AllOpts>
void basic_dew_pass<Instrumentation>::run_walks(const mra_walks& walks) {
    const bool use_mra_stop = AllOpts || options_.use_mra_stop;
    const std::uint64_t* const blocks = walks.blocks.data();
    const std::size_t count = walks.blocks.size();
    const dew_tree::walker nodes = tree_.make_walker();
    // Levels 0..end-1 of access k are walked; without the MRA stop the
    // walk may end after its deepest MRA miss (the rest are certified hits
    // that would only break the wave chain).
    const auto path_end = [&](std::size_t k) -> unsigned {
        return use_mra_stop ? walks.depth[k]
                            : static_cast<unsigned>(
                                  std::bit_width(walks.miss_mask[k]));
    };
    for (std::size_t k = 0; k < count; ++k) {
        if (k + prefetch_distance < count) {
            const std::size_t ahead = k + prefetch_distance;
            const std::uint64_t block = blocks[ahead];
            const unsigned end = path_end(ahead);
            for (unsigned level = first_prefetched_level; level < end;
                 ++level) {
                const std::uint64_t bit = std::uint64_t{1} << level;
                nodes.prefetch(bit - 1 + (block & (bit - 1)));
            }
        }
        walk_block<StaticAssoc, StaticDepth, AllOpts>(
            nodes, blocks[k], path_end(k),
            use_mra_stop ? ~std::uint32_t{0} : walks.miss_mask[k]);
    }
}

// The fast walk: per access, levels 0..depth-1, each resolved by a scan of
// the node's A tags.  Levels are independent here (no wave pointer links a
// node to its parent), so a level only reads and writes its own node.
template <class Instrumentation>
template <std::uint32_t StaticAssoc>
void basic_dew_pass<Instrumentation>::run_fast_walks(const mra_walks& walks) {
    const std::uint32_t assoc = StaticAssoc == 0 ? assoc_ : StaticAssoc;
    const std::uint32_t way_mask = assoc - 1;
    // A node's tags span this many 64-byte lines (a smaller node never
    // straddles one: the arena is line-aligned and 8 * A divides 64).
    const std::size_t tag_lines = std::max<std::size_t>(assoc / 8, 1);
    const std::uint64_t* const blocks = walks.blocks.data();
    const std::uint8_t* const depth = walks.depth;
    const std::size_t count = walks.blocks.size();
    const tag_arena::walker records = tree_.make_walker();
    std::uint64_t* const tags = records.tags;
    std::uint32_t* const cursors = records.cursors;
    std::uint64_t* const misses = misses_assoc_.data();
    for (std::size_t k = 0; k < count; ++k) {
        if (k + prefetch_distance < count) {
            const std::size_t ahead = k + prefetch_distance;
            const std::uint64_t block = blocks[ahead];
            for (unsigned level = fast_first_prefetched_level;
                 level < depth[ahead]; ++level) {
                const std::uint64_t bit = std::uint64_t{1} << level;
                const std::uint64_t slot = bit - 1 + (block & (bit - 1));
                const std::uint64_t* const set = tags + slot * assoc;
                for (std::size_t line = 0; line < tag_lines; ++line) {
                    prefetch_for_write(set + line * 8);
                }
                prefetch_for_write(cursors + slot);
            }
        }
        const std::uint64_t block = blocks[k];
        const unsigned end = depth[k];
        std::uint64_t slot = 0;
        std::uint64_t bit = 1;
        for (unsigned level = 0; level < end;
             ++level, slot += bit + (block & bit), bit <<= 1) {
            std::uint64_t* const set = tags + slot * assoc;
            // Branchless: an empty way holds invalid_tag, which no real
            // block number equals (stage 1 rejects it).
            bool hit = false;
            for (std::uint32_t way = 0; way < assoc; ++way) {
                hit |= set[way] == block;
            }
            if (!hit) {
                // FIFO: cold ways fill in order, then replacement is
                // round-robin from the cursor.
                const std::uint32_t victim = cursors[slot];
                set[victim] = block;
                cursors[slot] = (victim + 1) & way_mask;
                ++misses[level];
            }
        }
    }
}

// Scans the node's victim buffer for `block`, counting one tag comparison
// per valid entry examined.  Returns the matching slot or `no_victim_match`.
template <class Instrumentation>
template <std::uint32_t StaticDepth>
std::uint32_t
basic_dew_pass<Instrumentation>::probe_victims(node_ref node,
                                               std::uint64_t block) {
    const std::uint32_t depth =
        StaticDepth == runtime_depth ? mre_depth_ : StaticDepth;
    for (std::uint32_t slot = 0; slot < depth; ++slot) {
        if (node.victims[slot].tag == cache::invalid_tag) {
            continue; // never filled: no comparison performed
        }
        ++instrumentation_.counters.tag_comparisons;
        if (node.victims[slot].tag == block) {
            return slot;
        }
    }
    return no_victim_match;
}

template <class Instrumentation>
template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth, bool AllOpts>
std::uint32_t basic_dew_pass<Instrumentation>::insert_on_miss(
    node_ref node, std::uint64_t block, mre_knowledge known,
    std::uint32_t matched_slot) {
    const std::uint32_t way_mask =
        StaticAssoc == 0 ? way_mask_ : StaticAssoc - 1;
    const std::uint32_t depth =
        StaticDepth == runtime_depth ? mre_depth_ : StaticDepth;
    const bool use_mre = AllOpts || options_.use_mre;
    // Algorithm 2, lines 3-9.  The FIFO victim is the circular cursor: cold
    // ways fill in order first, then replacement is round-robin — the
    // "least recently inserted" position of line 3.
    const std::uint32_t victim = node.header.cursor;
    node.header.cursor = (victim + 1) & way_mask;
    way_entry& slot = node.ways[victim];

    if (known == mre_knowledge::unknown && use_mre) {
        // Algorithm 2, line 4, generalised to the victim buffer.
        matched_slot = probe_victims<StaticDepth>(node, block);
        if (matched_slot != no_victim_match) {
            known = mre_knowledge::matched;
            ++instrumentation_.counters.mre_swaps;
        }
    }

    if (known == mre_knowledge::matched) {
        // Line 5: exchange the victim way with the matching buffer entry.
        // The incoming block regains the wave pointer it had when it was
        // evicted — still valid, because FIFO never moved it in the child
        // meanwhile.
        DEW_ASSERT(matched_slot < depth);
        way_entry& buffered = node.victims[matched_slot];
        const way_entry displaced = slot;
        slot = buffered;
        buffered = displaced;
    } else {
        // Lines 7-8: plain insert; the displaced tag (if any) joins the
        // victim buffer together with its wave pointer, aging out the
        // oldest buffered victim.
        if (use_mre && slot.tag != cache::invalid_tag) {
            node.victims[node.header.victim_cursor] = slot;
            node.header.victim_cursor =
                node.header.victim_cursor + 1 == depth
                    ? 0
                    : node.header.victim_cursor + 1;
        }
        slot.tag = block;
        slot.wave = empty_wave;
    }
    return victim;
}

template <class Instrumentation>
template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth, bool AllOpts>
void basic_dew_pass<Instrumentation>::walk_block(
    const dew_tree::walker& nodes, std::uint64_t block, unsigned end,
    std::uint32_t miss_mask) {
    const std::uint32_t assoc = StaticAssoc == 0 ? assoc_ : StaticAssoc;
    // AllOpts folds the property switches to constants (full DEW); the
    // generic instantiation reads them per access for the ablations.
    const bool use_mra_stop = AllOpts || options_.use_mra_stop;
    const bool use_wave = AllOpts || options_.use_wave;
    const bool use_mre = AllOpts || options_.use_mre;

    // The wave pointer chain: entry holding `block` in the previous
    // (parent) level's node, or null at the root / after an MRA hit.
    way_entry* parent_entry = nullptr;

    // Flat tree slot, tracked incrementally: level l's node for this block
    // lives at (2^l - 1) + (block & (2^l - 1)), so each level adds
    // bit + (block & bit) — two adds instead of two shifts and two masks.
    std::uint64_t slot = 0;
    std::uint64_t bit = 1;

    for (unsigned level = 0; level < end;
         ++level, slot += bit + (block & bit), bit <<= 1) {
        if (!use_mra_stop && ((miss_mask >> level) & 1U) == 0) {
            // Ablation mode: stage 1 certified a hit at this node (the FIFO
            // state is untouched), but the way position is unknown, so the
            // wave chain breaks for the child.
            parent_entry = nullptr;
            continue;
        }
        // A direct-mapped miss at this set count (stage 1 counted it);
        // Algorithm 1/2 lines 1-2.
        const node_ref node = nodes.at(slot);

        bool hit = false;
        std::uint32_t way = 0;
        bool determined = false;

        // Property 3: one probe at the wave pointer decides hit or miss.
        if (use_wave && parent_entry != nullptr &&
            parent_entry->wave != empty_wave) {
            const std::uint32_t pointed = parent_entry->wave;
            DEW_ASSERT(pointed < assoc);
            ++instrumentation_.counters.wave_checks;
            ++instrumentation_.counters.tag_comparisons;
            determined = true;
            if (node.ways[pointed].tag == block) {
                ++instrumentation_.counters.wave_hit_determinations;
                hit = true;
                way = pointed;
            } else {
                ++instrumentation_.counters.wave_miss_determinations;
                ++misses_assoc_[level];
                way = insert_on_miss<StaticAssoc, StaticDepth, AllOpts>(
                    node, block, mre_knowledge::unknown);
            }
        }

        if (!determined) {
            // Property 4: a victim-buffer match proves the miss without a
            // search.
            std::uint32_t matched_slot = no_victim_match;
            if (use_mre) {
                matched_slot = probe_victims<StaticDepth>(node, block);
            }
            if (matched_slot != no_victim_match) {
                ++instrumentation_.counters.mre_determinations;
                ++misses_assoc_[level];
                way = insert_on_miss<StaticAssoc, StaticDepth, AllOpts>(
                    node, block, mre_knowledge::matched, matched_slot);
            } else {
                // Full tag-list search.  Valid entries form a prefix under
                // FIFO fill, and skipped invalid ways cost no comparison —
                // the exact Table-3 counting convention.
                bool found = false;
                ++instrumentation_.counters.searches;
                for (std::uint32_t i = 0; i < assoc; ++i) {
                    if (node.ways[i].tag == cache::invalid_tag) {
                        continue;
                    }
                    ++instrumentation_.counters.tag_comparisons;
                    if (node.ways[i].tag == block) {
                        found = true;
                        way = i;
                        break;
                    }
                }
                if (found) {
                    hit = true;
                } else {
                    ++misses_assoc_[level];
                    way = insert_on_miss<StaticAssoc, StaticDepth, AllOpts>(
                        node, block,
                        use_mre ? mre_knowledge::mismatched
                                : mre_knowledge::unknown);
                }
            }
        }

        // Algorithm 1/2, lines 10-11: publish this node's way position into
        // the parent's matching entry and carry our own entry downwards.
        if (parent_entry != nullptr) {
            parent_entry->wave = way;
        }
        parent_entry = &node.ways[way];
        (void)hit;
    }
}

template <class Instrumentation>
template <class Decode>
void basic_dew_simulator<Instrumentation>::run_stages(std::size_t count,
                                                      Decode decode) {
    std::uint64_t* const blocks = scratch_.data();
    for (std::size_t offset = 0; offset < count; offset += stage_chunk) {
        const std::size_t n = std::min(stage_chunk, count - offset);
        for (std::size_t i = 0; i < n; ++i) {
            blocks[i] = decode(offset + i);
        }
        // Both stages run up to the first sentinel block number, so the
        // plane and the records agree when the check below throws.
        const auto valid = static_cast<std::size_t>(
            std::find(blocks, blocks + n, cache::invalid_tag) - blocks);
        pass_.walk(stage_.run({blocks, valid}, buffer_));
        const bool has_sentinel_block = valid != n;
        DEW_EXPECTS(!has_sentinel_block);
    }
}

template <class Instrumentation>
void basic_dew_simulator<Instrumentation>::simulate_chunk(
    std::span<const trace::mem_access> chunk) {
    const unsigned bits = block_bits_;
    run_stages(chunk.size(), [chunk, bits](std::size_t i) {
        return chunk[i].address >> bits;
    });
}

template <class Instrumentation>
void basic_dew_simulator<Instrumentation>::simulate_blocks(
    std::span<const std::uint64_t> blocks) {
    run_stages(blocks.size(), [blocks](std::size_t i) { return blocks[i]; });
}
// dewlint: hot-loop end dew-walk

template <class Instrumentation>
dew_result basic_dew_pass<Instrumentation>::result() const {
    dew_counters snapshot{};
    if constexpr (counted) {
        snapshot = instrumentation_.counters;
    } else {
        // No bookkeeping exists; report the one quantity that is tracked
        // regardless so hits stay derivable from the result alone.
        snapshot.requests = requests_;
    }
    return dew_result{max_level_, assoc_,      block_size_, requests_,
                      misses_assoc_, misses_dm_, snapshot};
}

template <class Instrumentation>
void basic_dew_pass<Instrumentation>::reset() {
    tree_.clear();
    instrumentation_ = {};
    requests_ = 0;
    std::fill(misses_assoc_.begin(), misses_assoc_.end(), 0);
    std::fill(misses_dm_.begin(), misses_dm_.end(), 0);
}

// The only two policies; instantiated once in simulator.cpp so the fifty-odd
// consumer translation units do not each re-instantiate the simulator.
extern template class basic_dew_pass<full_counters>;
extern template class basic_dew_pass<fast>;
extern template class basic_dew_simulator<full_counters>;
extern template class basic_dew_simulator<fast>;

} // namespace dew::core

#endif // DEW_DEW_SIMULATOR_HPP

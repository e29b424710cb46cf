// The instrumentation policy must never change simulation results: the
// `fast` simulator (a tags-only arena walked without wave pointers or a
// victim buffer, counters compiled out) and the `full_counters` simulator
// (the paper's P2+P3+P4 walk) must produce bit-identical miss counts on
// identical input, whatever dew_options the fast one is given, and the
// pre-decoded block-stream entry point must match the address entry point.
#include "dew/simulator.hpp"

#include <gtest/gtest.h>

#include <string>

#include "dew/session.hpp"
#include "dew/sweep.hpp"
#include "trace/generator.hpp"
#include "trace/mediabench.hpp"
#include "trace/source.hpp"

namespace {

using namespace dew;
using namespace dew::core;

// Deterministic pseudo-random trace: mixed hot/cold regions with enough
// conflict pressure to exercise every resolution path (MRA, wave, victim
// buffer, full search) at every tested geometry.
trace::mem_trace random_trace(std::uint64_t seed, std::size_t length) {
    trace::mem_trace trace;
    trace.reserve(length);
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    for (std::size_t i = 0; i < length; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Mix a small hot region (frequent re-references) with a large
        // region (evictions) and occasional far addresses (deep DM misses).
        std::uint64_t address;
        switch (state % 4) {
        case 0: address = (state >> 8) % 0x2000; break;
        case 1: address = 0x100000 + (state >> 8) % 0x40000; break;
        default: address = (state >> 8) % 0x800000; break;
        }
        trace.push_back({address, trace::access_type::read});
    }
    return trace;
}

// Misses at A and at 1 on every level, and the request count, of two
// results of one (block size, associativity) pass.
void expect_same_misses(const dew_result& got, const dew_result& want) {
    ASSERT_EQ(got.max_level(), want.max_level());
    ASSERT_EQ(got.associativity(), want.associativity());
    ASSERT_EQ(got.block_size(), want.block_size());
    EXPECT_EQ(got.requests(), want.requests());
    const std::uint32_t assoc = want.associativity();
    for (unsigned level = 0; level <= want.max_level(); ++level) {
        EXPECT_EQ(got.misses(level, assoc), want.misses(level, assoc))
            << "B " << want.block_size() << " A " << assoc << " level "
            << level;
        EXPECT_EQ(got.misses(level, 1), want.misses(level, 1))
            << "B " << want.block_size() << " A " << assoc << " level "
            << level;
    }
}

dew_options options_for_depth(std::uint32_t depth) {
    dew_options options;
    if (depth == 0) {
        options.use_mre = false;
    } else {
        options.mre_depth = depth;
    }
    return options;
}

TEST(PolicyEquivalence, FastAndCountedProduceIdenticalMisses) {
    for (const std::uint64_t seed : {1ull, 42ull, 1337ull}) {
        const trace::mem_trace trace = random_trace(seed, 30000);
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
            for (const std::uint32_t depth : {0u, 1u, 4u}) {
                const dew_options options = options_for_depth(depth);
                dew_simulator counted{9, assoc, 16, options};
                fast_dew_simulator fast{9, assoc, 16, options};
                counted.simulate(trace);
                fast.simulate(trace);

                const dew_result a = counted.result();
                const dew_result b = fast.result();
                EXPECT_EQ(counted.requests(), fast.requests());
                for (unsigned level = 0; level <= 9; ++level) {
                    EXPECT_EQ(a.misses(level, assoc), b.misses(level, assoc))
                        << "seed " << seed << " assoc " << assoc << " depth "
                        << depth << " level " << level;
                    EXPECT_EQ(a.misses(level, 1), b.misses(level, 1))
                        << "seed " << seed << " assoc " << assoc << " depth "
                        << depth << " level " << level;
                }
            }
        }
    }
}

TEST(PolicyEquivalence, FastPolicyReportsZeroCountersButRealRequests) {
    const trace::mem_trace trace = random_trace(7, 5000);
    fast_dew_simulator fast{6, 4, 32};
    fast.simulate(trace);
    EXPECT_EQ(fast.requests(), trace.size());
    // The counters view is all-zero (no bookkeeping exists)...
    EXPECT_EQ(fast.counters().tag_comparisons, 0u);
    EXPECT_EQ(fast.counters().node_evaluations, 0u);
    // ...but the result still carries the request count, so hits stay
    // derivable downstream (sweep aggregation relies on this).
    EXPECT_EQ(fast.result().counters().requests, trace.size());
    EXPECT_EQ(fast.result().requests(), trace.size());
}

TEST(PolicyEquivalence, SimulateBlocksMatchesSimulate) {
    for (const std::uint64_t seed : {3ull, 99ull}) {
        const trace::mem_trace trace = random_trace(seed, 20000);
        for (const std::uint32_t block_size : {16u, 64u}) {
            const std::vector<std::uint64_t> blocks =
                trace::block_numbers(trace, log2_exact(block_size));
            ASSERT_EQ(blocks.size(), trace.size());

            fast_dew_simulator by_address{8, 4, block_size};
            fast_dew_simulator by_blocks{8, 4, block_size};
            by_address.simulate(trace);
            by_blocks.simulate_blocks(blocks);

            EXPECT_EQ(by_address.requests(), by_blocks.requests());
            const dew_result a = by_address.result();
            const dew_result b = by_blocks.result();
            for (unsigned level = 0; level <= 8; ++level) {
                EXPECT_EQ(a.misses(level, 4), b.misses(level, 4));
                EXPECT_EQ(a.misses(level, 1), b.misses(level, 1));
            }
        }
    }
}

TEST(PolicyEquivalence, CountedSimulateBlocksKeepsExactCounters) {
    const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 20000);
    const std::vector<std::uint64_t> blocks = trace::block_numbers(trace, 5);

    dew_simulator by_address{8, 4, 32};
    dew_simulator by_blocks{8, 4, 32};
    by_address.simulate(trace);
    by_blocks.simulate_blocks(blocks);

    EXPECT_EQ(by_address.counters().requests, by_blocks.counters().requests);
    EXPECT_EQ(by_address.counters().tag_comparisons,
              by_blocks.counters().tag_comparisons);
    EXPECT_EQ(by_address.counters().node_evaluations,
              by_blocks.counters().node_evaluations);
    EXPECT_EQ(by_address.counters().unoptimized_evaluations,
              by_blocks.counters().unoptimized_evaluations);
}

// Non-power-of-two-specialised associativity (32 falls through to the
// generic runtime-assoc walk) must agree with the specialised ones'
// counted twin.
TEST(PolicyEquivalence, GenericAssocFallbackMatchesCounted) {
    const trace::mem_trace trace = random_trace(11, 20000);
    dew_simulator counted{8, 32, 16};
    fast_dew_simulator fast{8, 32, 16};
    counted.simulate(trace);
    fast.simulate(trace);
    for (unsigned level = 0; level <= 8; ++level) {
        EXPECT_EQ(counted.result().misses(level, 32),
                  fast.result().misses(level, 32));
    }
}

// The fast walk against the paper's counted walk at every statically
// specialised associativity and the generic fallback (32), from the
// root-only tree to the paper's depth, on a conflict-heavy random trace and
// on mpeg2_dec's deep frame stores.
TEST(PolicyEquivalence, FastWalkMatchesCountedAtEveryAssocAndDepth) {
    const trace::mem_trace traces[] = {
        random_trace(5, 30000),
        trace::make_mediabench_trace(trace::mediabench_app::mpeg2_dec, 30000),
    };
    for (const trace::mem_trace& trace : traces) {
        for (const unsigned max_level : {0u, 1u, 7u, 14u}) {
            for (const std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u, 32u}) {
                dew_simulator counted{max_level, assoc, 16};
                fast_dew_simulator fast{max_level, assoc, 16};
                counted.simulate(trace);
                fast.simulate(trace);
                expect_same_misses(fast.result(), counted.result());
            }
        }
    }
}

// The fast policy ignores dew_options: every ablation gives the default
// fast sweep bit for bit, counters included, and the walk reports the
// defaults it runs under.
TEST(PolicyEquivalence, FastSweepIgnoresDewOptions) {
    const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::mpeg2_dec, 30000);
    sweep_request request;
    request.max_set_exp = 12;
    request.block_sizes = {4, 32};
    request.associativities = {1, 2, 4, 8, 16, 32};
    const sweep_result want = run_sweep(trace, request);

    dew_options deep_buffer;
    deep_buffer.mre_depth = 4;
    dew_options no_mra_stop;
    no_mra_stop.use_mra_stop = false;
    for (const dew_options& options :
         {dew_options::unoptimized(), deep_buffer, no_mra_stop}) {
        request.options = options;
        const sweep_result got = run_sweep(trace, request);
        EXPECT_EQ(got.requests, want.requests);
        ASSERT_EQ(got.passes.size(), want.passes.size());
        for (std::size_t i = 0; i < want.passes.size(); ++i) {
            expect_same_misses(got.passes[i], want.passes[i]);
            const dew_counters& a = got.passes[i].counters();
            const dew_counters& b = want.passes[i].counters();
            EXPECT_EQ(a.requests, b.requests);
            EXPECT_EQ(a.node_evaluations, b.node_evaluations);
            EXPECT_EQ(a.tag_comparisons, b.tag_comparisons);
            EXPECT_EQ(a.searches, b.searches);
        }

        const fast_dew_simulator sim{6, 4, 32, options};
        EXPECT_TRUE(sim.options().use_mra_stop);
        EXPECT_TRUE(sim.options().use_wave);
        EXPECT_TRUE(sim.options().use_mre);
        EXPECT_EQ(sim.options().mre_depth, 1u);
    }
}

// A fast session fed 1, 7 or 4096 records per step gives the counted
// one-shot sweep's misses.
TEST(PolicyEquivalence, FastSessionChunkingMatchesCountedSweep) {
    const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::mpeg2_dec, 20000);
    sweep_request request;
    request.max_set_exp = 14;
    request.block_sizes = {8, 64};
    request.associativities = {2, 4, 16, 32};
    sweep_request counted_request = request;
    counted_request.instrumentation = sweep_instrumentation::full_counters;
    const sweep_result want = run_sweep(trace, counted_request);

    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        trace::span_source src{{trace.data(), trace.size()}};
        session_options options;
        options.chunk_records = chunk;
        const sweep_result got = run_sweep(src, request, options);
        EXPECT_EQ(got.requests, want.requests);
        ASSERT_EQ(got.passes.size(), want.passes.size());
        for (std::size_t i = 0; i < want.passes.size(); ++i) {
            expect_same_misses(got.passes[i], want.passes[i]);
        }
    }
}

// The fast record layout: exactly 8 * A tag bytes and one 4-byte cursor
// per node, the tags starting on a cache line.  Padding the layout fails
// here.
TEST(PolicyEquivalence, FastPassHoldsOnlyTagsAndCursors) {
    for (const unsigned max_level : {0u, 6u, 14u}) {
        const std::uint64_t nodes = (std::uint64_t{1} << (max_level + 1)) - 1;
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u, 32u}) {
            const basic_dew_pass<fast> pass{max_level, assoc, 32};
            EXPECT_EQ(pass.tree().node_count(), nodes);
            EXPECT_EQ(pass.tree().tag_bytes(), 8 * assoc * nodes)
                << "L " << max_level << " A " << assoc;
            EXPECT_EQ(pass.tree().cursor_bytes(), 4 * nodes);
            EXPECT_EQ(pass.tree().storage_bytes(), (8 * assoc + 4) * nodes);
        }
    }
    tag_arena arena{6, 4};
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.make_walker().tags) % 64,
              0u);
}

} // namespace

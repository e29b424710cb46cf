// Chunk-boundary equivalence: the streaming contract's core guarantee.
// Feeding a trace through simulate_chunk in chunks of any size — including
// chunk boundaries landing on every single record — must yield bit-identical
// results to one whole-trace simulate() call, across associativities, victim
// depths and both instrumentation policies; likewise for the other
// simulators' uniform simulate_chunk step.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>

#include "baseline/dinero_sim.hpp"
#include "dew/session.hpp"
#include "dew/simulator.hpp"
#include "lru/forest_sim.hpp"
#include "lru/janapsatya_sim.hpp"
#include "lru/stack_sim.hpp"
#include "trace/mediabench.hpp"
#include "trace/sampling.hpp"
#include "trace/source.hpp"

namespace {

using namespace dew;
using namespace dew::core;

const trace::mem_trace& workload() {
    static const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 20000);
    return trace;
}

constexpr std::size_t chunk_sizes[] = {1, 7, 4096};

template <class Sim>
void feed_in_chunks(Sim& sim, const trace::mem_trace& trace,
                    std::size_t chunk_records) {
    std::span<const trace::mem_access> rest{trace.data(), trace.size()};
    while (!rest.empty()) {
        const std::size_t take = std::min(chunk_records, rest.size());
        sim.simulate_chunk(rest.subspan(0, take));
        rest = rest.subspan(take);
    }
}

template <class Instrumentation>
void expect_dew_chunk_equivalence(std::uint32_t assoc,
                                  const dew_options& options) {
    const trace::mem_trace& trace = workload();
    constexpr unsigned max_level = 8;
    constexpr std::uint32_t block_size = 32;

    basic_dew_simulator<Instrumentation> whole{max_level, assoc, block_size,
                                               options};
    whole.simulate(trace);
    const dew_result expected = whole.result();

    for (const std::size_t chunk : chunk_sizes) {
        basic_dew_simulator<Instrumentation> chunked{max_level, assoc,
                                                     block_size, options};
        feed_in_chunks(chunked, trace, chunk);
        const dew_result actual = chunked.result();

        ASSERT_EQ(actual.requests(), expected.requests()) << "chunk " << chunk;
        for (unsigned level = 0; level <= max_level; ++level) {
            EXPECT_EQ(actual.misses(level, assoc),
                      expected.misses(level, assoc))
                << "chunk " << chunk << " level " << level;
            EXPECT_EQ(actual.misses(level, 1), expected.misses(level, 1))
                << "chunk " << chunk << " level " << level;
        }
        // Under full counters the entire instrumentation set must be
        // insensitive to chunking, not just the miss counts.
        if constexpr (basic_dew_simulator<Instrumentation>::counted) {
            const dew_counters& a = actual.counters();
            const dew_counters& b = expected.counters();
            EXPECT_EQ(a.node_evaluations, b.node_evaluations);
            EXPECT_EQ(a.tag_comparisons, b.tag_comparisons);
            EXPECT_EQ(a.mra_hits, b.mra_hits);
            EXPECT_EQ(a.wave_checks, b.wave_checks);
            EXPECT_EQ(a.mre_determinations, b.mre_determinations);
            EXPECT_EQ(a.searches, b.searches);
            EXPECT_EQ(a.mre_swaps, b.mre_swaps);
            EXPECT_EQ(a.unoptimized_evaluations, b.unoptimized_evaluations);
        }
    }
}

TEST(ChunkedEquivalence, DewCountedAcrossAssociativities) {
    for (const std::uint32_t assoc : {1u, 2u, 8u}) {
        expect_dew_chunk_equivalence<full_counters>(assoc, {});
    }
}

TEST(ChunkedEquivalence, DewFastAcrossAssociativities) {
    for (const std::uint32_t assoc : {1u, 2u, 8u}) {
        expect_dew_chunk_equivalence<fast>(assoc, {});
    }
}

TEST(ChunkedEquivalence, DewAcrossVictimDepths) {
    for (const std::uint32_t depth : {1u, 3u}) {
        dew_options options;
        options.mre_depth = depth;
        expect_dew_chunk_equivalence<full_counters>(4, options);
        expect_dew_chunk_equivalence<fast>(4, options);
    }
}

TEST(ChunkedEquivalence, DewWithPropertiesDisabled) {
    expect_dew_chunk_equivalence<full_counters>(4,
                                                dew_options::unoptimized());
}

TEST(ChunkedEquivalence, MixedChunkAndBlockFeedingMatches) {
    // Interleaving simulate_chunk with pre-decoded simulate_blocks spans —
    // exactly what a session does — is equivalent to one simulate() call.
    const trace::mem_trace& trace = workload();
    dew_simulator whole{8, 4, 32};
    whole.simulate(trace);

    dew_simulator mixed{8, 4, 32};
    const std::size_t half = trace.size() / 2;
    mixed.simulate_chunk({trace.data(), half});
    std::vector<std::uint64_t> blocks;
    blocks.reserve(trace.size() - half);
    for (std::size_t i = half; i < trace.size(); ++i) {
        blocks.push_back(trace[i].address >> 5);
    }
    mixed.simulate_blocks(blocks);

    EXPECT_EQ(mixed.result().requests(), whole.result().requests());
    for (unsigned level = 0; level <= 8; ++level) {
        EXPECT_EQ(mixed.result().misses(level, 4),
                  whole.result().misses(level, 4));
    }
    EXPECT_EQ(mixed.counters().tag_comparisons,
              whole.counters().tag_comparisons);
}

TEST(ChunkedEquivalence, DineroSim) {
    const trace::mem_trace& trace = workload();
    const cache::cache_config config{64, 4, 32};
    baseline::dinero_sim whole{config};
    whole.simulate(trace);
    for (const std::size_t chunk : chunk_sizes) {
        baseline::dinero_sim chunked{config};
        feed_in_chunks(chunked, trace, chunk);
        EXPECT_EQ(chunked.stats().misses, whole.stats().misses);
        EXPECT_EQ(chunked.stats().hits, whole.stats().hits);
        EXPECT_EQ(chunked.stats().tag_comparisons,
                  whole.stats().tag_comparisons);
    }
}

TEST(ChunkedEquivalence, SplitTypeFilteredSweeps) {
    // Split I/D tuning is one sweep per side over a type filter, and it
    // follows the same uniform incremental contract: at every session chunk
    // size each side equals the one-chunk sweep of its eagerly filtered
    // trace, routing counts and tag comparisons included.
    const trace::mem_trace& trace = workload();
    for (const bool want_ifetch : {true, false}) {
        sweep_request request;
        request.max_set_exp = 7;
        request.block_sizes = {want_ifetch ? 32u : 16u};
        request.associativities = {want_ifetch ? 2u : 4u};
        request.instrumentation = sweep_instrumentation::full_counters;
        trace::mem_trace filtered;
        std::copy_if(trace.begin(), trace.end(), std::back_inserter(filtered),
                     [&](const trace::mem_access& access) {
                         return (access.type == trace::access_type::ifetch) ==
                                want_ifetch;
                     });
        const sweep_result whole = run_sweep(filtered, request);
        const dew_result& expected = whole.passes.at(0);
        const std::uint32_t assoc = request.associativities[0];

        for (const std::size_t chunk : chunk_sizes) {
            trace::span_source upstream{{trace.data(), trace.size()}};
            trace::type_filter_source side{upstream, want_ifetch};
            const sweep_result chunked = run_sweep(side, request, {chunk});
            EXPECT_EQ(side.kept(), filtered.size());
            EXPECT_EQ(chunked.requests, whole.requests);
            const dew_result& actual = chunked.passes.at(0);
            for (unsigned level = 0; level <= 7; ++level) {
                EXPECT_EQ(actual.misses(level, assoc),
                          expected.misses(level, assoc))
                    << level;
                EXPECT_EQ(actual.misses(level, 1), expected.misses(level, 1))
                    << level;
            }
            EXPECT_EQ(actual.counters().tag_comparisons,
                      expected.counters().tag_comparisons)
                << "chunk " << chunk;
        }
    }
}

TEST(ChunkedEquivalence, LruSimulators) {
    const trace::mem_trace& trace = workload();

    lru::stack_sim stack_whole{64, 32};
    stack_whole.simulate(trace);
    lru::forest_sim forest_whole{8, 32};
    forest_whole.simulate(trace);
    lru::janapsatya_sim jan_whole{8, 8, 32};
    jan_whole.simulate(trace);

    for (const std::size_t chunk : chunk_sizes) {
        lru::stack_sim stack_chunked{64, 32};
        feed_in_chunks(stack_chunked, trace, chunk);
        for (const std::uint32_t assoc : {1u, 4u, 16u}) {
            EXPECT_EQ(stack_chunked.misses(assoc), stack_whole.misses(assoc));
        }

        lru::forest_sim forest_chunked{8, 32};
        feed_in_chunks(forest_chunked, trace, chunk);
        for (unsigned level = 0; level <= 8; ++level) {
            EXPECT_EQ(forest_chunked.misses(level),
                      forest_whole.misses(level));
        }

        lru::janapsatya_sim jan_chunked{8, 8, 32};
        feed_in_chunks(jan_chunked, trace, chunk);
        for (unsigned level = 0; level <= 8; ++level) {
            for (const std::uint32_t assoc : {1u, 4u, 8u}) {
                EXPECT_EQ(jan_chunked.misses(level, assoc),
                          jan_whole.misses(level, assoc));
            }
        }
    }
}

} // namespace

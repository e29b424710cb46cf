// Split I/D tuning as two sweeps over type-filtered sources: routing,
// equivalence with filtered single-cache simulation, independent
// geometries, streaming, and the I/D asymmetry of the MediaBench profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "dew/session.hpp"
#include "dew/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/mediabench.hpp"
#include "trace/sampling.hpp"
#include "trace/source.hpp"

namespace {

using namespace dew;
using namespace dew::core;
using trace::access_type;
using trace::mem_trace;

mem_trace workload() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 25000);
}

mem_trace filter(const mem_trace& trace, bool want_ifetch) {
    mem_trace out;
    for (const auto& access : trace) {
        if ((access.type == access_type::ifetch) == want_ifetch) {
            out.push_back(access);
        }
    }
    return out;
}

// One side's grid: every set count up to 2^max_level at {1, assoc}, one
// block size, counted so the instrumentation is comparable too.
sweep_request side(unsigned max_level, std::uint32_t assoc,
                   std::uint32_t block_size) {
    sweep_request request;
    request.max_set_exp = max_level;
    request.block_sizes = {block_size};
    request.associativities = {assoc};
    request.instrumentation = sweep_instrumentation::full_counters;
    return request;
}

struct split_sweeps {
    sweep_result icache;
    sweep_result dcache;
    std::uint64_t ifetches{0};
    std::uint64_t data_accesses{0};
};

// The split tuning recipe: one run_sweep per side, each over a type filter
// of its own pass through the trace.
split_sweeps tune(const mem_trace& trace, const sweep_request& icache,
                  const sweep_request& dcache) {
    split_sweeps out;
    trace::span_source i_upstream{trace};
    trace::type_filter_source i_side{i_upstream, true};
    out.icache = run_sweep(i_side, icache);
    out.ifetches = i_side.kept();
    trace::span_source d_upstream{trace};
    trace::type_filter_source d_side{d_upstream, false};
    out.dcache = run_sweep(d_side, dcache);
    out.data_accesses = d_side.kept();
    return out;
}

void expect_same(const dew_result& actual, const dew_result& expected) {
    ASSERT_EQ(actual.max_level(), expected.max_level());
    const std::uint32_t assoc = expected.associativity();
    for (unsigned level = 0; level <= expected.max_level(); ++level) {
        EXPECT_EQ(actual.misses(level, assoc), expected.misses(level, assoc))
            << level;
        EXPECT_EQ(actual.misses(level, 1), expected.misses(level, 1))
            << level;
    }
    EXPECT_EQ(actual.counters().tag_comparisons,
              expected.counters().tag_comparisons);
    EXPECT_EQ(actual.counters().node_evaluations,
              expected.counters().node_evaluations);
}

TEST(Split, RoutesByAccessType) {
    const mem_trace trace = workload();
    const split_sweeps sim = tune(trace, side(8, 2, 32), side(8, 4, 16));
    EXPECT_EQ(sim.ifetches + sim.data_accesses, trace.size());
    EXPECT_EQ(sim.ifetches, filter(trace, true).size());
    EXPECT_EQ(sim.icache.requests, sim.ifetches);
    EXPECT_EQ(sim.dcache.requests, sim.data_accesses);
}

TEST(Split, EachSideEqualsFilteredSingleCacheSimulation) {
    const mem_trace trace = workload();
    const split_sweeps split = tune(trace, side(7, 2, 32), side(7, 4, 16));

    dew_simulator icache{7, 2, 32};
    icache.simulate(filter(trace, true));
    dew_simulator dcache{7, 4, 16};
    dcache.simulate(filter(trace, false));

    ASSERT_EQ(split.icache.passes.size(), 1u);
    ASSERT_EQ(split.dcache.passes.size(), 1u);
    expect_same(split.icache.passes[0], icache.result());
    expect_same(split.dcache.passes[0], dcache.result());
}

TEST(Split, SidesHaveIndependentGeometry) {
    const split_sweeps sim = tune(workload(), side(4, 1, 64), side(9, 8, 4));
    const dew_result& icache = sim.icache.passes.at(0);
    const dew_result& dcache = sim.dcache.passes.at(0);
    EXPECT_EQ(icache.max_level(), 4u);
    EXPECT_EQ(icache.associativity(), 1u);
    EXPECT_EQ(icache.block_size(), 64u);
    EXPECT_EQ(dcache.max_level(), 9u);
    EXPECT_EQ(dcache.associativity(), 8u);
    EXPECT_EQ(dcache.block_size(), 4u);
}

TEST(Split, EachSideCoversAFullGrid) {
    // Unlike one (B, A) per side, a sweep tunes each side over a whole
    // grid in one pass of the trace: every pass equals its own sweep.
    const mem_trace trace = workload();
    sweep_request grid = side(6, 2, 16);
    grid.block_sizes = {16, 32, 64};
    grid.associativities = {2, 4};
    const split_sweeps sim = tune(trace, grid, grid);
    ASSERT_EQ(sim.icache.passes.size(), 6u);
    const mem_trace ifetches = filter(trace, true);
    for (const dew_result& pass : sim.icache.passes) {
        const sweep_result alone = run_sweep(
            ifetches, side(6, pass.associativity(), pass.block_size()));
        expect_same(pass, alone.passes.at(0));
    }
}

TEST(Split, InstructionSideIsStreamFree) {
    // A pure-data trace leaves the I-side cold.
    mem_trace data;
    for (int i = 0; i < 100; ++i) {
        data.push_back({static_cast<std::uint64_t>(i) * 4,
                        access_type::read});
        data.push_back({static_cast<std::uint64_t>(i) * 4,
                        access_type::write});
    }
    const split_sweeps sim = tune(data, side(4, 2, 16), side(4, 2, 16));
    EXPECT_EQ(sim.ifetches, 0u);
    EXPECT_EQ(sim.icache.requests, 0u);
    EXPECT_EQ(sim.icache.passes.at(0).misses(4, 2), 0u);
    EXPECT_EQ(sim.dcache.requests, 200u);
}

TEST(Split, DrainsAStreamingSourceWithoutMaterialisingTheTrace) {
    // A generator_source streams the workload record by record; a side
    // swept over a type filter of it must land on the same counts as the
    // eager path over the equivalent in-memory trace.  Two sweeps need two
    // passes over the stream, so each side regenerates it.
    const mem_trace trace = workload();
    const split_sweeps eager = tune(trace, side(7, 2, 32), side(7, 4, 16));

    for (const bool want_ifetch : {true, false}) {
        trace::generator_source src{
            trace::mediabench_profile(trace::mediabench_app::cjpeg),
            trace::default_seed(trace::mediabench_app::cjpeg), trace.size()};
        trace::type_filter_source filtered{src, want_ifetch};
        const sweep_result streamed = run_sweep(
            filtered, want_ifetch ? side(7, 2, 32) : side(7, 4, 16),
            session_options{1024});
        EXPECT_EQ(filtered.source_requests(), trace.size());
        const sweep_result& expected =
            want_ifetch ? eager.icache : eager.dcache;
        EXPECT_EQ(streamed.requests, expected.requests);
        expect_same(streamed.passes.at(0), expected.passes.at(0));
    }
}

TEST(Split, RejectsZeroChunkRecords) {
    mem_trace trace{{0x40, access_type::read}};
    trace::span_source upstream{trace};
    trace::type_filter_source data{upstream, false};
    EXPECT_THROW((void)run_sweep(data, side(4, 2, 16), session_options{0}),
                 std::invalid_argument);
}

TEST(Split, MediabenchProfilesShowTheExpectedIDAsymmetry) {
    // Instruction streams are loop-dominated: at equal geometry the I-side
    // miss rate must come out far below the D-side for every profile.
    for (const auto app : trace::all_mediabench_apps) {
        const mem_trace trace = trace::make_mediabench_trace(app, 30000);
        const split_sweeps sim = tune(trace, side(8, 4, 32), side(8, 4, 32));
        const double i_rate =
            static_cast<double>(sim.icache.passes.at(0).misses(8, 4)) /
            static_cast<double>(std::max<std::uint64_t>(sim.icache.requests, 1));
        const double d_rate =
            static_cast<double>(sim.dcache.passes.at(0).misses(8, 4)) /
            static_cast<double>(std::max<std::uint64_t>(sim.dcache.requests, 1));
        EXPECT_LT(i_rate, d_rate) << trace::short_name(app);
    }
}

} // namespace

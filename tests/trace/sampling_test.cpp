// Fractional-simulation samplers: mechanics, invariants, and the accuracy
// claims the related-work contrast rests on.
#include <gtest/gtest.h>


#include "baseline/dinero_sim.hpp"
#include "common/contracts.hpp"
#include "dew/session.hpp"
#include "dew/sweep.hpp"
#include "support/throttled_source.hpp"
#include "trace/generator.hpp"
#include "trace/mediabench.hpp"
#include "trace/sampling.hpp"
#include "trace/source.hpp"

namespace {

using namespace dew;
using namespace dew::trace;
using test_support::throttled_source;

TEST(TimeSampling, KeepsSystematicWindows) {
    const mem_trace trace = make_sequential_trace(0, 20, 4);
    // Period 5, window 2: keep indices 0,1, 5,6, 10,11, 15,16.
    const time_sample_result result = time_sample(trace, {5, 2, 0});
    ASSERT_EQ(result.sampled.size(), 8u);
    EXPECT_EQ(result.sampled[0].address, trace[0].address);
    EXPECT_EQ(result.sampled[2].address, trace[5].address);
    EXPECT_EQ(result.sampled[7].address, trace[16].address);
    EXPECT_DOUBLE_EQ(result.kept_fraction(), 8.0 / 20.0);
}

TEST(TimeSampling, OffsetShiftsWindows) {
    const mem_trace trace = make_sequential_trace(0, 10, 4);
    const time_sample_result result = time_sample(trace, {5, 1, 2});
    ASSERT_EQ(result.sampled.size(), 2u); // indices 2 and 7
    EXPECT_EQ(result.sampled[0].address, trace[2].address);
    EXPECT_EQ(result.sampled[1].address, trace[7].address);
}

TEST(TimeSampling, FullWindowIsIdentity) {
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::cjpeg, 5000);
    const time_sample_result result = time_sample(trace, {7, 7, 0});
    EXPECT_EQ(result.sampled, trace);
    EXPECT_DOUBLE_EQ(result.kept_fraction(), 1.0);
}

TEST(TimeSampling, ContractViolations) {
    EXPECT_THROW((void)time_sample({}, {0, 1, 0}), contract_violation);
    EXPECT_THROW((void)time_sample({}, {4, 5, 0}), contract_violation);
    EXPECT_THROW((void)time_sample({}, {4, 0, 0}), contract_violation);
}

TEST(SetSampling, KeepsOnlyMatchingSets) {
    mem_trace trace;
    for (std::uint64_t block = 0; block < 64; ++block) {
        trace.push_back({block * 32, access_type::read});
    }
    // 64 sets at 32 B blocks: set == block.  Keep one set in 8, phase 3.
    const set_sample_result result = set_sample(trace, {64, 32, 8, 3});
    ASSERT_EQ(result.sampled.size(), 8u);
    for (const mem_access& access : result.sampled) {
        EXPECT_EQ((access.address / 32) % 8, 3u);
    }
}

TEST(SetSampling, PhasesPartitionTheTrace) {
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::mpeg2_dec, 20000);
    std::size_t total = 0;
    for (std::uint32_t phase = 0; phase < 4; ++phase) {
        total += set_sample(trace, {256, 16, 4, phase}).sampled.size();
    }
    EXPECT_EQ(total, trace.size());
}

TEST(SetSampling, SampledSetsSeeExactPerSetStreams) {
    // Per-set exactness: simulating the sampled trace yields exactly the
    // same misses for the kept sets as simulating the full trace does —
    // set sampling introduces no per-set error at matching geometry.
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::cjpeg, 30000);
    const cache::cache_config config{64, 2, 32};

    baseline::dinero_sim full{config};
    full.simulate(trace);

    std::uint64_t summed_misses = 0;
    for (std::uint32_t phase = 0; phase < 8; ++phase) {
        const set_sample_result sample =
            set_sample(trace, {64, 32, 8, phase});
        baseline::dinero_sim part{config};
        part.simulate(sample.sampled);
        summed_misses += part.stats().misses;
    }
    EXPECT_EQ(summed_misses, full.stats().misses);
}

TEST(SetSampling, EstimateLandsNearTruthOnBalancedWorkloads) {
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::mpeg2_dec, 60000);
    const cache::cache_config config{256, 4, 16};
    const std::uint64_t exact =
        baseline::count_misses(trace, config,
                               cache::replacement_policy::fifo);

    const set_sample_result sample = set_sample(trace, {256, 16, 8, 1});
    baseline::dinero_sim sim{config};
    sim.simulate(sample.sampled);
    const std::uint64_t estimate =
        extrapolate_misses(sim.stats().misses, sample.kept_fraction());

    // Within 20% on a many-set streaming workload (the bench quantifies
    // the full error distribution; this is the sanity floor).
    const double error =
        std::abs(static_cast<double>(estimate) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LT(error, 0.20) << "estimate " << estimate << " vs " << exact;
}

TEST(TimeSampling, SmallWindowsOverestimateMissRateOfBigCaches) {
    // The documented cold-start bias: each window re-warms the cache, so
    // sparse time sampling inflates the miss rate of caches with large
    // working-set coverage.
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::g721_enc, 60000);
    const cache::cache_config config{512, 4, 32}; // 64 KiB: high hit rate
    const std::uint64_t exact =
        baseline::count_misses(trace, config,
                               cache::replacement_policy::fifo);
    const double exact_rate =
        static_cast<double>(exact) / static_cast<double>(trace.size());

    const time_sample_result sample = time_sample(trace, {100, 5, 0});
    baseline::dinero_sim sim{config};
    sim.simulate(sample.sampled);
    const double sampled_rate = static_cast<double>(sim.stats().misses) /
                                static_cast<double>(sample.sampled.size());
    EXPECT_GT(sampled_rate, exact_rate);
}

TEST(TimeSampleSource, ChunkedEqualsEagerAcrossChunkSizes) {
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::cjpeg, 20000);
    const time_sample_spec spec{10, 3, 4};
    const time_sample_result eager = time_sample(trace, spec);

    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
        span_source upstream{{trace.data(), trace.size()}};
        throttled_source throttled{upstream, chunk};
        time_sample_source sampled{throttled, spec};
        EXPECT_EQ(drain(sampled), eager.sampled) << "chunk " << chunk;
        EXPECT_EQ(sampled.source_requests(), trace.size());
        EXPECT_EQ(sampled.kept(), eager.sampled.size());
        EXPECT_DOUBLE_EQ(sampled.kept_fraction(), eager.kept_fraction());
    }
}

TEST(SetSampleSource, ChunkedEqualsEagerAcrossChunkSizes) {
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::mpeg2_dec, 20000);
    const set_sample_spec spec{256, 16, 8, 5};
    const set_sample_result eager = set_sample(trace, spec);

    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
        span_source upstream{{trace.data(), trace.size()}};
        throttled_source throttled{upstream, chunk};
        set_sample_source sampled{throttled, spec};
        EXPECT_EQ(drain(sampled), eager.sampled) << "chunk " << chunk;
        EXPECT_EQ(sampled.kept(), eager.sampled.size());
        EXPECT_DOUBLE_EQ(sampled.kept_fraction(), eager.kept_fraction());
    }
}

TEST(TypeFilterSource, ChunkedEqualsEagerFilterAcrossChunkSizes) {
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::cjpeg, 20000);
    for (const bool want_ifetch : {true, false}) {
        mem_trace eager;
        for (const mem_access& access : trace) {
            if ((access.type == access_type::ifetch) == want_ifetch) {
                eager.push_back(access);
            }
        }
        for (const std::size_t chunk :
             {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
            span_source upstream{{trace.data(), trace.size()}};
            throttled_source throttled{upstream, chunk};
            type_filter_source filtered{throttled, want_ifetch};
            EXPECT_EQ(drain(filtered), eager)
                << "chunk " << chunk << " ifetch " << want_ifetch;
            EXPECT_EQ(filtered.kept(), eager.size());
        }
    }
}

TEST(TypeFilterSource, SidesPartitionTheStream) {
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::g721_enc, 20000);
    span_source i_upstream{trace};
    type_filter_source ifetches{i_upstream, true};
    (void)drain(ifetches);
    span_source d_upstream{trace};
    type_filter_source data{d_upstream, false};
    (void)drain(data);
    EXPECT_GT(ifetches.kept(), 0u);
    EXPECT_GT(data.kept(), 0u);
    EXPECT_EQ(ifetches.source_requests(), trace.size());
    EXPECT_EQ(data.source_requests(), trace.size());
    EXPECT_EQ(ifetches.source_requests(), ifetches.kept() + data.kept());
}

TEST(TypeFilterSource, InstructionSideOfPureDataTraceEndsCleanly) {
    mem_trace trace;
    for (std::uint64_t i = 0; i < 100; ++i) {
        trace.push_back({i * 4, access_type::read});
        trace.push_back({i * 4, access_type::write});
    }
    span_source upstream{trace};
    type_filter_source ifetches{upstream, true};
    core::sweep_request request;
    request.max_set_exp = 4;
    request.block_sizes = {16};
    request.associativities = {2};
    const core::sweep_result result = core::run_sweep(ifetches, request);
    EXPECT_EQ(ifetches.kept(), 0u);
    EXPECT_EQ(ifetches.source_requests(), trace.size());
    EXPECT_EQ(result.requests, 0u);
    mem_access record{};
    EXPECT_EQ(ifetches.next({&record, 1}), 0u);
}

TEST(SampleSources, RejectIllFormedSpecs) {
    span_source upstream{{}};
    EXPECT_THROW((time_sample_source{upstream, {0, 1, 0}}),
                 contract_violation);
    EXPECT_THROW((time_sample_source{upstream, {4, 5, 0}}),
                 contract_violation);
    EXPECT_THROW((set_sample_source{upstream, {60, 32, 8, 0}}),
                 contract_violation);
    EXPECT_THROW((set_sample_source{upstream, {64, 32, 8, 9}}),
                 contract_violation);
}

TEST(SampleSources, ComposeWithTheChunkedSessionByWrappingTheSource) {
    // Sampling is a property of the stream: a sweep over a set-sampling
    // wrapper of the full trace must produce exactly the misses of a sweep
    // over the eagerly-sampled trace, and the wrapper the caller keeps
    // reports the kept records the sweep simulated.
    const mem_trace trace =
        make_mediabench_trace(mediabench_app::djpeg, 25000);
    const set_sample_spec spec{64, 32, 4, 1};

    core::sweep_request request;
    request.max_set_exp = 6;
    request.block_sizes = {16, 32};
    request.associativities = {2, 4};
    const core::sweep_result eager =
        core::run_sweep(set_sample(trace, spec).sampled, request);

    span_source upstream{trace};
    set_sample_source sampled{upstream, spec};
    const core::sweep_result wrapped = core::run_sweep(sampled, request);
    EXPECT_EQ(sampled.kept(), wrapped.requests);
    EXPECT_EQ(sampled.source_requests(), trace.size());

    ASSERT_EQ(wrapped.passes.size(), eager.passes.size());
    EXPECT_EQ(wrapped.requests, eager.requests);
    for (std::size_t i = 0; i < eager.passes.size(); ++i) {
        for (unsigned level = 0; level <= 6; ++level) {
            EXPECT_EQ(wrapped.passes[i].misses(
                          level, wrapped.passes[i].associativity()),
                      eager.passes[i].misses(
                          level, eager.passes[i].associativity()))
                << "pass " << i << " level " << level;
            EXPECT_EQ(wrapped.passes[i].misses(level, 1),
                      eager.passes[i].misses(level, 1));
        }
    }
}

TEST(Extrapolation, ScalesByKeptFraction) {
    EXPECT_EQ(extrapolate_misses(100, 0.25), 400u);
    EXPECT_EQ(extrapolate_misses(0, 0.5), 0u);
    EXPECT_EQ(extrapolate_misses(7, 1.0), 7u);
    EXPECT_THROW((void)extrapolate_misses(1, 0.0), contract_violation);
}

} // namespace

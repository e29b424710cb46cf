// The exact result cache's unit is one column: the (trace, block size,
// associativity) pass at the depth it was computed.  These cases pin the
// column contract: prefixes answer shallower requests, deeper columns
// replace shallower ones and never the reverse, only missing columns run,
// requests naming CIPAR or an ablation share the columns, and an answer
// survives the eviction of its columns between submit and settle.  Every
// answer is checked bit-identical to run_sweep of its canonical request.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dew/sweep.hpp"
#include "obs/registry.hpp"
#include "serve/service.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::serve;

constexpr std::size_t trace_records = 20'000;

trace::mem_trace workload(trace::mediabench_app app =
                              trace::mediabench_app::cjpeg) {
    return trace::make_mediabench_trace(app, trace_records);
}

service_request grid(unsigned max_set_exp,
                     std::vector<std::uint32_t> blocks = {16, 32},
                     std::vector<std::uint32_t> assocs = {2, 4}) {
    service_request request;
    request.sweep.max_set_exp = max_set_exp;
    request.sweep.block_sizes = std::move(blocks);
    request.sweep.associativities = std::move(assocs);
    return request;
}

// Bit identity at A and at 1 on every level, and of every counter.
void expect_identical(const core::sweep_result& got,
                      const core::sweep_result& want) {
    EXPECT_EQ(got.requests, want.requests);
    ASSERT_EQ(got.passes.size(), want.passes.size());
    for (std::size_t i = 0; i < want.passes.size(); ++i) {
        const core::dew_result& a = got.passes[i];
        const core::dew_result& b = want.passes[i];
        ASSERT_EQ(a.block_size(), b.block_size()) << "pass " << i;
        ASSERT_EQ(a.associativity(), b.associativity()) << "pass " << i;
        ASSERT_EQ(a.max_level(), b.max_level()) << "pass " << i;
        EXPECT_EQ(a.requests(), b.requests()) << "pass " << i;
        for (unsigned level = 0; level <= b.max_level(); ++level) {
            EXPECT_EQ(a.misses(level, b.associativity()),
                      b.misses(level, b.associativity()))
                << "pass " << i << " level " << level;
            EXPECT_EQ(a.misses(level, 1), b.misses(level, 1))
                << "pass " << i << " level " << level;
        }
        const core::dew_counters& x = a.counters();
        const core::dew_counters& y = b.counters();
        EXPECT_EQ(x.requests, y.requests) << "pass " << i;
        EXPECT_EQ(x.node_evaluations, y.node_evaluations) << "pass " << i;
        EXPECT_EQ(x.unoptimized_evaluations, y.unoptimized_evaluations)
            << "pass " << i;
        EXPECT_EQ(x.mra_hits, y.mra_hits) << "pass " << i;
        EXPECT_EQ(x.wave_checks, y.wave_checks) << "pass " << i;
        EXPECT_EQ(x.mre_determinations, y.mre_determinations) << "pass " << i;
        EXPECT_EQ(x.searches, y.searches) << "pass " << i;
        EXPECT_EQ(x.tag_comparisons, y.tag_comparisons) << "pass " << i;
    }
}

void expect_direct(const service_result& answer, const service_request& request,
                   const trace::mem_trace& records) {
    ASSERT_NE(answer.sweep, nullptr);
    expect_identical(*answer.sweep,
                     core::run_sweep(records, canonical(request).sweep));
}

std::uint64_t metric_value(const char* name) {
    for (const obs::metric& m : obs::registry::instance().snapshot()) {
        if (m.name == name) {
            return m.value;
        }
    }
    return 0;
}

TEST(ServeColumns, DeepColumnAnswersShallowerDepthsAsPrefixes) {
    service svc{};
    svc.add_trace("cjpeg", workload());
    const trace::mem_trace records = workload();

    const service_result deep = svc.submit("cjpeg", grid(12)).get();
    EXPECT_FALSE(deep.cache_hit);
    expect_direct(deep, grid(12), records);

    for (const unsigned depth : {8u, 10u}) {
        SCOPED_TRACE(depth);
        const service_result shallow = svc.submit("cjpeg", grid(depth)).get();
        EXPECT_TRUE(shallow.cache_hit);
        expect_direct(shallow, grid(depth), records);
    }
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.computations, 1u);
    EXPECT_EQ(stats.shard_jobs, 2u);
    EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(ServeColumns, DeeperRequestReplacesTheColumn) {
    service svc{};
    svc.add_trace("cjpeg", workload());
    const trace::mem_trace records = workload();

    expect_direct(svc.submit("cjpeg", grid(8)).get(), grid(8), records);
    // Deeper than every cached column: computed, and it replaces them.
    const service_result deeper = svc.submit("cjpeg", grid(10)).get();
    EXPECT_FALSE(deeper.cache_hit);
    expect_direct(deeper, grid(10), records);
    // Depth 9 lies between the two: only the replacement answers it.
    const service_result between = svc.submit("cjpeg", grid(9)).get();
    EXPECT_TRUE(between.cache_hit);
    expect_direct(between, grid(9), records);
    EXPECT_EQ(svc.stats().computations, 2u);
}

TEST(ServeColumns, ShallowerFinishNeverDowngradesTheColumn) {
    // One worker and a FIFO queue: the deep flight's jobs run and settle
    // first, then the shallow flight settles over the same columns.
    service_options options;
    options.workers = 1;
    service svc{options};
    svc.add_trace("cjpeg", workload());
    const trace::mem_trace records = workload();

    svc.pause();
    submission deep = svc.submit("cjpeg", grid(12));
    submission shallow = svc.submit("cjpeg", grid(8));
    svc.resume();
    expect_direct(deep.get(), grid(12), records);
    expect_direct(shallow.get(), grid(8), records);
    EXPECT_EQ(svc.stats().computations, 2u);

    // Depth 11 is answered only if the depth-12 columns survived the
    // depth-8 settle.
    const service_result after = svc.submit("cjpeg", grid(11)).get();
    EXPECT_TRUE(after.cache_hit);
    expect_direct(after, grid(11), records);
}

TEST(ServeColumns, OnlyMissingColumnsRun) {
    service svc{};
    svc.add_trace("cjpeg", workload());
    const trace::mem_trace records = workload();
    expect_direct(svc.submit("cjpeg", grid(8)).get(), grid(8), records);
    const std::uint64_t hits_before = metric_value("serve.cache.column_hits");
    const std::uint64_t misses_before =
        metric_value("serve.cache.column_misses");

    // Block 16 is cached, block 64 is not: one job, one decode.
    service_stats before = svc.stats();
    const service_request wider_block = grid(8, {16, 64});
    const service_result one_block = svc.submit("cjpeg", wider_block).get();
    EXPECT_FALSE(one_block.cache_hit);
    expect_direct(one_block, wider_block, records);
    service_stats after = svc.stats();
    EXPECT_EQ(after.shard_jobs - before.shard_jobs, 1u);
    EXPECT_EQ(after.stream_builds - before.stream_builds, 1u);
    EXPECT_EQ(metric_value("serve.cache.column_hits") - hits_before, 2u);
    EXPECT_EQ(metric_value("serve.cache.column_misses") - misses_before, 2u);

    // Associativity 8 is missing at both block sizes: one job per block
    // size, each narrowed to that one associativity.
    before = after;
    const service_request wider_assoc = grid(8, {16, 32}, {2, 4, 8});
    const service_result two_blocks = svc.submit("cjpeg", wider_assoc).get();
    expect_direct(two_blocks, wider_assoc, records);
    after = svc.stats();
    EXPECT_EQ(after.shard_jobs - before.shard_jobs, 2u);
    EXPECT_EQ(after.stream_builds - before.stream_builds, 2u);

    // Everything is cached now: composed on the caller's thread.
    before = after;
    const service_request all = grid(7, {16, 32, 64}, {2, 4});
    const service_result composed = svc.submit("cjpeg", all).get();
    EXPECT_TRUE(composed.cache_hit);
    expect_direct(composed, all, records);
    after = svc.stats();
    EXPECT_EQ(after.shard_jobs, before.shard_jobs);
    EXPECT_EQ(after.computations, before.computations);
}

TEST(ServeColumns, GridListingDirectMappedComposesExactly) {
    service svc{};
    svc.add_trace("cjpeg", workload());
    const trace::mem_trace records = workload();

    const service_request with_dm = grid(9, {16, 32}, {1, 4});
    expect_direct(svc.submit("cjpeg", with_dm).get(), with_dm, records);
    // Its A = 1 column answers a shallower direct-mapped-only grid.
    const service_request dm_only = grid(6, {32}, {1});
    const service_result composed = svc.submit("cjpeg", dm_only).get();
    EXPECT_TRUE(composed.cache_hit);
    expect_direct(composed, dm_only, records);
}

TEST(ServeColumns, CiparAndAblatedRequestsShareTheColumns) {
    service svc{};
    svc.add_trace("cjpeg", workload());
    const trace::mem_trace records = workload();
    expect_direct(svc.submit("cjpeg", grid(10)).get(), grid(10), records);

    // Naming the CIPAR engine or a DEW ablation does not change a miss
    // count, so a shallower such request is a prefix of the cached columns.
    service_request cipar = grid(8);
    cipar.sweep.engine = core::sweep_engine::cipar;
    service_request ablated = grid(9);
    ablated.sweep.options = core::dew_options::unoptimized();
    for (const service_request& request : {cipar, ablated}) {
        const service_result answer = svc.submit("cjpeg", request).get();
        EXPECT_TRUE(answer.cache_hit);
        expect_direct(answer, request, records);
        // Bit-identical to the engine and options it named, too.
        expect_identical(*answer.sweep,
                         core::run_sweep(records, request.sweep));
    }

    // A wider grid naming CIPAR: cached columns plus one computed block
    // size, run by DEW.
    const service_stats before = svc.stats();
    service_request wider = grid(8, {16, 32, 64});
    wider.sweep.engine = core::sweep_engine::cipar;
    const service_result partial = svc.submit("cjpeg", wider).get();
    EXPECT_FALSE(partial.cache_hit);
    expect_direct(partial, wider, records);
    EXPECT_EQ(svc.stats().shard_jobs - before.shard_jobs, 1u);
    EXPECT_EQ(svc.stats().computations, 2u);
}

TEST(ServeColumns, EvictionBetweenSubmitAndSettleKeepsTheAnswerExact) {
    // Two other columns to push into the cache while a flight is queued.
    std::ostringstream image;
    {
        service donor{};
        donor.add_trace("mpeg2", workload(trace::mediabench_app::mpeg2_enc));
        (void)donor.submit("mpeg2", grid(6, {64})).get();
        donor.save_cache(image);
    }

    // One shard, two entries: the cache holds exactly two columns.
    service_options options;
    options.cache = {1, 2};
    service svc{options};
    svc.add_trace("cjpeg", workload());
    const trace::mem_trace records = workload();
    (void)svc.submit("cjpeg", grid(8, {16})).get();

    svc.pause();
    // Block 16's columns come from the cache snapshot; block 32 runs.
    submission pending = svc.submit("cjpeg", grid(8));
    const std::uint64_t evictions = svc.stats().cache_evictions;
    std::istringstream in{image.str()};
    EXPECT_EQ(svc.load_cache(in).loaded, 2u);
    EXPECT_EQ(svc.stats().cache_evictions, evictions + 2);
    svc.resume();

    const service_result answer = pending.get();
    EXPECT_FALSE(answer.cache_hit);
    expect_direct(answer, grid(8), records);
    EXPECT_EQ(svc.stats().shard_jobs, 2u); // block 16 once, block 32 once
}

} // namespace

// The chunked simulation session: streaming sweeps are bit-identical to
// in-memory sweeps on the full paper grid, peak memory is bounded by the
// chunk (not the trace), and the stepping API reports exact results
// mid-stream.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "dew/session.hpp"
#include "dew/simulator.hpp"
#include "dew/sweep.hpp"
#include "trace/fault.hpp"
#include "trace/generator.hpp"
#include "trace/mediabench.hpp"
#include "trace/source.hpp"

namespace {

using namespace dew;
using namespace dew::core;

constexpr std::size_t trace_records = 100'000;

trace::generator_source streaming_workload() {
    return trace::generator_source{
        trace::mediabench_profile(trace::mediabench_app::cjpeg),
        trace::default_seed(trace::mediabench_app::cjpeg), trace_records};
}

trace::mem_trace eager_workload() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                        trace_records);
}

void expect_identical(const sweep_result& a, const sweep_result& b) {
    EXPECT_EQ(a.requests, b.requests);
    ASSERT_EQ(a.passes.size(), b.passes.size());
    for (std::size_t i = 0; i < a.passes.size(); ++i) {
        ASSERT_EQ(a.passes[i].block_size(), b.passes[i].block_size());
        ASSERT_EQ(a.passes[i].associativity(), b.passes[i].associativity());
        for (unsigned level = 0; level <= a.passes[i].max_level(); ++level) {
            EXPECT_EQ(a.passes[i].misses(level, a.passes[i].associativity()),
                      b.passes[i].misses(level, b.passes[i].associativity()))
                << "pass " << i << " level " << level;
            EXPECT_EQ(a.passes[i].misses(level, 1),
                      b.passes[i].misses(level, 1))
                << "pass " << i << " level " << level;
        }
        EXPECT_EQ(a.passes[i].counters().tag_comparisons,
                  b.passes[i].counters().tag_comparisons);
    }
}

TEST(Session, StreamingSweepMatchesInMemorySweepOnPaperGrid) {
    const sweep_request request = sweep_request::paper();
    const sweep_result eager = run_sweep(eager_workload(), request);

    trace::generator_source src = streaming_workload();
    session_options options;
    options.chunk_records = 4096; // force many chunks
    const sweep_result streamed = run_sweep(src, request, options);

    expect_identical(streamed, eager);
    EXPECT_EQ(streamed.requests, trace_records);
}

TEST(Session, ThreadedStreamingSweepIsBitIdentical) {
    sweep_request request;
    request.max_set_exp = 8;
    request.block_sizes = {16, 32, 64};
    request.associativities = {2, 8};
    const sweep_result eager = run_sweep(eager_workload(), request);

    request.threads = 4;
    trace::generator_source src = streaming_workload();
    session_options options;
    options.chunk_records = 8192;
    const sweep_result streamed = run_sweep(src, request, options);
    expect_identical(streamed, eager);
}

TEST(Session, MemoryBoundedByChunkNotTrace) {
    sweep_request request;
    request.max_set_exp = 8;
    request.block_sizes = {16, 32, 64};
    request.associativities = {2, 8};

    session_options options;
    options.chunk_records = 4096;

    // The trace is 100k records = 1.6 MB of mem_access payload, streamed
    // through a 4096-record window; the session's resident buffers must be
    // bounded by the chunk, not the trace.
    trace::generator_source src = streaming_workload();
    session s{src, request, options};
    s.run();
    EXPECT_EQ(s.requests(), trace_records);
    EXPECT_GT(s.steps(), std::size_t{20}); // genuinely chunked

    // Serial pipeline: one chunk of records staged plus one live
    // block-number stream (vector growth may round capacities up, so allow
    // 2x headroom on the analytic bound).
    const std::size_t analytic_bound =
        options.chunk_records *
        (sizeof(trace::mem_access) + sizeof(std::uint64_t));
    EXPECT_LE(s.buffer_bytes(), 2 * analytic_bound);

    const std::size_t trace_bytes =
        trace_records * sizeof(trace::mem_access);
    EXPECT_LT(s.buffer_bytes(), trace_bytes / 10);
}

TEST(Session, InMemorySweepStagesNoChunkCopies) {
    // span_source hands out zero-copy views: the session's chunk buffer
    // stays empty and only the decoded streams occupy memory.
    const trace::mem_trace trace = eager_workload();
    trace::span_source src{{trace.data(), trace.size()}};
    sweep_request request;
    request.max_set_exp = 6;
    request.block_sizes = {32};
    request.associativities = {4};

    session_options options;
    options.chunk_records = 4096;
    session s{src, request, options};
    s.run();
    EXPECT_EQ(s.requests(), trace.size());
    EXPECT_LE(s.buffer_bytes(),
              2 * options.chunk_records * sizeof(std::uint64_t));
}

TEST(Session, StepReportsExactResultsMidStream) {
    sweep_request request;
    request.max_set_exp = 6;
    request.block_sizes = {32};
    request.associativities = {4};

    trace::generator_source src = streaming_workload();
    session_options options;
    options.chunk_records = 10'000;
    session s{src, request, options};

    ASSERT_TRUE(s.step());
    EXPECT_EQ(s.requests(), 10'000u);
    const sweep_result partial = s.result();
    EXPECT_EQ(partial.requests, 10'000u);

    // The partial result equals a one-shot sweep of the trace prefix.
    trace::mem_trace prefix = eager_workload();
    prefix.resize(10'000);
    expect_identical(partial, run_sweep(prefix, request));

    s.run();
    EXPECT_TRUE(s.exhausted());
    EXPECT_FALSE(s.failed());
    // Post-exhaustion stepping is idempotent: a scheduler may re-poll a
    // drained session any number of times.
    EXPECT_FALSE(s.step());
    EXPECT_FALSE(s.step());
    EXPECT_EQ(s.requests(), trace_records);
    expect_identical(s.result(), run_sweep(eager_workload(), request));
}

TEST(Session, CountedInstrumentationStreamsIdentically) {
    sweep_request request;
    request.max_set_exp = 6;
    request.block_sizes = {16, 32};
    request.associativities = {2, 4};
    request.instrumentation = sweep_instrumentation::full_counters;

    const sweep_result eager = run_sweep(eager_workload(), request);
    trace::generator_source src = streaming_workload();
    session_options options;
    options.chunk_records = 4096;
    const sweep_result streamed = run_sweep(src, request, options);
    expect_identical(streamed, eager);
    EXPECT_EQ(streamed.total_counters().node_evaluations,
              eager.total_counters().node_evaluations);
    EXPECT_EQ(streamed.total_counters().searches,
              eager.total_counters().searches);
}

TEST(Session, CiparEngineStreamsBitIdenticalToDewEngine) {
    // Engine selection is a sweep_request field: the same streamed request
    // through the CIPAR engine must reproduce the DEW engine's counts on
    // every pass — serial and chunked.
    sweep_request request;
    request.max_set_exp = 8;
    request.block_sizes = {16, 32, 64};
    request.associativities = {2, 8};
    const sweep_result dew_result = run_sweep(eager_workload(), request);

    request.engine = sweep_engine::cipar;
    trace::generator_source src = streaming_workload();
    session_options options;
    options.chunk_records = 4096;
    const sweep_result cipar_result = run_sweep(src, request, options);
    expect_identical(cipar_result, dew_result);
}

TEST(Session, CiparEngineThreadedIsBitIdentical) {
    sweep_request request;
    request.max_set_exp = 8;
    request.block_sizes = {16, 32};
    request.associativities = {2, 4};
    request.engine = sweep_engine::cipar;
    const sweep_result serial = run_sweep(eager_workload(), request);

    request.threads = 4;
    trace::generator_source src = streaming_workload();
    session_options options;
    options.chunk_records = 8192;
    const sweep_result threaded = run_sweep(src, request, options);
    expect_identical(threaded, serial);
}

TEST(Session, CiparCountedSweepSurfacesGenericCounters) {
    // Engine-specific cipar counters live on the simulator, but the
    // engine-agnostic ones must flow through the sweep result so counted
    // sweeps stay comparable across engines.
    sweep_request request;
    request.max_set_exp = 6;
    request.block_sizes = {32};
    request.associativities = {4};
    request.engine = sweep_engine::cipar;
    request.instrumentation = sweep_instrumentation::full_counters;

    const sweep_result result = run_sweep(eager_workload(), request);
    EXPECT_EQ(result.total_counters().requests, trace_records);
    // Table-4 convention: requests x levels x |{1, A}|.
    EXPECT_EQ(result.total_counters().unoptimized_evaluations,
              trace_records * 7 * 2);
}

TEST(Session, WorkerExceptionRethrownOnOwningThread) {
    // A block number equal to the invalid-tag sentinel makes
    // simulate_blocks throw a contract violation.  On the threaded path
    // that throw happens on a worker thread; it must surface from step()
    // on the owning thread (it used to escape the thread body and
    // std::terminate the process), and the session must refuse to
    // continue afterwards.
    trace::mem_trace poisoned{{~std::uint64_t{0}, trace::access_type::read}};

    sweep_request request;
    request.max_set_exp = 4;
    request.block_sizes = {1}; // block number == address == sentinel
    request.associativities = {2, 4};
    request.threads = 2;

    trace::span_source src{{poisoned.data(), poisoned.size()}};
    session s{src, request};
    EXPECT_THROW(s.run(), contract_violation);
    EXPECT_TRUE(s.exhausted());
    EXPECT_TRUE(s.failed());
    // A failed session never simulates again, and a scheduler re-polling it
    // sees the stored fault on every step — not a silent end-of-stream.
    EXPECT_THROW(s.step(), contract_violation);
    EXPECT_THROW(s.step(), contract_violation);
    EXPECT_THROW(s.run(), contract_violation);
    // The partially-fed passes are inconsistent with each other; results
    // are refused the same way.
    EXPECT_THROW((void)s.result(), contract_violation);

    // The serial path throws the same exception from the same request, and
    // stores it the same way.
    trace::span_source serial_src{{poisoned.data(), poisoned.size()}};
    sweep_request serial_request = request;
    serial_request.threads = 0;
    session serial{serial_src, serial_request};
    EXPECT_THROW(serial.run(), contract_violation);
    EXPECT_TRUE(serial.failed());
    EXPECT_THROW(serial.step(), contract_violation);
}

TEST(Session, SourceFaultMidStreamLeavesExactPrefixAndSessionServiceable) {
    // An io_fault from the source is an input failure, not a session
    // failure: the session has faithfully simulated every record it was
    // fed, so failed() stays false, the prefix results stay readable and
    // bit-exact, and only the dead source keeps rethrowing.
    sweep_request request;
    request.max_set_exp = 6;
    request.block_sizes = {32};
    request.associativities = {4};

    const trace::mem_trace full = eager_workload();
    trace::span_source upstream{{full.data(), full.size()}};
    trace::fault_source faulty{upstream,
                               {trace::fault_kind::throw_after, 10'000, 0}};

    session_options options;
    options.chunk_records = 4096;
    session s{faulty, request, options};
    EXPECT_THROW(s.run(), trace::io_fault);
    EXPECT_FALSE(s.failed()); // the engine never misbehaved
    EXPECT_EQ(s.requests(), 10'000u); // 4096 + 4096 + 1808

    // The fed prefix is exactly the first 10'000 records, simulated
    // bit-identically to a one-shot sweep of that prefix.
    trace::mem_trace prefix = full;
    prefix.resize(10'000);
    expect_identical(s.result(), run_sweep(prefix, request));

    // Re-stepping rereads the dead source: the fault fires again, the
    // session stays un-poisoned and its results stay readable.
    EXPECT_THROW(s.step(), trace::io_fault);
    EXPECT_FALSE(s.failed());
    expect_identical(s.result(), run_sweep(prefix, request));
}

TEST(Session, TruncationFaultIsIndistinguishableFromAShortTrace) {
    // truncate_after ends the stream silently; the session must complete
    // cleanly with the same answer as a genuinely shorter trace — through
    // the convenience run_sweep(source&) path too.
    sweep_request request;
    request.max_set_exp = 6;
    request.block_sizes = {16, 32};
    request.associativities = {2, 4};
    request.threads = 2; // exercise the threaded path as well

    const trace::mem_trace full = eager_workload();
    trace::span_source upstream{{full.data(), full.size()}};
    trace::fault_source truncated{
        upstream, {trace::fault_kind::truncate_after, 25'000, 0}};

    session_options options;
    options.chunk_records = 4096;
    const sweep_result streamed = run_sweep(truncated, request, options);
    EXPECT_EQ(streamed.requests, 25'000u);

    trace::mem_trace prefix = full;
    prefix.resize(25'000);
    expect_identical(streamed, run_sweep(prefix, request));
}

TEST(Session, RejectsInvalidRequestsUpFront) {
    trace::generator_source src = streaming_workload();
    sweep_request bad;
    bad.block_sizes = {12};
    EXPECT_THROW((session{src, bad}), std::invalid_argument);

    sweep_request good;
    session_options zero_chunk;
    zero_chunk.chunk_records = 0;
    EXPECT_THROW((session{src, good, zero_chunk}), std::invalid_argument);
}

// --- The shared stage 1 --------------------------------------------------
// A session runs the MRA plane once per block size and every associativity
// pass's record walk on its output; each pass must still equal a standalone
// simulator that walked its own plane, counters included.

// The extreme block numbers of extreme_address_test: a random low trace
// interleaved with its copy near the top of the address space, then a run
// down from the last legal block number at block size 1.
trace::mem_trace extreme_workload() {
    const trace::mem_trace low =
        trace::make_random_trace(0, 1 << 12, 1500, 0xE57, 4);
    const std::uint64_t offset = 0xFFFF'FF00'0000'0000ull;
    trace::mem_trace mixed;
    for (const trace::mem_access& access : low) {
        mixed.push_back(access);
        mixed.push_back({access.address + offset, access.type});
    }
    for (std::uint64_t i = 0; i < 300; ++i) {
        mixed.push_back(
            {~std::uint64_t{0} - 1 - (i % 40) * 64, trace::access_type::read});
    }
    return mixed;
}

void expect_same_pass(const dew_result& got, const dew_result& want) {
    ASSERT_EQ(got.block_size(), want.block_size());
    ASSERT_EQ(got.associativity(), want.associativity());
    EXPECT_EQ(got.requests(), want.requests());
    for (unsigned level = 0; level <= want.max_level(); ++level) {
        EXPECT_EQ(got.misses(level, want.associativity()),
                  want.misses(level, want.associativity()))
            << "level " << level;
        EXPECT_EQ(got.misses(level, 1), want.misses(level, 1))
            << "level " << level;
    }
    const dew_counters& a = got.counters();
    const dew_counters& b = want.counters();
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.node_evaluations, b.node_evaluations);
    EXPECT_EQ(a.unoptimized_evaluations, b.unoptimized_evaluations);
    EXPECT_EQ(a.mra_hits, b.mra_hits);
    EXPECT_EQ(a.wave_checks, b.wave_checks);
    EXPECT_EQ(a.mre_determinations, b.mre_determinations);
    EXPECT_EQ(a.searches, b.searches);
    EXPECT_EQ(a.wave_hit_determinations, b.wave_hit_determinations);
    EXPECT_EQ(a.wave_miss_determinations, b.wave_miss_determinations);
    EXPECT_EQ(a.mre_swaps, b.mre_swaps);
    EXPECT_EQ(a.tag_comparisons, b.tag_comparisons);
}

template <class Instrumentation>
std::vector<dew_result> standalone_passes(const trace::mem_trace& trace,
                                          const sweep_request& request) {
    std::vector<dew_result> passes;
    for (const std::uint32_t block : request.block_sizes) {
        for (const std::uint32_t assoc : request.associativities) {
            basic_dew_simulator<Instrumentation> sim{
                request.max_set_exp, assoc, block, request.options};
            sim.simulate(trace);
            passes.push_back(sim.result());
        }
    }
    return passes;
}

TEST(Session, SharedStageMatchesStandalonePasses) {
    const trace::mem_trace trace = extreme_workload();
    sweep_request request;
    request.max_set_exp = 6;
    request.block_sizes = {1, 16, 64};
    // 1 and 32 take the generic (non-static) walk instantiations.
    request.associativities = {1, 2, 32};

    struct variant {
        const char* name;
        dew_options options;
    };
    const variant variants[] = {
        {"dew", dew_options{}},
        {"mre_depth 3", dew_options{true, true, true, 3}},
        {"no mra stop", dew_options{false, true, true, 1}},
        {"no wave", dew_options{true, false, true, 1}},
        {"no mre", dew_options{true, true, false, 1}},
    };
    for (const variant& v : variants) {
        request.options = v.options;
        const std::vector<dew_result> counted =
            standalone_passes<full_counters>(trace, request);
        const std::vector<dew_result> fast_passes =
            standalone_passes<fast>(trace, request);
        for (const sweep_instrumentation instrumentation :
             {sweep_instrumentation::full_counters,
              sweep_instrumentation::fast}) {
            request.instrumentation = instrumentation;
            const std::vector<dew_result>& want =
                instrumentation == sweep_instrumentation::fast ? fast_passes
                                                               : counted;
            for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                            std::size_t{4096}}) {
                for (const unsigned threads : {0u, 3u}) {
                    SCOPED_TRACE(std::string{v.name} + ", chunk " +
                                 std::to_string(chunk) + ", threads " +
                                 std::to_string(threads) + ", counted " +
                                 std::to_string(instrumentation ==
                                                sweep_instrumentation::
                                                    full_counters));
                    request.threads = threads;
                    trace::span_source src{{trace.data(), trace.size()}};
                    session_options options;
                    options.chunk_records = chunk;
                    const sweep_result got = run_sweep(src, request, options);
                    ASSERT_EQ(got.passes.size(), want.size());
                    for (std::size_t i = 0; i < want.size(); ++i) {
                        expect_same_pass(got.passes[i], want[i]);
                    }
                }
            }
        }
    }
}

} // namespace

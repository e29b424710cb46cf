// Microbenchmarks (google-benchmark): throughput of the primitives the
// end-to-end numbers of Tables 3/4 are built from — set-model probes, the
// DEW tree walk (counted and fast instrumentation policies), per-
// configuration baseline simulation, trace generation and trace I/O decode.
// These quantify the constant factors behind the complexity claims (DEW
// O(log2 X) on a resident tag vs O(log2 X * A) per configuration for the
// baseline).
//
// Before the google-benchmark suite runs, main() measures the DEW hot path
// in three build-ups — the frozen seed path (segmented tree + unconditional
// counters, bench/seed_baseline.hpp), the packed arena with full counters,
// and the packed arena with the fast policy — and writes the accesses/sec
// numbers to BENCH_micro.json so successive PRs accumulate a machine-
// readable perf trajectory.  docs/PERF.md explains the fields.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include <future>
#include <vector>

#include "baseline/dinero_sim.hpp"
#include "cache/set_model.hpp"
#include "cipar/simulator.hpp"
#include "dew/session.hpp"
#include "dew/simulator.hpp"
#include "dew/sweep.hpp"
#include "lru/janapsatya_sim.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/recorder.hpp"
#include "phase/representative_sweep.hpp"
#include "seed_baseline.hpp"
#include "serve/service.hpp"
#include "trace/binary_io.hpp"
#include "trace/compressed_io.hpp"
#include "trace/fault.hpp"
#include "trace/mediabench.hpp"
#include "trace/source.hpp"

namespace {

using namespace dew;

// A medium-locality workload reused by every micro bench; size kept well
// above L1 working sets so the simulators do real eviction work.
const trace::mem_trace& bench_trace() {
    static const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 200'000);
    return trace;
}

void BM_FifoSetAccess(benchmark::State& state) {
    const auto assoc = static_cast<std::uint32_t>(state.range(0));
    cache::fifo_cache_state cache{1024, assoc};
    const trace::mem_trace& trace = bench_trace();
    std::size_t i = 0;
    for (auto _ : state) {
        const std::uint64_t block = trace[i].address >> 5;
        benchmark::DoNotOptimize(
            cache.access(static_cast<std::uint32_t>(block & 1023), block));
        if (++i == trace.size()) {
            i = 0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoSetAccess)->Arg(1)->Arg(4)->Arg(16);

void BM_LruSetAccess(benchmark::State& state) {
    const auto assoc = static_cast<std::uint32_t>(state.range(0));
    cache::lru_cache_state cache{1024, assoc};
    const trace::mem_trace& trace = bench_trace();
    std::size_t i = 0;
    for (auto _ : state) {
        const std::uint64_t block = trace[i].address >> 5;
        benchmark::DoNotOptimize(
            cache.access(static_cast<std::uint32_t>(block & 1023), block));
        if (++i == trace.size()) {
            i = 0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruSetAccess)->Arg(1)->Arg(4)->Arg(16);

// One full DEW pass: 15 set sizes x associativities {1, A} in one walk,
// with the full Table-3/4 instrumentation compiled in.
void BM_DewPass(benchmark::State& state) {
    const auto assoc = static_cast<std::uint32_t>(state.range(0));
    const trace::mem_trace& trace = bench_trace();
    for (auto _ : state) {
        core::dew_simulator sim{14, assoc, 32};
        sim.simulate(trace);
        benchmark::DoNotOptimize(sim.counters().tag_comparisons);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_DewPass)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// The same pass under the fast policy: counter updates compile to nothing.
void BM_DewPassFast(benchmark::State& state) {
    const auto assoc = static_cast<std::uint32_t>(state.range(0));
    const trace::mem_trace& trace = bench_trace();
    for (auto _ : state) {
        core::fast_dew_simulator sim{14, assoc, 32};
        sim.simulate(trace);
        benchmark::DoNotOptimize(sim.result().misses(14, assoc));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_DewPassFast)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Fast pass on a pre-decoded block stream: what one run_sweep pass costs
// once the shared stream exists.
void BM_DewPassFastBlocks(benchmark::State& state) {
    const auto assoc = static_cast<std::uint32_t>(state.range(0));
    const std::vector<std::uint64_t> blocks =
        trace::block_numbers(bench_trace(), 5);
    for (auto _ : state) {
        core::fast_dew_simulator sim{14, assoc, 32};
        sim.simulate_blocks(blocks);
        benchmark::DoNotOptimize(sim.result().misses(14, assoc));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(blocks.size()));
}
BENCHMARK(BM_DewPassFastBlocks)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The CIPARSim-style engine over the same column: one hash probe per access
// instead of a tree walk.  Counted and fast instrumentation policies.
void BM_CiparPass(benchmark::State& state) {
    const auto assoc = static_cast<std::uint32_t>(state.range(0));
    const trace::mem_trace& trace = bench_trace();
    for (auto _ : state) {
        cipar::cipar_simulator sim{14, assoc, 32};
        sim.simulate(trace);
        benchmark::DoNotOptimize(sim.counters().full_hits);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_CiparPass)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_CiparPassFast(benchmark::State& state) {
    const auto assoc = static_cast<std::uint32_t>(state.range(0));
    const trace::mem_trace& trace = bench_trace();
    for (auto _ : state) {
        cipar::fast_cipar_simulator sim{14, assoc, 32};
        sim.simulate(trace);
        benchmark::DoNotOptimize(sim.result().misses(14, assoc));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_CiparPassFast)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The same coverage the pre-DEW way: 30 independent baseline runs.
void BM_BaselineSweep(benchmark::State& state) {
    const auto assoc = static_cast<std::uint32_t>(state.range(0));
    const trace::mem_trace& trace = bench_trace();
    for (auto _ : state) {
        std::uint64_t comparisons = 0;
        for (unsigned level = 0; level <= 14; ++level) {
            for (const std::uint32_t a : {1u, assoc}) {
                baseline::dinero_sim sim{{std::uint32_t{1} << level, a, 32}};
                sim.simulate(trace);
                comparisons += sim.stats().tag_comparisons;
            }
        }
        benchmark::DoNotOptimize(comparisons);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()) * 30);
}
BENCHMARK(BM_BaselineSweep)->Arg(4)->Unit(benchmark::kMillisecond);

// Janapsatya-style LRU tree pass for scale against DEW's FIFO pass.
void BM_JanapsatyaPass(benchmark::State& state) {
    const trace::mem_trace& trace = bench_trace();
    for (auto _ : state) {
        lru::janapsatya_sim sim{14, 8, 32};
        sim.simulate(trace);
        benchmark::DoNotOptimize(sim.counters().tag_comparisons);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_JanapsatyaPass)->Unit(benchmark::kMillisecond);

// Whole-space sweep: serial vs worker threads (passes are independent and
// share one block stream per block size).
void BM_Sweep(benchmark::State& state) {
    const auto threads = static_cast<unsigned>(state.range(0));
    const trace::mem_trace& trace = bench_trace();
    core::sweep_request request;
    request.max_set_exp = 10;
    request.block_sizes = {16, 32, 64};
    request.associativities = {4, 8};
    request.threads = threads;
    for (auto _ : state) {
        const core::sweep_result result = core::run_sweep(trace, request);
        benchmark::DoNotOptimize(result.requests);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()) * 6);
}
BENCHMARK(BM_Sweep)->Arg(0)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(trace::make_mediabench_trace(
            trace::mediabench_app::mpeg2_enc, 100'000));
    }
    state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

void BM_BinaryDecode(benchmark::State& state) {
    std::ostringstream encoded;
    trace::write_binary(encoded, bench_trace());
    const std::string payload = encoded.str();
    for (auto _ : state) {
        std::istringstream in{payload};
        benchmark::DoNotOptimize(trace::read_binary(in));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_BinaryDecode)->Unit(benchmark::kMillisecond);

void BM_CompressedDecode(benchmark::State& state) {
    std::ostringstream encoded;
    trace::write_compressed(encoded, bench_trace());
    const std::string payload = encoded.str();
    for (auto _ : state) {
        std::istringstream in{payload};
        benchmark::DoNotOptimize(trace::read_compressed(in));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_CompressedDecode)->Unit(benchmark::kMillisecond);

// --- BENCH_micro.json -------------------------------------------------------

constexpr unsigned json_max_level = 14;
constexpr std::uint32_t json_assoc = 4;
constexpr std::uint32_t json_block = 32;
constexpr int json_repetitions = 5;

struct micro_measurement {
    double accesses_per_sec{0.0}; // simulation only, best cold pass of N
    double construct_ms{0.0};     // tree allocation + cold-state init
};

// Best-of-N simulation throughput of a cold simulator per rep;
// construction is timed separately so the steady-state number is not
// polluted by one-off allocation (and the allocation cost stays visible).
template <class Sim>
micro_measurement measure(const trace::mem_trace& trace) {
    micro_measurement m;
    double best_sim = 1e300;
    double best_construct = 1e300;
    for (int rep = 0; rep < json_repetitions; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        Sim sim{json_max_level, json_assoc, json_block};
        const auto t1 = std::chrono::steady_clock::now();
        sim.simulate(trace);
        const auto t2 = std::chrono::steady_clock::now();
        best_construct = std::min(
            best_construct, std::chrono::duration<double>(t1 - t0).count());
        best_sim = std::min(best_sim,
                            std::chrono::duration<double>(t2 - t1).count());
    }
    m.accesses_per_sec = static_cast<double>(trace.size()) / best_sim;
    m.construct_ms = best_construct * 1e3;
    return m;
}

// Peak resident bytes per reference of the whole-space sweep, eager versus
// streaming.  The eager sweep holds the 16-byte-per-reference trace plus the
// session's chunk-bounded stream buffers; the streaming sweep pulls the same
// workload out of a generator_source and never materialises the trace, so
// its peak is the session buffers alone — the memory win the streaming
// redesign exists for, tracked alongside throughput.
struct sweep_measurement {
    double accesses_per_sec{0.0};
    double peak_bytes_per_ref{0.0};
};

struct sweep_comparison {
    sweep_measurement eager;
    sweep_measurement streaming;
};

// The 6-pass request shared by the eager/streaming comparison and the
// phase measurement, so ratio_phase_rep_vs_streaming_sweep stays an
// equal-request comparison by construction.
core::sweep_request json_sweep_request() {
    core::sweep_request request;
    request.max_set_exp = 10;
    request.block_sizes = {16, 32, 64};
    request.associativities = {4, 8};
    return request;
}

sweep_comparison measure_sweeps() {
    const trace::mem_trace& trace = bench_trace();
    const core::sweep_request request = json_sweep_request();
    const core::session_options options{}; // default chunk

    sweep_comparison result;
    core::sweep_result eager_result;
    core::sweep_result streaming_result;

    double best = 1e300;
    for (int rep = 0; rep < json_repetitions; ++rep) {
        trace::span_source src{{trace.data(), trace.size()}};
        core::session session{src, request, options};
        const auto t0 = std::chrono::steady_clock::now();
        session.run();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
        result.eager.peak_bytes_per_ref =
            static_cast<double>(trace.size() * sizeof(trace::mem_access) +
                                session.buffer_bytes()) /
            static_cast<double>(trace.size());
        eager_result = session.result();
    }
    result.eager.accesses_per_sec =
        static_cast<double>(trace.size()) / best;

    best = 1e300;
    for (int rep = 0; rep < json_repetitions; ++rep) {
        trace::generator_source src{
            trace::mediabench_profile(trace::mediabench_app::cjpeg),
            trace::default_seed(trace::mediabench_app::cjpeg), trace.size()};
        core::session session{src, request, options};
        const auto t0 = std::chrono::steady_clock::now();
        session.run();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
        result.streaming.peak_bytes_per_ref =
            static_cast<double>(session.buffer_bytes()) /
            static_cast<double>(trace.size());
        streaming_result = session.result();
    }
    result.streaming.accesses_per_sec =
        static_cast<double>(trace.size()) / best;

    // Exactness first: the streamed sweep must agree with the eager sweep on
    // every miss count before the memory numbers mean anything.
    DEW_ASSERT(eager_result.passes.size() == streaming_result.passes.size());
    for (std::size_t i = 0; i < eager_result.passes.size(); ++i) {
        const core::dew_result& a = eager_result.passes[i];
        const core::dew_result& b = streaming_result.passes[i];
        for (unsigned level = 0; level <= a.max_level(); ++level) {
            DEW_ASSERT(a.misses(level, a.associativity()) ==
                       b.misses(level, b.associativity()));
            DEW_ASSERT(a.misses(level, 1) == b.misses(level, 1));
        }
    }
    return result;
}

// Representative-interval sweep on the micro trace and the sweep request
// the eager/streaming comparison uses: effective throughput (trace records
// per wall second, analysis included — the work not done is the point),
// simulated fraction, and the calibrated worst-case miss-rate error.
struct phase_measurement {
    double accesses_per_sec{0.0}; // total_records / best (analysis + sim)
    double simulated_fraction{0.0};
    double max_abs_error_pp{0.0};
    std::uint64_t phases{0};
    std::uint64_t intervals{0};
};

phase_measurement measure_phase() {
    const trace::mem_trace& trace = bench_trace();
    phase::representative_sweep_request request;
    request.sweep = json_sweep_request();
    request.phase.interval_records = 8192;
    request.phase.max_phases = 8;
    request.warmup_records = 4096;

    phase_measurement m;
    // One calibrated run measures the error; the timed runs skip the exact
    // pass so the throughput number is the estimator's own cost.
    request.calibrate = true;
    {
        const phase::representative_sweep_result calibrated =
            phase::representative_sweep(trace, request);
        m.max_abs_error_pp = calibrated.max_abs_error_pp;
        m.phases = calibrated.phases.plan.phases.size();
        m.intervals = calibrated.phases.plan.total_intervals;
        m.simulated_fraction = calibrated.simulated_fraction();
    }
    request.calibrate = false;
    double best = 1e300;
    for (int rep = 0; rep < json_repetitions; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const phase::representative_sweep_result result =
            phase::representative_sweep(trace, request);
        const auto t1 = std::chrono::steady_clock::now();
        DEW_ASSERT(result.total_records == trace.size());
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    m.accesses_per_sec = static_cast<double>(trace.size()) / best;
    return m;
}

// The sweep service under a duplicate-heavy storm: three distinct requests
// (the shared 6-pass sweep at three depths), each submitted 8x with the
// workers gated so the duplicates provably coalesce, then the whole storm
// replayed against the warm cache.  Requests/sec covers both waves —
// absorption, not raw simulation, is what the service adds; bench_service
// breaks the same quantities down per phase.
struct service_measurement {
    double requests_per_sec{0.0};
    double cache_hit_rate{0.0};
    double coalesce_factor{0.0};
    // Robustness quantities, each measured on a dedicated small service
    // with a by-construction expected value (asserted below): half the
    // deadline wave expires → timeout_rate 0.5; every injected transient
    // fault recovers on its first retry → retry_success_rate 1.0; every
    // over-watermark exact request sheds → degraded_served counts them.
    double timeout_rate{0.0};
    double retry_success_rate{0.0};
    std::uint64_t degraded_served{0};
    // Warm in-process submit->get round-trip percentiles (cache-hit path),
    // the in-process analogue of the net_p*_ms fields.
    double p50_ms{0.0};
    double p95_ms{0.0};
    double p99_ms{0.0};
    // Observability cost on the storm + replay serving mix: recording
    // enabled vs runtime-disabled (one relaxed load — the compiled-off
    // stand-in, see docs/OBSERVABILITY.md), as a percentage slowdown: the
    // median per-pair ratio, and the interquartile range of those ratios.
    double obs_overhead_pct{0.0};
    double obs_overhead_spread_pct{0.0};
};

service_measurement measure_service() {
    const trace::mem_trace& trace = bench_trace();
    serve::service service{
        {2, 256, serve::overflow_policy::block, {8, 256}}};
    service.add_trace("micro", trace);

    std::vector<serve::service_request> requests;
    for (const unsigned exp : {8u, 9u, 10u}) {
        serve::service_request request;
        request.sweep = json_sweep_request();
        request.sweep.max_set_exp = exp;
        requests.push_back(request);
    }

    // Exactness first: the service's answer must equal the direct sweep
    // bit for bit before its throughput means anything.
    {
        const serve::service_result answer =
            service.submit("micro", requests.back()).get();
        const core::sweep_result direct =
            core::run_sweep(trace, requests.back().sweep);
        DEW_ASSERT(answer.sweep->passes.size() == direct.passes.size());
        for (std::size_t i = 0; i < direct.passes.size(); ++i) {
            for (unsigned level = 0;
                 level <= direct.passes[i].max_level(); ++level) {
                DEW_ASSERT(
                    answer.sweep->passes[i].misses(
                        level, direct.passes[i].associativity()) ==
                    direct.passes[i].misses(
                        level, direct.passes[i].associativity()));
                DEW_ASSERT(answer.sweep->passes[i].misses(level, 1) ==
                           direct.passes[i].misses(level, 1));
            }
        }
    }

    serve::service storm{{2, 256, serve::overflow_policy::block, {8, 256}}};
    storm.add_trace("micro", trace);
    constexpr std::size_t storm_duplicates = 8;
    std::vector<serve::submission> handles;
    handles.reserve(requests.size() * storm_duplicates * 2);
    const auto t0 = std::chrono::steady_clock::now();
    storm.pause();
    for (std::size_t d = 0; d < storm_duplicates; ++d) {
        for (const serve::service_request& request : requests) {
            handles.push_back(storm.submit("micro", request));
        }
    }
    storm.resume();
    for (serve::submission& handle : handles) {
        (void)handle.get();
    }
    handles.clear(); // a future is single-get; the replay wave starts fresh
    for (std::size_t d = 0; d < storm_duplicates; ++d) {
        for (const serve::service_request& request : requests) {
            handles.push_back(storm.submit("micro", request));
        }
    }
    for (serve::submission& handle : handles) {
        (void)handle.get();
    }
    const auto t1 = std::chrono::steady_clock::now();

    const serve::service_stats stats = storm.stats();
    service_measurement m;
    m.requests_per_sec =
        static_cast<double>(stats.submitted) /
        std::chrono::duration<double>(t1 - t0).count();
    m.cache_hit_rate = stats.cache_hit_rate();
    m.coalesce_factor = stats.coalesce_factor();

    // Sequential warm round trips against the storm service's cache for
    // the in-process latency distribution.
    {
        std::vector<double> latencies;
        constexpr std::size_t probes = 96;
        latencies.reserve(probes);
        for (std::size_t i = 0; i < probes; ++i) {
            const auto s0 = std::chrono::steady_clock::now();
            (void)storm.submit("micro", requests[i % requests.size()]).get();
            const auto s1 = std::chrono::steady_clock::now();
            latencies.push_back(
                std::chrono::duration<double, std::milli>(s1 - s0).count());
        }
        std::sort(latencies.begin(), latencies.end());
        m.p50_ms = latencies[latencies.size() / 2];
        m.p95_ms = latencies[latencies.size() * 95 / 100];
        m.p99_ms = latencies[latencies.size() * 99 / 100];
    }

    // Observability overhead on the serving mix (the storm + replay wave
    // requests_per_sec times: computations, coalescing and cache hits
    // together), recording on vs runtime-off.  A pure cache-hit
    // denominator would price spans against a ~1 µs lookup and nothing
    // else; the < 2% budget is about serving real work.  One mix round
    // is ~75 ms, where shared-machine scheduler noise runs an order of
    // magnitude above the true span cost, so the estimator is built for
    // that regime: on/off run as adjacent pairs (sharing the machine's
    // drift state) with alternating order, each pair yields one on/off
    // slowdown ratio, and the reported figure is the median of the pair
    // ratios with their interquartile range beside it — a small real cost
    // reads as a small positive median, and the spread says how much of
    // it the noise could explain.
    {
        const auto mix_seconds = [&] {
            serve::service wave_service{
                {2, 256, serve::overflow_policy::block, {8, 256}}};
            wave_service.add_trace("micro", trace);
            std::vector<serve::submission> wave;
            wave.reserve(requests.size() * storm_duplicates * 2);
            const auto b0 = std::chrono::steady_clock::now();
            wave_service.pause();
            for (std::size_t d = 0; d < storm_duplicates; ++d) {
                for (const serve::service_request& request : requests) {
                    wave.push_back(wave_service.submit("micro", request));
                }
            }
            wave_service.resume();
            for (serve::submission& handle : wave) {
                (void)handle.get();
            }
            wave.clear();
            for (std::size_t d = 0; d < storm_duplicates; ++d) {
                for (const serve::service_request& request : requests) {
                    wave.push_back(wave_service.submit("micro", request));
                }
            }
            for (serve::submission& handle : wave) {
                (void)handle.get();
            }
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - b0)
                .count();
        };
        const auto timed = [&](bool obs_on) {
            obs::recorder::instance().set_enabled(obs_on);
            return mix_seconds();
        };
        // One discarded warmup round: the first fresh-service wave pays
        // allocator growth and page faults that would otherwise be billed
        // to whichever side runs first.
        (void)mix_seconds();
        std::vector<double> pair_ratios;
        constexpr int obs_pairs = 16;
        pair_ratios.reserve(obs_pairs);
        for (int round = 0; round < obs_pairs; ++round) {
            double on_seconds = 0.0;
            double off_seconds = 0.0;
            if (round % 2 == 0) {
                on_seconds = timed(true);
                off_seconds = timed(false);
            } else {
                off_seconds = timed(false);
                on_seconds = timed(true);
            }
            pair_ratios.push_back(on_seconds / off_seconds - 1.0);
        }
        obs::recorder::instance().set_enabled(true);
        // Median and interquartile range of the pair ratios, unclamped: a
        // negative median says the two sides are within the noise.
        std::sort(pair_ratios.begin(), pair_ratios.end());
        const std::size_t n = pair_ratios.size();
        m.obs_overhead_pct =
            50.0 * (pair_ratios[n / 2 - 1] + pair_ratios[n / 2]);
        m.obs_overhead_spread_pct =
            100.0 * (pair_ratios[3 * n / 4] - pair_ratios[n / 4]);
    }

    // Timeout rate, by construction 0.5: half of a gated wave carries an
    // already-impossible 1 ns deadline, the other half none.
    {
        serve::service deadlines{
            {2, 256, serve::overflow_policy::block, {4, 64}}};
        deadlines.add_trace("micro", trace);
        deadlines.pause();
        std::vector<serve::submission> wave;
        for (std::size_t i = 0; i < 2 * requests.size(); ++i) {
            serve::service_request request = requests[i % requests.size()];
            request.deadline = i % 2 == 0 ? std::chrono::nanoseconds{1}
                                          : std::chrono::nanoseconds{0};
            wave.push_back(deadlines.submit("micro", request));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
        deadlines.resume();
        std::uint64_t expired = 0;
        for (serve::submission& handle : wave) {
            try {
                (void)handle.get();
            } catch (const serve::service_timeout&) {
                ++expired;
            }
        }
        DEW_ASSERT(expired == requests.size());
        m.timeout_rate = deadlines.stats().timeout_rate();
        DEW_ASSERT(m.timeout_rate == 0.5);
    }

    // Retry success rate, by construction 1.0: the injection hook fails
    // every flight's first attempt, and every retry then succeeds.
    {
        serve::service_options faulty_options{
            2, 256, serve::overflow_policy::block, {4, 64}};
        faulty_options.retry_backoff = std::chrono::nanoseconds{0};
        faulty_options.fault_hook = [](std::size_t, unsigned attempt) {
            if (attempt == 0) {
                throw trace::io_fault{"bench: injected transient fault"};
            }
        };
        serve::service faulty{faulty_options};
        faulty.add_trace("micro", trace);
        std::vector<serve::submission> wave;
        for (const serve::service_request& request : requests) {
            wave.push_back(faulty.submit("micro", request));
        }
        for (serve::submission& handle : wave) {
            DEW_ASSERT(handle.get().flight_retries == 1);
        }
        const serve::service_stats faulty_stats = faulty.stats();
        DEW_ASSERT(faulty_stats.retries == requests.size());
        m.retry_success_rate = faulty_stats.retry_success_rate();
        DEW_ASSERT(m.retry_success_rate == 1.0);
    }

    // Degraded serves, by construction |requests| - 1: with the watermark
    // at 1, everything submitted behind the first gated exact request
    // sheds to the estimate tier.
    {
        serve::service_options degrade_options{
            2, 256, serve::overflow_policy::degrade, {4, 64}};
        degrade_options.degrade_watermark = 1;
        serve::service degrade{degrade_options};
        degrade.add_trace("micro", trace);
        degrade.pause();
        std::vector<serve::submission> wave;
        for (const serve::service_request& request : requests) {
            wave.push_back(degrade.submit("micro", request));
        }
        degrade.resume();
        std::uint64_t shed = 0;
        for (serve::submission& handle : wave) {
            shed += handle.get().degraded ? 1 : 0;
        }
        DEW_ASSERT(shed == requests.size() - 1);
        m.degraded_served = degrade.stats().degraded_served;
        DEW_ASSERT(m.degraded_served == shed);
    }
    return m;
}

// The service behind the wire: a loopback net::server wrapping its own
// service, a net::client submitting by content digest.  Requests/sec is
// the pipelined drain of a duplicate storm against the warm cache; the
// percentiles are sequential round-trip latencies of warm (cache-hit)
// answers — they price the "DSNW" protocol and the loopback hop, not the
// simulation (which the serve_* fields already cover).
struct net_measurement {
    double requests_per_sec{0.0};
    double p50_ms{0.0};
    double p95_ms{0.0};
    double p99_ms{0.0};
};

net_measurement measure_net() {
    const trace::mem_trace& trace = bench_trace();
    net::server_options server_options;
    server_options.service =
        serve::service_options{2, 256, serve::overflow_policy::block,
                               {8, 256}};
    net::server server{server_options};
    net::client client{"127.0.0.1", server.port()};
    const trace::trace_digest digest = client.register_trace(trace);

    std::vector<serve::service_request> requests;
    for (const unsigned exp : {8u, 9u, 10u}) {
        serve::service_request request;
        request.sweep = json_sweep_request();
        request.sweep.max_set_exp = exp;
        requests.push_back(request);
    }

    // Exactness across the wire first (this also warms the cache): the
    // served answer must equal the direct sweep count for count.
    for (const serve::service_request& request : requests) {
        const serve::service_result answer =
            client.submit(digest, request).get();
        const core::sweep_result direct = core::run_sweep(trace,
                                                          request.sweep);
        DEW_ASSERT(answer.sweep != nullptr);
        DEW_ASSERT(answer.sweep->passes.size() == direct.passes.size());
        for (std::size_t i = 0; i < direct.passes.size(); ++i) {
            for (unsigned level = 0; level <= direct.passes[i].max_level();
                 ++level) {
                DEW_ASSERT(answer.sweep->passes[i].misses(
                               level, direct.passes[i].associativity()) ==
                           direct.passes[i].misses(
                               level, direct.passes[i].associativity()));
            }
        }
    }

    net_measurement m;

    // Pipelined storm: every submission in flight before the first drain,
    // so the number is the wire's capacity, not one round trip at a time.
    constexpr std::size_t storm_duplicates = 16;
    std::vector<net::submission> handles;
    handles.reserve(requests.size() * storm_duplicates);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t d = 0; d < storm_duplicates; ++d) {
        for (const serve::service_request& request : requests) {
            handles.push_back(client.submit(digest, request));
        }
    }
    for (net::submission& handle : handles) {
        DEW_ASSERT(handle.get().cache_hit);
    }
    const auto t1 = std::chrono::steady_clock::now();
    m.requests_per_sec = static_cast<double>(handles.size()) /
                         std::chrono::duration<double>(t1 - t0).count();

    // Sequential round trips for the latency distribution.
    std::vector<double> latencies;
    constexpr std::size_t probes = 96;
    latencies.reserve(probes);
    for (std::size_t i = 0; i < probes; ++i) {
        const auto s0 = std::chrono::steady_clock::now();
        (void)client.submit(digest, requests[i % requests.size()]).get();
        const auto s1 = std::chrono::steady_clock::now();
        latencies.push_back(
            std::chrono::duration<double, std::milli>(s1 - s0).count());
    }
    std::sort(latencies.begin(), latencies.end());
    m.p50_ms = latencies[latencies.size() / 2];
    m.p95_ms = latencies[latencies.size() * 95 / 100];
    m.p99_ms = latencies[latencies.size() * 99 / 100];
    return m;
}

// The CPU model from /proc/cpuinfo, "unknown" where that file is absent.
// Quotes and backslashes are dropped so the value is a plain JSON string.
std::string host_cpu() {
    std::FILE* in = std::fopen("/proc/cpuinfo", "r");
    if (in == nullptr) {
        return "unknown";
    }
    std::string model = "unknown";
    char line[512];
    while (std::fgets(line, sizeof line, in) != nullptr) {
        const std::string_view text{line};
        if (!text.starts_with("model name")) {
            continue;
        }
        const std::size_t colon = text.find(':');
        if (colon == std::string_view::npos) {
            break;
        }
        model.clear();
        for (const char c : text.substr(colon + 1)) {
            if (c != '"' && c != '\\' && c != '\n') {
                model.push_back(c);
            }
        }
        model.erase(0, model.find_first_not_of(' '));
        break;
    }
    std::fclose(in);
    return model;
}

// Serial run_sweep of the paper's 525-configuration grid over the micro
// trace: best of json_repetitions, in milliseconds.  Every pass is first
// checked bit-identical, counters included, against a standalone counted
// simulator of its (block size, associativity).
double measure_paper_sweep_ms(const trace::mem_trace& trace) {
    core::sweep_request request = core::sweep_request::paper();
    request.instrumentation = core::sweep_instrumentation::full_counters;
    const core::sweep_result counted = core::run_sweep(trace, request);
    std::size_t pass = 0;
    for (const std::uint32_t block : request.block_sizes) {
        for (const std::uint32_t assoc : request.associativities) {
            core::dew_simulator sim{request.max_set_exp, assoc, block};
            sim.simulate(trace);
            const core::dew_result want = sim.result();
            const core::dew_result& got = counted.passes[pass++];
            for (unsigned level = 0; level <= request.max_set_exp; ++level) {
                DEW_ASSERT(got.misses(level, assoc) == want.misses(level, assoc));
                DEW_ASSERT(got.misses(level, 1) == want.misses(level, 1));
            }
            const core::dew_counters& a = got.counters();
            const core::dew_counters& b = want.counters();
            DEW_ASSERT(a.node_evaluations == b.node_evaluations);
            DEW_ASSERT(a.mra_hits == b.mra_hits);
            DEW_ASSERT(a.wave_checks == b.wave_checks);
            DEW_ASSERT(a.mre_determinations == b.mre_determinations);
            DEW_ASSERT(a.searches == b.searches);
            DEW_ASSERT(a.tag_comparisons == b.tag_comparisons);
        }
    }

    request.instrumentation = core::sweep_instrumentation::fast;
    double best = 1e300;
    for (int rep = 0; rep < json_repetitions; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const core::sweep_result fast = core::run_sweep(trace, request);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
        for (std::size_t i = 0; i < fast.passes.size(); ++i) {
            const core::dew_result& a = fast.passes[i];
            for (unsigned level = 0; level <= a.max_level(); ++level) {
                DEW_ASSERT(a.misses(level, a.associativity()) ==
                           counted.passes[i].misses(level, a.associativity()));
            }
        }
    }
    return best * 1e3;
}

void write_micro_json() {
    const trace::mem_trace& trace = bench_trace();

    // Exactness first: the frozen seed path and the refactored fast path
    // must agree on every miss count before throughput means anything.
    {
        bench::seed::counted_simulator seed_sim{json_max_level, json_assoc,
                                                json_block};
        seed_sim.simulate(trace);
        core::fast_dew_simulator fast_sim{json_max_level, json_assoc,
                                          json_block};
        fast_sim.simulate(trace);
        const core::dew_result fast_result = fast_sim.result();
        for (unsigned level = 0; level <= json_max_level; ++level) {
            DEW_ASSERT(seed_sim.misses_assoc()[level] ==
                       fast_result.misses(level, json_assoc));
            DEW_ASSERT(seed_sim.misses_dm()[level] ==
                       fast_result.misses(level, 1));
        }
    }

    // Same exactness gate for the CIPAR engine before its numbers are
    // trusted: every count must match the DEW fast path.
    {
        core::fast_dew_simulator dew_sim{json_max_level, json_assoc,
                                         json_block};
        dew_sim.simulate(trace);
        const core::dew_result dew_result = dew_sim.result();
        cipar::fast_cipar_simulator cipar_sim{json_max_level, json_assoc,
                                              json_block};
        cipar_sim.simulate(trace);
        const core::dew_result cipar_result = cipar_sim.result();
        for (unsigned level = 0; level <= json_max_level; ++level) {
            DEW_ASSERT(cipar_result.misses(level, json_assoc) ==
                       dew_result.misses(level, json_assoc));
            DEW_ASSERT(cipar_result.misses(level, 1) ==
                       dew_result.misses(level, 1));
        }
    }

    const micro_measurement seed =
        measure<bench::seed::counted_simulator>(trace);
    const micro_measurement counted = measure<core::dew_simulator>(trace);
    const micro_measurement fast = measure<core::fast_dew_simulator>(trace);
    const micro_measurement cipar_counted =
        measure<cipar::cipar_simulator>(trace);
    const micro_measurement cipar_fast =
        measure<cipar::fast_cipar_simulator>(trace);
    const sweep_comparison sweeps = measure_sweeps();
    const phase_measurement phases = measure_phase();
    const service_measurement serve = measure_service();
    const net_measurement net = measure_net();
    const double paper_sweep_ms = measure_paper_sweep_ms(trace);

    std::FILE* out = std::fopen("BENCH_micro.json", "w");
    if (out == nullptr) {
        std::fprintf(stderr, "bench_micro: cannot write BENCH_micro.json\n");
        return;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"micro\",\n");
    std::fprintf(out, "  \"trace_accesses\": %zu,\n", trace.size());
    std::fprintf(out, "  \"max_level\": %u,\n", json_max_level);
    std::fprintf(out, "  \"assoc\": %u,\n", json_assoc);
    std::fprintf(out, "  \"block_size\": %u,\n", json_block);
    std::fprintf(out, "  \"repetitions\": %d,\n", json_repetitions);
    std::fprintf(out,
                 "  \"seed_segmented_counted_accesses_per_sec\": %.0f,\n",
                 seed.accesses_per_sec);
    std::fprintf(out, "  \"arena_counted_accesses_per_sec\": %.0f,\n",
                 counted.accesses_per_sec);
    std::fprintf(out, "  \"arena_fast_accesses_per_sec\": %.0f,\n",
                 fast.accesses_per_sec);
    std::fprintf(out, "  \"seed_construct_ms\": %.3f,\n", seed.construct_ms);
    std::fprintf(out, "  \"arena_construct_ms\": %.3f,\n",
                 fast.construct_ms);
    std::fprintf(out, "  \"speedup_arena_counted_vs_seed\": %.3f,\n",
                 counted.accesses_per_sec / seed.accesses_per_sec);
    std::fprintf(out, "  \"speedup_arena_fast_vs_seed\": %.3f,\n",
                 fast.accesses_per_sec / seed.accesses_per_sec);
    std::fprintf(out, "  \"eager_sweep_accesses_per_sec\": %.0f,\n",
                 sweeps.eager.accesses_per_sec);
    std::fprintf(out, "  \"streaming_sweep_accesses_per_sec\": %.0f,\n",
                 sweeps.streaming.accesses_per_sec);
    std::fprintf(out, "  \"eager_sweep_peak_bytes_per_ref\": %.3f,\n",
                 sweeps.eager.peak_bytes_per_ref);
    std::fprintf(out, "  \"streaming_sweep_peak_bytes_per_ref\": %.3f,\n",
                 sweeps.streaming.peak_bytes_per_ref);
    std::fprintf(out, "  \"sweep_memory_ratio_eager_vs_streaming\": %.3f,\n",
                 sweeps.eager.peak_bytes_per_ref /
                     sweeps.streaming.peak_bytes_per_ref);
    std::fprintf(out, "  \"cipar_counted_accesses_per_sec\": %.0f,\n",
                 cipar_counted.accesses_per_sec);
    std::fprintf(out, "  \"cipar_fast_accesses_per_sec\": %.0f,\n",
                 cipar_fast.accesses_per_sec);
    std::fprintf(out, "  \"cipar_construct_ms\": %.3f,\n",
                 cipar_fast.construct_ms);
    std::fprintf(out, "  \"ratio_cipar_fast_vs_arena_fast\": %.3f,\n",
                 cipar_fast.accesses_per_sec / fast.accesses_per_sec);
    std::fprintf(out, "  \"phase_count\": %llu,\n",
                 static_cast<unsigned long long>(phases.phases));
    std::fprintf(out, "  \"phase_intervals\": %llu,\n",
                 static_cast<unsigned long long>(phases.intervals));
    std::fprintf(out, "  \"phase_simulated_fraction\": %.4f,\n",
                 phases.simulated_fraction);
    std::fprintf(out, "  \"phase_rep_sweep_accesses_per_sec\": %.0f,\n",
                 phases.accesses_per_sec);
    std::fprintf(out, "  \"phase_max_abs_error_pp\": %.4f,\n",
                 phases.max_abs_error_pp);
    std::fprintf(out,
                 "  \"ratio_phase_rep_vs_streaming_sweep\": %.3f,\n",
                 phases.accesses_per_sec /
                     sweeps.streaming.accesses_per_sec);
    std::fprintf(out, "  \"serve_requests_per_sec\": %.1f,\n",
                 serve.requests_per_sec);
    std::fprintf(out, "  \"serve_cache_hit_rate\": %.4f,\n",
                 serve.cache_hit_rate);
    std::fprintf(out, "  \"serve_coalesce_factor\": %.3f,\n",
                 serve.coalesce_factor);
    std::fprintf(out, "  \"serve_timeout_rate\": %.4f,\n",
                 serve.timeout_rate);
    std::fprintf(out, "  \"serve_degraded_served\": %llu,\n",
                 static_cast<unsigned long long>(serve.degraded_served));
    std::fprintf(out, "  \"serve_retry_success_rate\": %.4f,\n",
                 serve.retry_success_rate);
    std::fprintf(out, "  \"net_requests_per_sec\": %.1f,\n",
                 net.requests_per_sec);
    std::fprintf(out, "  \"net_p50_ms\": %.3f,\n", net.p50_ms);
    std::fprintf(out, "  \"net_p95_ms\": %.3f,\n", net.p95_ms);
    std::fprintf(out, "  \"net_p99_ms\": %.3f,\n", net.p99_ms);
    std::fprintf(out, "  \"serve_p50_ms\": %.3f,\n", serve.p50_ms);
    std::fprintf(out, "  \"serve_p95_ms\": %.3f,\n", serve.p95_ms);
    std::fprintf(out, "  \"serve_p99_ms\": %.3f,\n", serve.p99_ms);
    std::fprintf(out, "  \"obs_overhead_pct\": %.2f,\n",
                 serve.obs_overhead_pct);
    std::fprintf(out, "  \"obs_overhead_spread_pct\": %.2f,\n",
                 serve.obs_overhead_spread_pct);
    // Microsecond twins of the *_ms percentiles: at %.3f a sub-millisecond
    // service reports "0.001" or flat zero in milliseconds, which reads as
    // a precision floor, not a latency.  The _ms names above are frozen
    // (dashboards key on them); these carry the 3+ significant digits.
    std::fprintf(out, "  \"net_p50_us\": %.3f,\n", net.p50_ms * 1e3);
    std::fprintf(out, "  \"net_p95_us\": %.3f,\n", net.p95_ms * 1e3);
    std::fprintf(out, "  \"net_p99_us\": %.3f,\n", net.p99_ms * 1e3);
    std::fprintf(out, "  \"serve_p50_us\": %.3f,\n", serve.p50_ms * 1e3);
    std::fprintf(out, "  \"serve_p95_us\": %.3f,\n", serve.p95_ms * 1e3);
    std::fprintf(out, "  \"serve_p99_us\": %.3f,\n", serve.p99_ms * 1e3);
    // The host stamp, so the committed trajectory says where it was taken.
    std::fprintf(out, "  \"host_cpu\": \"%s\",\n", host_cpu().c_str());
    std::fprintf(out, "  \"host_cores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"build_type\": \"%s\",\n", DEW_BUILD_TYPE);
    std::fprintf(out, "  \"paper_sweep_ms\": %.1f\n", paper_sweep_ms);
    std::fprintf(out, "}\n");
    std::fclose(out);

    std::printf("BENCH_micro.json: seed %.2fM acc/s, arena+counted %.2fM "
                "acc/s (x%.2f), arena+fast %.2fM acc/s (x%.2f); construct "
                "seed %.2fms vs arena %.2fms\n",
                seed.accesses_per_sec / 1e6, counted.accesses_per_sec / 1e6,
                counted.accesses_per_sec / seed.accesses_per_sec,
                fast.accesses_per_sec / 1e6,
                fast.accesses_per_sec / seed.accesses_per_sec,
                seed.construct_ms, fast.construct_ms);
    std::printf("cipar engine: counted %.2fM acc/s, fast %.2fM acc/s "
                "(x%.2f of dew fast)\n",
                cipar_counted.accesses_per_sec / 1e6,
                cipar_fast.accesses_per_sec / 1e6,
                cipar_fast.accesses_per_sec / fast.accesses_per_sec);
    std::printf("phase sweep: %llu phases over %llu intervals, %.1f%% of "
                "records simulated, %.2fM acc/s effective (x%.2f of the "
                "streaming sweep), worst error %.3f pp\n",
                static_cast<unsigned long long>(phases.phases),
                static_cast<unsigned long long>(phases.intervals),
                100.0 * phases.simulated_fraction,
                phases.accesses_per_sec / 1e6,
                phases.accesses_per_sec / sweeps.streaming.accesses_per_sec,
                phases.max_abs_error_pp);
    std::printf("sweep service: %.0f req/s over the duplicate storm, cache "
                "hit rate %.2f, coalesce factor %.2f\n",
                serve.requests_per_sec, serve.cache_hit_rate,
                serve.coalesce_factor);
    std::printf("sweep service robustness: timeout rate %.2f (half-expired "
                "wave), retry success rate %.2f (first-attempt faults), "
                "%llu requests shed to the estimate tier\n",
                serve.timeout_rate, serve.retry_success_rate,
                static_cast<unsigned long long>(serve.degraded_served));
    std::printf("networked service (loopback): %.0f req/s pipelined, warm "
                "round trip p50 %.3f ms / p95 %.3f ms / p99 %.3f ms\n",
                net.requests_per_sec, net.p50_ms, net.p95_ms, net.p99_ms);
    std::printf("in-process warm round trip p50 %.3f ms / p95 %.3f ms / "
                "p99 %.3f ms; obs recording overhead %.2f%% (IQR %.2f) "
                "on the serving mix\n",
                serve.p50_ms, serve.p95_ms, serve.p99_ms,
                serve.obs_overhead_pct, serve.obs_overhead_spread_pct);
    std::printf("paper grid (525 configurations, serial): %.1f ms\n",
                paper_sweep_ms);
    std::printf("sweep memory: eager %.1f B/ref vs streaming %.2f B/ref "
                "(x%.0f smaller), throughput %.2fM vs %.2fM acc/s\n\n",
                sweeps.eager.peak_bytes_per_ref,
                sweeps.streaming.peak_bytes_per_ref,
                sweeps.eager.peak_bytes_per_ref /
                    sweeps.streaming.peak_bytes_per_ref,
                sweeps.eager.accesses_per_sec / 1e6,
                sweeps.streaming.accesses_per_sec / 1e6);
}

} // namespace

int main(int argc, char** argv) {
    // Skip the (multi-second) JSON measurement when the caller is only
    // enumerating benchmarks; a filter run still emits it — that is the
    // documented quick path (--benchmark_filter=NONE -> JSON only).
    bool listing_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view{argv[i]}.starts_with("--benchmark_list_tests")) {
            listing_only = true;
        }
    }
    if (!listing_only) {
        write_micro_json();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

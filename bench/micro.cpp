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
#include <bit>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline/dinero_sim.hpp"
#include "bench_support/serving.hpp"
#include "cache/set_model.hpp"
#include "cipar/simulator.hpp"
#include "dew/session.hpp"
#include "dew/simulator.hpp"
#include "dew/sweep.hpp"
#include "lru/janapsatya_sim.hpp"
#include "phase/representative_sweep.hpp"
#include "seed_baseline.hpp"
#include "trace/binary_io.hpp"
#include "trace/compressed_io.hpp"
#include "trace/mediabench.hpp"
#include "trace/source.hpp"

namespace {

using namespace dew;

// Every micro bench runs on the serving harness's workload (a 200k-record
// cjpeg trace) so the serve_* fields price the same stream.
using bench::bench_trace;
using bench::json_sweep_request;

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
constexpr int speedup_pairs = 11;

struct micro_measurement {
    double accesses_per_sec{0.0}; // simulation only, best cold pass of N
    double construct_ms{0.0};     // tree allocation + cold-state init
};

struct pass_seconds {
    double construct{0.0};
    double simulate{0.0};
};

// One cold simulator over the whole trace; construction is timed
// separately so the steady-state number is not polluted by one-off
// allocation (and the allocation cost stays visible).
template <class Sim>
pass_seconds timed_pass(const trace::mem_trace& trace) {
    const auto t0 = std::chrono::steady_clock::now();
    Sim sim{json_max_level, json_assoc, json_block};
    const auto t1 = std::chrono::steady_clock::now();
    sim.simulate(trace);
    const auto t2 = std::chrono::steady_clock::now();
    return {std::chrono::duration<double>(t1 - t0).count(),
            std::chrono::duration<double>(t2 - t1).count()};
}

// Best-of-N simulation throughput and construction time.
template <class Sim>
micro_measurement measure(const trace::mem_trace& trace) {
    double best_sim = 1e300;
    double best_construct = 1e300;
    for (int rep = 0; rep < json_repetitions; ++rep) {
        const pass_seconds pass = timed_pass<Sim>(trace);
        best_construct = std::min(best_construct, pass.construct);
        best_sim = std::min(best_sim, pass.simulate);
    }
    return {static_cast<double>(trace.size()) / best_sim,
            best_construct * 1e3};
}

// The arena+fast speedup over the seed path, the CI-gated headline: the
// median seed/fast simulation-time ratio over adjacent pairs, in
// alternating order so both passes of a pair share the machine's drift
// state.  Two independent best-of-N figures can drift apart on a shared
// machine (one such run read 1.21 against a true ~1.8).
double measure_fast_speedup(const trace::mem_trace& trace) {
    const auto seed = [&trace] {
        return timed_pass<bench::seed::counted_simulator>(trace).simulate;
    };
    const auto fast = [&trace] {
        return timed_pass<core::fast_dew_simulator>(trace).simulate;
    };
    std::vector<double> ratios;
    for (int pair = 0; pair < speedup_pairs; ++pair) {
        if (pair % 2 == 0) {
            const double seed_s = seed();
            ratios.push_back(seed_s / fast());
        } else {
            const double fast_s = fast();
            ratios.push_back(seed() / fast_s);
        }
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 2];
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

// The DEW walk priced by stage on the micro trace at (L 14, A 4, B 32):
// stage 1 (core::mra_stage, shared by every pass of a block size) and
// stage 2 (basic_dew_pass<fast>, one per pass), each in ns per trace
// access, and the whole fast pass in ns per node the counted pass
// evaluates.  Best of json_repetitions, the decode and the allocations
// outside the timed spans; the counted pass must agree with the fast one
// on every miss count first.
struct dew_walk_cost {
    double stage1_ns_per_access{0.0};
    double stage2_ns_per_access{0.0};
    double ns_per_node{0.0};
};

dew_walk_cost measure_dew_walk(const trace::mem_trace& trace) {
    const std::vector<std::uint64_t> blocks = trace::block_numbers(
        trace, static_cast<unsigned>(std::countr_zero(json_block)));
    const bool mra_stop = core::dew_options{}.use_mra_stop;
    core::mra_walk_buffer buffer;
    std::vector<std::uint64_t> stream;

    stream = blocks;
    core::mra_stage counted_stage{json_max_level, mra_stop};
    core::basic_dew_pass<core::full_counters> counted{
        json_max_level, json_assoc, json_block};
    counted.walk(counted_stage.run(stream, buffer));
    const core::dew_result want = counted.result();

    double stage1 = 1e300;
    double stage2 = 1e300;
    for (int rep = 0; rep < json_repetitions; ++rep) {
        stream = blocks;
        core::mra_stage stage{json_max_level, mra_stop};
        core::basic_dew_pass<core::fast> pass{json_max_level, json_assoc,
                                              json_block};
        const auto t0 = std::chrono::steady_clock::now();
        const core::mra_walks walks = stage.run(stream, buffer);
        const auto t1 = std::chrono::steady_clock::now();
        pass.walk(walks);
        const auto t2 = std::chrono::steady_clock::now();
        stage1 = std::min(stage1, std::chrono::duration<double>(t1 - t0).count());
        stage2 = std::min(stage2, std::chrono::duration<double>(t2 - t1).count());
        const core::dew_result got = pass.result();
        for (unsigned level = 0; level <= json_max_level; ++level) {
            DEW_ASSERT(got.misses(level, json_assoc) ==
                       want.misses(level, json_assoc));
            DEW_ASSERT(got.misses(level, 1) == want.misses(level, 1));
        }
    }
    const double accesses = static_cast<double>(trace.size());
    return {stage1 * 1e9 / accesses, stage2 * 1e9 / accesses,
            (stage1 + stage2) * 1e9 /
                static_cast<double>(counted.counters().node_evaluations)};
}

// One fast B32 A4 pass at L = 18 over the micro trace on each engine, best
// of json_repetitions, in milliseconds, decode and construction included:
// the deep column where ROADMAP item 3 weighs DEW against CIPAR.  The two
// engines' misses are asserted equal first.
struct deep_column_cost {
    double dew_ms{0.0};
    double cipar_ms{0.0};
};

deep_column_cost measure_deep_column(const trace::mem_trace& trace) {
    core::sweep_request request;
    request.max_set_exp = 18;
    request.block_sizes = {32};
    request.associativities = {4};
    core::sweep_request cipar_request = request;
    cipar_request.engine = core::sweep_engine::cipar;
    {
        const core::dew_result dew = core::run_sweep(trace, request).passes[0];
        const core::dew_result cipar =
            core::run_sweep(trace, cipar_request).passes[0];
        for (unsigned level = 0; level <= request.max_set_exp; ++level) {
            DEW_ASSERT(dew.misses(level, 4) == cipar.misses(level, 4));
            DEW_ASSERT(dew.misses(level, 1) == cipar.misses(level, 1));
        }
    }
    const auto best_ms = [&trace](const core::sweep_request& r) {
        double best = 1e300;
        for (int rep = 0; rep < json_repetitions; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            const core::sweep_result result = core::run_sweep(trace, r);
            const auto t1 = std::chrono::steady_clock::now();
            DEW_ASSERT(result.requests == trace.size());
            best = std::min(best,
                            std::chrono::duration<double>(t1 - t0).count());
        }
        return best * 1e3;
    };
    return {best_ms(request), best_ms(cipar_request)};
}

// Bytes of records the paper grid's fast passes hold (tag arenas and
// cursors, MRA planes excluded), in MiB.  A function of the layout alone.
double paper_grid_fast_record_mib() {
    const core::sweep_request request = core::sweep_request::paper();
    std::size_t bytes = 0;
    for (const std::uint32_t block : request.block_sizes) {
        for (const std::uint32_t assoc : request.associativities) {
            const core::basic_dew_pass<core::fast> pass{request.max_set_exp,
                                                        assoc, block};
            bytes += pass.tree().storage_bytes();
        }
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
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
    const double fast_speedup = measure_fast_speedup(trace);
    const micro_measurement cipar_counted =
        measure<cipar::cipar_simulator>(trace);
    const micro_measurement cipar_fast =
        measure<cipar::fast_cipar_simulator>(trace);
    const sweep_comparison sweeps = measure_sweeps();
    const phase_measurement phases = measure_phase();
    const bench::serving_measurement serving = bench::measure_serving();
    const double serve_requests_per_sec =
        static_cast<double>(serving.storm.requests + serving.replay.requests) /
        (serving.storm.seconds + serving.replay.seconds);
    const double paper_sweep_ms = measure_paper_sweep_ms(trace);
    const dew_walk_cost walk = measure_dew_walk(trace);
    const deep_column_cost deep = measure_deep_column(trace);
    const double record_mib = paper_grid_fast_record_mib();

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
                 fast_speedup);
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
                 serve_requests_per_sec);
    std::fprintf(out, "  \"serve_cache_hit_rate\": %.4f,\n",
                 serving.storm_stats.cache_hit_rate());
    std::fprintf(out, "  \"serve_coalesce_factor\": %.3f,\n",
                 serving.storm_stats.coalesce_factor());
    std::fprintf(out, "  \"serve_timeout_rate\": %.4f,\n",
                 serving.timeout_rate);
    std::fprintf(out, "  \"serve_degraded_served\": %llu,\n",
                 static_cast<unsigned long long>(serving.degraded_served));
    std::fprintf(out, "  \"serve_retry_success_rate\": %.4f,\n",
                 serving.retry_success_rate);
    std::fprintf(out, "  \"net_requests_per_sec\": %.1f,\n",
                 serving.net_replay.requests_per_sec());
    std::fprintf(out, "  \"net_p50_ms\": %.3f,\n",
                 serving.net_latency.p50);
    std::fprintf(out, "  \"net_p95_ms\": %.3f,\n",
                 serving.net_latency.p95);
    std::fprintf(out, "  \"net_p99_ms\": %.3f,\n",
                 serving.net_latency.p99);
    std::fprintf(out, "  \"serve_p50_ms\": %.3f,\n",
                 serving.serve_latency.p50);
    std::fprintf(out, "  \"serve_p95_ms\": %.3f,\n",
                 serving.serve_latency.p95);
    std::fprintf(out, "  \"serve_p99_ms\": %.3f,\n",
                 serving.serve_latency.p99);
    std::fprintf(out, "  \"obs_overhead_pct\": %.2f,\n",
                 serving.obs_overhead_pct);
    std::fprintf(out, "  \"obs_overhead_spread_pct\": %.2f,\n",
                 serving.obs_overhead_spread_pct);
    // Microsecond twins of the *_ms percentiles: at %.3f a sub-millisecond
    // service reports "0.001" or flat zero in milliseconds, which reads as
    // a precision floor, not a latency.  The _ms names above are frozen
    // (dashboards key on them); these carry the 3+ significant digits.
    std::fprintf(out, "  \"net_p50_us\": %.3f,\n",
                 serving.net_latency.p50 * 1e3);
    std::fprintf(out, "  \"net_p95_us\": %.3f,\n",
                 serving.net_latency.p95 * 1e3);
    std::fprintf(out, "  \"net_p99_us\": %.3f,\n",
                 serving.net_latency.p99 * 1e3);
    std::fprintf(out, "  \"serve_p50_us\": %.3f,\n",
                 serving.serve_latency.p50 * 1e3);
    std::fprintf(out, "  \"serve_p95_us\": %.3f,\n",
                 serving.serve_latency.p95 * 1e3);
    std::fprintf(out, "  \"serve_p99_us\": %.3f,\n",
                 serving.serve_latency.p99 * 1e3);
    // The host stamp, so the committed trajectory says where it was taken.
    std::fprintf(out, "  \"host_cpu\": \"%s\",\n", host_cpu().c_str());
    std::fprintf(out, "  \"host_cores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"build_type\": \"%s\",\n", DEW_BUILD_TYPE);
    std::fprintf(out, "  \"paper_sweep_ms\": %.1f,\n", paper_sweep_ms);
    std::fprintf(out, "  \"serve_shard_hit_rate\": %.4f,\n",
                 serving.shard_hit_rate);
    std::fprintf(out, "  \"dew_stage1_ns_per_access\": %.3f,\n",
                 walk.stage1_ns_per_access);
    std::fprintf(out, "  \"dew_stage2_ns_per_access\": %.3f,\n",
                 walk.stage2_ns_per_access);
    std::fprintf(out, "  \"dew_ns_per_node\": %.3f,\n", walk.ns_per_node);
    std::fprintf(out, "  \"dew_fast_l18_ms\": %.2f,\n", deep.dew_ms);
    std::fprintf(out, "  \"cipar_fast_l18_ms\": %.2f,\n", deep.cipar_ms);
    std::fprintf(out, "  \"paper_grid_fast_record_mib\": %.3f\n",
                 record_mib);
    std::fprintf(out, "}\n");
    std::fclose(out);

    std::printf("BENCH_micro.json: seed %.2fM acc/s, arena+counted %.2fM "
                "acc/s (x%.2f), arena+fast %.2fM acc/s (x%.2f, median of "
                "%d pairs); construct seed %.2fms vs arena %.2fms\n",
                seed.accesses_per_sec / 1e6, counted.accesses_per_sec / 1e6,
                counted.accesses_per_sec / seed.accesses_per_sec,
                fast.accesses_per_sec / 1e6, fast_speedup, speedup_pairs,
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
    std::printf("sweep service: storm + replay %.0f req/s, loopback replay "
                "%.0f req/s, warm p50 %.1f us in process / %.1f us over "
                "loopback, obs overhead %.2f%% (IQR %.2f); bench_service "
                "prints the phase table\n",
                serve_requests_per_sec, serving.net_replay.requests_per_sec(),
                serving.serve_latency.p50 * 1e3,
                serving.net_latency.p50 * 1e3, serving.obs_overhead_pct,
                serving.obs_overhead_spread_pct);
    std::printf("paper grid (525 configurations, serial): %.1f ms\n",
                paper_sweep_ms);
    std::printf("dew walk (L %u, A %u, B %u): stage 1 %.2f ns/access, stage "
                "2 %.2f ns/access, %.3f ns per node\n",
                json_max_level, json_assoc, json_block,
                walk.stage1_ns_per_access, walk.stage2_ns_per_access,
                walk.ns_per_node);
    std::printf("deep column (L 18, A 4, B 32): dew %.2f ms, cipar %.2f ms; "
                "paper grid fast records %.3f MiB\n",
                deep.dew_ms, deep.cipar_ms, record_mib);
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

// Representative-interval sweeps: the acceptance grid.  On every
// Mediabench-profile generator trace, the estimated miss rate of every
// covered configuration must sit within 2 percentage points of the exact
// DEW result, and the error the result *reports* must equal the error the
// test *measures* — the estimator's accuracy statement is itself exact.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "dew/sweep.hpp"
#include "phase/representative_sweep.hpp"
#include "phase/window.hpp"
#include "trace/generator.hpp"
#include "trace/mediabench.hpp"
#include "trace/source.hpp"

namespace {

using namespace dew;
using namespace dew::phase;

representative_sweep_request grid_request() {
    representative_sweep_request request;
    request.sweep.max_set_exp = 6;
    request.sweep.block_sizes = {16, 32};
    request.sweep.associativities = {2, 4};
    request.phase.interval_records = 4096;
    request.phase.signature_width = 64;
    request.phase.max_phases = 6;
    // Warmup must cover the largest simulated cache (64 sets x 4 ways =
    // 256 blocks here) a few times over, or per-interval cold starts bias
    // the estimate upward on high-hit-rate workloads (G721).
    request.warmup_records = 2048;
    request.calibrate = true;
    return request;
}

constexpr std::size_t grid_trace_records = 24000;

TEST(RepresentativeSweep, ErrorWithinTwoPointsOnEveryMediabenchProfile) {
    for (const trace::mediabench_app app : trace::all_mediabench_apps) {
        const trace::mem_trace trace =
            trace::make_mediabench_trace(app, grid_trace_records);
        const representative_sweep_result result =
            representative_sweep(trace, grid_request());

        ASSERT_TRUE(result.calibrated);
        ASSERT_FALSE(result.configs.empty());
        EXPECT_EQ(result.total_records, trace.size());

        double measured_max = 0.0;
        for (const config_estimate& estimate : result.configs) {
            // The measured error: recomputed from the reported rates.
            const double measured =
                100.0 * std::abs(estimate.estimated_miss_rate -
                                 estimate.exact_miss_rate);
            EXPECT_DOUBLE_EQ(estimate.abs_error_pp, measured)
                << trace::short_name(app) << " "
                << cache::to_string(estimate.config);
            EXPECT_LE(estimate.abs_error_pp, 2.0)
                << trace::short_name(app) << " "
                << cache::to_string(estimate.config) << ": estimated "
                << estimate.estimated_miss_rate << " vs exact "
                << estimate.exact_miss_rate;
            measured_max = std::max(measured_max, measured);
        }
        EXPECT_DOUBLE_EQ(result.max_abs_error_pp, measured_max)
            << trace::short_name(app);
    }
}

TEST(RepresentativeSweep, ExactFieldsMatchAnIndependentExactSweep) {
    const trace::mem_trace trace = trace::make_mediabench_trace(
        trace::mediabench_app::djpeg, grid_trace_records);
    const representative_sweep_request request = grid_request();
    const representative_sweep_result result =
        representative_sweep(trace, request);

    const core::sweep_result exact = core::run_sweep(trace, request.sweep);
    for (const config_estimate& estimate : result.configs) {
        EXPECT_EQ(estimate.exact_misses, exact.misses_of(estimate.config))
            << cache::to_string(estimate.config);
    }
}

TEST(RepresentativeSweep, SplitCalibrationReproducesTheCalibratedSweep) {
    // The estimate, then calibrate() against a separately run exact sweep:
    // every field but the timings equals the one-call calibrated result.
    const trace::mem_trace trace = trace::make_mediabench_trace(
        trace::mediabench_app::djpeg, grid_trace_records);
    const representative_sweep_request request = grid_request();
    const representative_sweep_result whole =
        representative_sweep(trace, request);

    representative_sweep_request uncalibrated = request;
    uncalibrated.calibrate = false;
    representative_sweep_result split =
        representative_sweep(trace, uncalibrated);
    EXPECT_FALSE(split.calibrated);
    const core::sweep_result exact = core::run_sweep(trace, request.sweep);
    calibrate(split, exact);

    EXPECT_TRUE(split.calibrated);
    EXPECT_EQ(split.calibration_seconds, exact.seconds);
    EXPECT_EQ(split.total_records, whole.total_records);
    EXPECT_EQ(split.simulated_records, whole.simulated_records);
    EXPECT_EQ(split.max_abs_error_pp, whole.max_abs_error_pp);
    EXPECT_GT(split.max_abs_error_pp, 0.0); // the comparison is not vacuous
    ASSERT_EQ(split.phases.plan.phases.size(),
              whole.phases.plan.phases.size());
    for (std::size_t p = 0; p < whole.phases.plan.phases.size(); ++p) {
        const phase_info& a = split.phases.plan.phases[p];
        const phase_info& b = whole.phases.plan.phases[p];
        EXPECT_EQ(a.representative, b.representative);
        EXPECT_EQ(a.records, b.records);
        EXPECT_EQ(a.weight, b.weight);
    }
    ASSERT_EQ(split.configs.size(), whole.configs.size());
    for (std::size_t c = 0; c < whole.configs.size(); ++c) {
        const config_estimate& a = split.configs[c];
        const config_estimate& b = whole.configs[c];
        const std::string name = cache::to_string(b.config);
        EXPECT_EQ(a.config.set_count, b.config.set_count) << name;
        EXPECT_EQ(a.config.associativity, b.config.associativity) << name;
        EXPECT_EQ(a.config.block_size, b.config.block_size) << name;
        EXPECT_EQ(a.estimated_misses, b.estimated_misses) << name;
        EXPECT_EQ(a.estimated_miss_rate, b.estimated_miss_rate) << name;
        EXPECT_EQ(a.exact_misses, b.exact_misses) << name;
        EXPECT_EQ(a.exact_miss_rate, b.exact_miss_rate) << name;
        EXPECT_EQ(a.abs_error_pp, b.abs_error_pp) << name;
    }
}

TEST(RepresentativeSweep, SimulatesOnlyASubsetOfTheTrace) {
    // Long enough that intervals clearly outnumber phases — the regime the
    // sweep exists for (with intervals ~ phases it can even cost more than
    // the exact pass, warmup included).
    const trace::mem_trace trace = trace::make_mediabench_trace(
        trace::mediabench_app::cjpeg, 65536);
    const representative_sweep_result result =
        representative_sweep(trace, grid_request());

    // At most one (warmup + interval) window per phase.
    const std::uint64_t bound =
        result.phases.plan.phases.size() * (4096 + 2048);
    EXPECT_LE(result.simulated_records, bound);
    EXPECT_LT(result.simulated_fraction(), 1.0);
    EXPECT_GT(result.simulated_fraction(), 0.0);
}

TEST(RepresentativeSweep, SingleIntervalCoveringTraceIsExact) {
    // interval >= trace and no warmup: the one representative is the whole
    // trace, so the estimate must equal the exact count bit for bit and
    // the reported error must be zero.
    const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::mpeg2_dec, 9000);
    representative_sweep_request request = grid_request();
    request.phase.interval_records = 1 << 20;
    request.warmup_records = 0;
    const representative_sweep_result result =
        representative_sweep(trace, request);

    EXPECT_EQ(result.simulated_records, trace.size());
    for (const config_estimate& estimate : result.configs) {
        EXPECT_EQ(estimate.estimated_misses, estimate.exact_misses)
            << cache::to_string(estimate.config);
        EXPECT_DOUBLE_EQ(estimate.abs_error_pp, 0.0);
    }
    EXPECT_DOUBLE_EQ(result.max_abs_error_pp, 0.0);
}

TEST(RepresentativeSweep, DeterministicAcrossRunsAndFactoryOverload) {
    const trace::mem_trace trace = trace::make_mediabench_trace(
        trace::mediabench_app::g721_dec, grid_trace_records);
    const representative_sweep_request request = grid_request();

    const representative_sweep_result first =
        representative_sweep(trace, request);
    const representative_sweep_result second =
        representative_sweep(trace, request);
    const representative_sweep_result streamed = representative_sweep(
        [&trace]() -> std::unique_ptr<trace::source> {
            return std::make_unique<trace::span_source>(
                std::span<const trace::mem_access>{trace.data(),
                                                   trace.size()});
        },
        request);

    ASSERT_EQ(first.configs.size(), second.configs.size());
    ASSERT_EQ(first.configs.size(), streamed.configs.size());
    for (std::size_t c = 0; c < first.configs.size(); ++c) {
        EXPECT_EQ(first.configs[c].estimated_misses,
                  second.configs[c].estimated_misses);
        EXPECT_EQ(first.configs[c].estimated_misses,
                  streamed.configs[c].estimated_misses);
        EXPECT_DOUBLE_EQ(first.configs[c].abs_error_pp,
                         streamed.configs[c].abs_error_pp);
    }
}

TEST(RepresentativeSweep, CiparEngineAgreesWithDewEngine) {
    // Both engines are exact, so interval misses — and therefore the
    // estimates — are bit-identical through either.
    const trace::mem_trace trace = trace::make_mediabench_trace(
        trace::mediabench_app::mpeg2_enc, grid_trace_records);
    representative_sweep_request request = grid_request();
    request.calibrate = false;

    const representative_sweep_result dew_result =
        representative_sweep(trace, request);
    request.sweep.engine = core::sweep_engine::cipar;
    const representative_sweep_result cipar_result =
        representative_sweep(trace, request);

    ASSERT_EQ(dew_result.configs.size(), cipar_result.configs.size());
    for (std::size_t c = 0; c < dew_result.configs.size(); ++c) {
        EXPECT_EQ(dew_result.configs[c].estimated_misses,
                  cipar_result.configs[c].estimated_misses)
            << cache::to_string(dew_result.configs[c].config);
    }
}

TEST(RepresentativeSweep, EstimateOfLookupAndErrors) {
    const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 8000);
    const representative_sweep_result result =
        representative_sweep(trace, grid_request());

    const cache::cache_config covered{16, 2, 32};
    EXPECT_EQ(result.estimate_of(covered).config.set_count, 16u);
    EXPECT_THROW((void)result.estimate_of({16, 2, 128}), std::out_of_range);

    EXPECT_THROW((void)representative_sweep(source_factory{},
                                            grid_request()),
                 std::invalid_argument);
    representative_sweep_request bad = grid_request();
    bad.phase.interval_records = 0;
    EXPECT_THROW((void)representative_sweep(trace, bad),
                 std::invalid_argument);
}

TEST(RepresentativeSweep, EmptyTraceIsGraceful) {
    const representative_sweep_result result =
        representative_sweep(trace::mem_trace{}, grid_request());
    EXPECT_EQ(result.total_records, 0u);
    EXPECT_EQ(result.simulated_records, 0u);
    EXPECT_TRUE(result.calibrated);
    for (const config_estimate& estimate : result.configs) {
        EXPECT_EQ(estimate.estimated_misses, 0u);
        EXPECT_EQ(estimate.exact_misses, 0u);
    }
    EXPECT_DOUBLE_EQ(result.max_abs_error_pp, 0.0);
}

TEST(FencedWindow, ServesWindowAndStopsAtFence) {
    const trace::mem_trace trace = trace::make_sequential_trace(0, 100, 4);
    trace::span_source upstream{{trace.data(), trace.size()}};
    fenced_window_source window{upstream, 20, 60, 30};

    trace::mem_trace out(64);
    // First pull is truncated at the fence: records 20..29.
    std::size_t got = window.next({out.data(), out.size()});
    ASSERT_EQ(got, 10u);
    EXPECT_EQ(out[0].address, trace[20].address);
    EXPECT_EQ(out[9].address, trace[29].address);
    // Then the rest of the window: records 30..59.
    got = window.next({out.data(), out.size()});
    ASSERT_EQ(got, 30u);
    EXPECT_EQ(out[0].address, trace[30].address);
    EXPECT_EQ(out[29].address, trace[59].address);
    EXPECT_EQ(window.next({out.data(), out.size()}), 0u);
    EXPECT_EQ(window.served(), 40u);
}

TEST(FencedWindow, ClipsAtUpstreamEnd) {
    const trace::mem_trace trace = trace::make_sequential_trace(0, 50, 4);
    trace::span_source upstream{{trace.data(), trace.size()}};
    fenced_window_source window{upstream, 40, 80, 40};
    const trace::mem_trace drained = trace::drain(window);
    ASSERT_EQ(drained.size(), 10u);
    EXPECT_EQ(drained.front().address, trace[40].address);
    EXPECT_EQ(drained.back().address, trace[49].address);
}

} // namespace

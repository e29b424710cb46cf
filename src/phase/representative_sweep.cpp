#include "phase/representative_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "dew/session.hpp"
#include "phase/window.hpp"

namespace dew::phase {

namespace {

using clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(clock::time_point start) {
    return std::chrono::duration<double>(clock::now() - start).count();
}

// Misses accumulated by one interval, per pass: the session result at the
// end of the window minus the snapshot taken at the warmup fence.
[[nodiscard]] core::sweep_result
diff_results(const core::sweep_result& before, const core::sweep_result& after,
             std::uint64_t interval_records) {
    DEW_ASSERT(before.passes.size() == after.passes.size());
    core::sweep_result diff;
    diff.requests = interval_records;
    diff.passes.reserve(after.passes.size());
    for (std::size_t i = 0; i < after.passes.size(); ++i) {
        const core::dew_result& b = before.passes[i];
        const core::dew_result& a = after.passes[i];
        const unsigned max_level = a.max_level();
        std::vector<std::uint64_t> misses_assoc(max_level + 1);
        std::vector<std::uint64_t> misses_dm(max_level + 1);
        for (unsigned level = 0; level <= max_level; ++level) {
            misses_assoc[level] = a.misses(level, a.associativity()) -
                                  b.misses(level, b.associativity());
            misses_dm[level] = a.misses(level, 1) - b.misses(level, 1);
        }
        diff.passes.emplace_back(max_level, a.associativity(), a.block_size(),
                                 interval_records, std::move(misses_assoc),
                                 std::move(misses_dm), core::dew_counters{});
    }
    return diff;
}

} // namespace

const config_estimate& representative_sweep_result::estimate_of(
    const cache::cache_config& config) const {
    for (const config_estimate& estimate : configs) {
        if (estimate.config.set_count == config.set_count &&
            estimate.config.associativity == config.associativity &&
            estimate.config.block_size == config.block_size) {
            return estimate;
        }
    }
    throw std::out_of_range{
        "configuration not covered by this representative sweep: " +
        cache::to_string(config)};
}

void calibrate(representative_sweep_result& estimate,
               const core::sweep_result& exact) {
    const std::vector<core::config_outcome> outcomes = exact.outcomes();
    if (estimate.configs.empty() && !outcomes.empty()) {
        // Empty trace produced no phases; still report the covered
        // configurations, all with zero estimates.
        estimate.configs.resize(outcomes.size());
        for (std::size_t c = 0; c < outcomes.size(); ++c) {
            estimate.configs[c].config = outcomes[c].config;
        }
    }
    DEW_ASSERT(estimate.configs.size() == outcomes.size());
    estimate.calibration_seconds = exact.seconds;
    estimate.calibrated = true;
    estimate.max_abs_error_pp = 0.0;
    for (std::size_t c = 0; c < outcomes.size(); ++c) {
        config_estimate& config = estimate.configs[c];
        DEW_ASSERT(outcomes[c].config.set_count == config.config.set_count);
        config.exact_misses = outcomes[c].misses;
        config.exact_miss_rate =
            estimate.total_records == 0
                ? 0.0
                : static_cast<double>(outcomes[c].misses) /
                      static_cast<double>(estimate.total_records);
        config.abs_error_pp =
            100.0 * std::abs(config.estimated_miss_rate -
                             config.exact_miss_rate);
        estimate.max_abs_error_pp =
            std::max(estimate.max_abs_error_pp, config.abs_error_pp);
    }
}

representative_sweep_result
representative_sweep(const source_factory& make_source,
                     const representative_sweep_request& request) {
    core::validate(request.sweep);
    validate(request.phase);
    if (!make_source) {
        throw std::invalid_argument{
            "representative_sweep: source_factory must not be empty"};
    }
    representative_sweep_result result;

    // Stage 1-3: signature -> cluster -> select, one streaming pass.
    const auto analysis_start = clock::now();
    {
        const std::unique_ptr<trace::source> src = make_source();
        result.phases = analyze(*src, request.phase);
    }
    result.analysis_seconds = seconds_since(analysis_start);
    result.total_records = result.phases.plan.total_records;

    // Stage 4: simulate each phase's representative interval through an
    // ordinary session, measuring interval misses by diffing at the fence.
    const auto simulation_start = clock::now();
    std::vector<double> rates; // per config, record-weighted mean rate
    for (const phase_info& info : result.phases.plan.phases) {
        const interval_signature& rep =
            result.phases.signatures[info.representative];
        const std::uint64_t fence = rep.start;
        const std::uint64_t window_start =
            fence >= request.warmup_records ? fence - request.warmup_records
                                            : 0;
        const std::uint64_t window_end = rep.start + rep.records;
        const std::uint64_t warmup = fence - window_start;

        const std::unique_ptr<trace::source> src = make_source();
        fenced_window_source window{*src, window_start, window_end, fence};
        core::session session{window, request.sweep};
        while (session.requests() < warmup && session.step()) {
        }
        DEW_ASSERT(session.requests() == warmup);
        const core::sweep_result at_fence = session.result();
        session.run();
        DEW_ASSERT(session.requests() == warmup + rep.records);
        const core::sweep_result interval =
            diff_results(at_fence, session.result(), rep.records);
        result.simulated_records += warmup + rep.records;

        const std::vector<core::config_outcome> outcomes =
            interval.outcomes();
        if (rates.empty()) {
            rates.resize(outcomes.size(), 0.0);
            result.configs.resize(outcomes.size());
            for (std::size_t c = 0; c < outcomes.size(); ++c) {
                result.configs[c].config = outcomes[c].config;
            }
        }
        DEW_ASSERT(rates.size() == outcomes.size());
        for (std::size_t c = 0; c < outcomes.size(); ++c) {
            DEW_ASSERT(outcomes[c].config.set_count ==
                       result.configs[c].config.set_count);
            // Per-interval rate first, then the phase weight: when one
            // phase covers the whole trace (weight 1) the estimate is the
            // exact rate bit for bit.
            rates[c] += info.weight *
                        (static_cast<double>(outcomes[c].misses) /
                         static_cast<double>(rep.records));
        }
    }
    result.simulation_seconds = seconds_since(simulation_start);

    for (std::size_t c = 0; c < result.configs.size(); ++c) {
        result.configs[c].estimated_miss_rate = rates[c];
        result.configs[c].estimated_misses =
            static_cast<std::uint64_t>(std::llround(
                rates[c] * static_cast<double>(result.total_records)));
    }

    if (request.calibrate) {
        const std::unique_ptr<trace::source> src = make_source();
        calibrate(result, core::run_sweep(*src, request.sweep));
    }
    return result;
}

representative_sweep_result
representative_sweep(const trace::mem_trace& trace,
                     const representative_sweep_request& request) {
    const source_factory factory = [&trace]() -> std::unique_ptr<trace::source> {
        return std::make_unique<trace::span_source>(
            std::span<const trace::mem_access>{trace.data(), trace.size()});
    };
    return representative_sweep(factory, request);
}

} // namespace dew::phase

// Representative-interval sweeps: the phase-analysis pipeline's payoff.
//
// Instead of walking every reference of the trace, the sweep
//   1. streams the trace once to compute interval signatures, clusters
//      them and picks one representative interval per phase
//      (phase/selector.hpp);
//   2. simulates only the representatives — each with a configurable
//      warmup prefix — through the unmodified dew::session machinery on
//      either exact engine (sweep_request::engine);
//   3. extrapolates: a configuration's estimated miss rate is the
//      record-weighted mean of the representatives' per-interval miss
//      rates, and the estimated miss count is that rate times the trace
//      length.
//
// Per-interval miss counts are measured exactly by diffing session
// results at a fence (phase/window.hpp): the session simulates
// [warmup | interval] as one stream, result() is snapshotted at the
// warmup/interval boundary, and the interval's misses are the difference —
// so the representative's cache state is warm and no simulator or session
// code path is special-cased for sampling.
//
// calibrate() compares an estimate against an exact sweep of the same grid
// (request.calibrate runs one and calls it), and every estimate then
// carries its measured absolute error in miss-rate percentage points — the
// estimator reports its own accuracy instead of asking to be trusted
// (tests/phase/representative_sweep_test.cpp bounds it on the Mediabench
// profile grid).
//
// Because both the signature pass and the simulation passes need to read
// the trace, the entry point takes a *factory* of sources rather than a
// single-shot source; the in-memory overload replays spans for free.
#ifndef DEW_PHASE_REPRESENTATIVE_SWEEP_HPP
#define DEW_PHASE_REPRESENTATIVE_SWEEP_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/config.hpp"
#include "dew/sweep.hpp"
#include "phase/options.hpp"
#include "phase/selector.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dew::phase {

// Produces a fresh source replaying the same record stream each call.
using source_factory = std::function<std::unique_ptr<trace::source>()>;

struct representative_sweep_request {
    // The configuration grid, engine, instrumentation and threading of
    // every simulated interval (and of the calibration pass).
    core::sweep_request sweep{};
    phase_options phase{};
    // Records simulated before each representative interval to warm the
    // cache state (clipped at the trace start).  Warmup references are fed
    // through the same session but excluded from the interval's counts.
    // Size it to cover the largest simulated cache's block capacity a few
    // times over, or per-interval cold starts bias estimates upward on
    // high-hit-rate workloads.
    std::uint64_t warmup_records{2048};
    // Also run the exact sweep and calibrate() against it.
    bool calibrate{false};
};

struct config_estimate {
    cache::cache_config config;
    std::uint64_t estimated_misses{0};
    double estimated_miss_rate{0.0};
    // Valid only when the result is calibrated:
    std::uint64_t exact_misses{0};
    double exact_miss_rate{0.0};
    // |estimated - exact| miss rate, in percentage points.
    double abs_error_pp{0.0};
};

struct representative_sweep_result {
    analysis phases; // signatures, clustering, plan
    // One estimate per covered configuration, in sweep_result::outcomes()
    // order (associativity-1 configurations once per block size).
    std::vector<config_estimate> configs;
    std::uint64_t total_records{0};     // trace length
    std::uint64_t simulated_records{0}; // warmup + representative intervals
    double analysis_seconds{0.0};       // signature + cluster + select
    double simulation_seconds{0.0};     // representative-interval sessions
    double calibration_seconds{0.0};    // exact pass (calibrated only)
    bool calibrated{false};
    // Max abs_error_pp over configs; 0 when not calibrated.
    double max_abs_error_pp{0.0};

    // Fraction of the trace's records actually simulated (including
    // warmup) — the work the representative sweep saves is 1 - this.
    [[nodiscard]] double simulated_fraction() const noexcept {
        return total_records == 0
                   ? 0.0
                   : static_cast<double>(simulated_records) /
                         static_cast<double>(total_records);
    }

    // Estimate for one configuration; throws std::out_of_range when the
    // sweep did not cover it.
    [[nodiscard]] const config_estimate&
    estimate_of(const cache::cache_config& config) const;
};

// Runs the representative sweep over a replayable trace.  Throws
// std::invalid_argument on an ill-formed sweep request or phase options.
[[nodiscard]] representative_sweep_result
representative_sweep(const source_factory& make_source,
                     const representative_sweep_request& request);

// In-memory convenience: replays zero-copy spans over the trace.
[[nodiscard]] representative_sweep_result
representative_sweep(const trace::mem_trace& trace,
                     const representative_sweep_request& request);

// Fills the exact/error fields of `estimate` and sets calibrated, from
// `exact` = run_sweep of the same grid over the same trace
// (calibration_seconds = exact.seconds).
void calibrate(representative_sweep_result& estimate,
               const core::sweep_result& exact);

} // namespace dew::phase

#endif // DEW_PHASE_REPRESENTATIVE_SWEEP_HPP

// Design-space exploration driver: the paper's motivating use case.
//
// Runs one DEW pass per (block size, associativity) pair of the space —
// 28 passes for the paper's 525-configuration Table 1 space instead of 525
// independent simulations — and ranks every configuration by exact miss
// count, modelled energy, and average access time.
//
// Exploration can also run in `representative` mode (exploration_mode):
// the phase subsystem (src/phase/) clusters the trace's intervals, only
// one representative interval per phase is simulated, and every ranking is
// computed from the record-weighted estimates.  With
// explorer_options::calibrate the exact sweep runs too and the result
// reports its measured worst-case miss-rate error against the requested
// error budget — the estimate ships with its own accuracy statement.
#ifndef DEW_EXPLORE_EXPLORER_HPP
#define DEW_EXPLORE_EXPLORER_HPP

#include <cstdint>
#include <vector>

#include "cache/config.hpp"
#include "explore/config_space.hpp"
#include "explore/energy_model.hpp"
#include "phase/options.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dew::explore {

struct explored_config {
    cache::cache_config config;
    std::uint64_t misses{0};
    double miss_rate{0.0};
    double energy_pj{0.0};
    double amat_ns{0.0};
};

// How the space's miss counts are obtained: `exact` simulates every
// reference; `representative` simulates one interval per phase and
// extrapolates (src/phase/representative_sweep.hpp).
enum class exploration_mode : std::uint8_t {
    exact = 0,
    representative = 1,
};

struct exploration_result {
    std::vector<explored_config> configs; // every config of the space
    std::uint64_t requests{0};
    std::size_t dew_passes{0};     // single-pass simulations performed
    // Time spent simulating (representative mode: the representative
    // sessions only — the two costs below are reported separately so
    // cross-mode speedup comparisons stay honest).
    double simulation_seconds{0.0};
    // Representative mode only: the full-trace signature scan and, with
    // calibrate, the exact calibration sweep.  Zero in exact mode.
    double analysis_seconds{0.0};
    double calibration_seconds{0.0};

    // Representative mode only: miss counts are estimates.
    bool estimated{false};
    // Representative mode with calibrate: the exact sweep also ran and the
    // worst-case |estimated - exact| miss rate over the reported configs,
    // in percentage points, was measured.
    bool calibrated{false};
    double max_abs_error_pp{0.0};
    // max_abs_error_pp <= explorer_options::error_budget_pp.  Always true
    // for exact or uncalibrated results.
    bool within_error_budget{true};

    // Lowest total energy / lowest AMAT / lowest miss rate configuration.
    // Throw std::logic_error (naming the selector) when `configs` is empty
    // — e.g. after a capacity filter that excluded the whole space.
    [[nodiscard]] const explored_config& best_energy() const;
    [[nodiscard]] const explored_config& best_amat() const;
    [[nodiscard]] const explored_config& best_miss_rate() const;

    // Energy/AMAT Pareto frontier, ordered by energy.  A configuration is
    // kept iff no other configuration is better in both dimensions.
    [[nodiscard]] std::vector<explored_config> pareto_energy_amat() const;
};

struct explorer_options {
    config_space space{};
    energy_model model{};
    // Maximum total capacity to include in rankings (0 = no limit) —
    // embedded budgets usually exclude the 16 MiB corner of Table 1.
    std::uint64_t max_capacity_bytes{0};
    // Worker threads for the underlying sweep (0 = serial).  Results are
    // identical either way; passes are independent.
    unsigned threads{0};

    // exact (default) or representative (see exploration_mode).
    exploration_mode mode{exploration_mode::exact};
    // Representative mode: phase-analysis knobs, per-interval warmup, and
    // whether to also run the exact sweep to measure the estimation error.
    phase::phase_options phase{};
    std::uint64_t warmup_records{2048};
    bool calibrate{false};
    // Error budget the calibrated result is checked against (miss-rate
    // percentage points).
    double error_budget_pp{2.0};
};

// Explores the space over a streaming trace source: the underlying sweep
// runs on the chunked dew::session pipeline, so peak memory is bounded by
// the chunk and the trace is never materialised.  Throws
// std::invalid_argument when the space produces an ill-formed sweep
// request — or when options.mode is `representative`, which needs a
// replayable trace: use the in-memory overload (or call
// phase::representative_sweep with a source factory directly).
[[nodiscard]] exploration_result explore(trace::source& src,
                                         const explorer_options& options = {});

// In-memory convenience: wraps the trace in a zero-copy source.  Supports
// both exploration modes.
[[nodiscard]] exploration_result explore(const trace::mem_trace& trace,
                                         const explorer_options& options = {});

} // namespace dew::explore

#endif // DEW_EXPLORE_EXPLORER_HPP

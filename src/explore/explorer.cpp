#include "explore/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "dew/session.hpp"
#include "dew/sweep.hpp"
#include "phase/representative_sweep.hpp"

namespace dew::explore {

namespace {

const explored_config&
best_by(const std::vector<explored_config>& configs, const char* selector,
        bool (*better)(const explored_config&, const explored_config&)) {
    if (configs.empty()) {
        throw std::logic_error{std::string{selector} +
                               ": exploration result has no configurations"};
    }
    const explored_config* best = &configs.front();
    for (const explored_config& candidate : configs) {
        if (better(candidate, *best)) {
            best = &candidate;
        }
    }
    return *best;
}

// The sweep request covering the space: one pass per (block size, A != 1)
// pair; associativity-1 misses ride along on the first pass of each block
// size.  A direct-mapped-only space degenerates to explicit A = 1 passes.
core::sweep_request request_for(const explorer_options& options) {
    const config_space& space = options.space;
    core::sweep_request request;
    request.max_set_exp = space.max_set_exp;
    request.block_sizes.clear();
    for (unsigned b = space.min_block_exp; b <= space.max_block_exp; ++b) {
        request.block_sizes.push_back(std::uint32_t{1} << b);
    }
    request.associativities.clear();
    for (unsigned a = std::max(space.min_assoc_exp, 1u);
         a <= space.max_assoc_exp; ++a) {
        request.associativities.push_back(std::uint32_t{1} << a);
    }
    if (request.associativities.empty()) {
        request.associativities.push_back(1);
    }
    request.threads = options.threads;
    return request;
}

// Keeps the outcomes the space asked for (set-exponent range, the
// direct-mapped row only when requested), applies the capacity filter, and
// computes the derived metrics.
void finish_result(exploration_result& result,
                   const std::vector<core::config_outcome>& outcomes,
                   const explorer_options& options) {
    const config_space& space = options.space;
    const bool want_dm = space.min_assoc_exp == 0;
    for (const core::config_outcome& outcome : outcomes) {
        const unsigned set_exp = log2_exact(outcome.config.set_count);
        if (set_exp < space.min_set_exp || set_exp > space.max_set_exp) {
            continue;
        }
        if (outcome.config.associativity == 1 && !want_dm &&
            space.min_assoc_exp != 0) {
            continue;
        }
        result.configs.push_back(
            {outcome.config, outcome.misses, 0.0, 0.0, 0.0});
    }

    if (options.max_capacity_bytes != 0) {
        std::erase_if(result.configs, [&](const explored_config& c) {
            return c.config.total_bytes() > options.max_capacity_bytes;
        });
    }
    for (explored_config& entry : result.configs) {
        entry.miss_rate =
            result.requests == 0
                ? 0.0
                : static_cast<double>(entry.misses) /
                      static_cast<double>(result.requests);
        entry.energy_pj = options.model.total_energy_pj(
            entry.config, result.requests, entry.misses);
        entry.amat_ns =
            options.model.amat_ns(entry.config, result.requests, entry.misses);
    }
}

exploration_result explore_representative(const trace::mem_trace& trace,
                                          const explorer_options& options) {
    phase::representative_sweep_request rep_request;
    rep_request.sweep = request_for(options);
    rep_request.phase = options.phase;
    rep_request.warmup_records = options.warmup_records;
    rep_request.calibrate = options.calibrate;
    const phase::representative_sweep_result rep =
        phase::representative_sweep(trace, rep_request);

    exploration_result result;
    result.requests = rep.total_records;
    result.simulation_seconds = rep.simulation_seconds;
    result.analysis_seconds = rep.analysis_seconds;
    result.calibration_seconds = rep.calibration_seconds;
    result.dew_passes = rep.phases.plan.phases.size() *
                            rep_request.sweep.block_sizes.size() *
                            rep_request.sweep.associativities.size() +
                        (rep.calibrated
                             ? rep_request.sweep.block_sizes.size() *
                                   rep_request.sweep.associativities.size()
                             : 0);
    result.estimated = true;
    result.calibrated = rep.calibrated;

    std::vector<core::config_outcome> outcomes;
    outcomes.reserve(rep.configs.size());
    for (const phase::config_estimate& estimate : rep.configs) {
        outcomes.push_back({estimate.config, estimate.estimated_misses,
                            rep.total_records - std::min(rep.total_records,
                                                         estimate.estimated_misses)});
    }
    finish_result(result, outcomes, options);

    if (rep.calibrated) {
        // Error over the configurations the result actually reports (the
        // space and capacity filters may have dropped part of the sweep).
        for (const explored_config& entry : result.configs) {
            result.max_abs_error_pp =
                std::max(result.max_abs_error_pp,
                         rep.estimate_of(entry.config).abs_error_pp);
        }
        result.within_error_budget =
            result.max_abs_error_pp <= options.error_budget_pp;
    }
    return result;
}

} // namespace

const explored_config& exploration_result::best_energy() const {
    return best_by(configs, "best_energy",
                   [](const explored_config& a, const explored_config& b) {
                       return a.energy_pj < b.energy_pj;
                   });
}

const explored_config& exploration_result::best_amat() const {
    return best_by(configs, "best_amat",
                   [](const explored_config& a, const explored_config& b) {
                       return a.amat_ns < b.amat_ns;
                   });
}

const explored_config& exploration_result::best_miss_rate() const {
    return best_by(configs, "best_miss_rate",
                   [](const explored_config& a, const explored_config& b) {
                       return a.misses < b.misses ||
                              (a.misses == b.misses &&
                               a.config.total_bytes() < b.config.total_bytes());
                   });
}

std::vector<explored_config> exploration_result::pareto_energy_amat() const {
    std::vector<explored_config> sorted = configs;
    std::sort(sorted.begin(), sorted.end(),
              [](const explored_config& a, const explored_config& b) {
                  return a.energy_pj < b.energy_pj ||
                         (a.energy_pj == b.energy_pj && a.amat_ns < b.amat_ns);
              });
    std::vector<explored_config> frontier;
    double best_amat = std::numeric_limits<double>::infinity();
    for (const explored_config& candidate : sorted) {
        if (candidate.amat_ns < best_amat) {
            frontier.push_back(candidate);
            best_amat = candidate.amat_ns;
        }
    }
    return frontier;
}

exploration_result explore(trace::source& src,
                           const explorer_options& options) {
    if (options.mode == exploration_mode::representative) {
        throw std::invalid_argument{
            "representative exploration needs a replayable trace: use "
            "explore(const trace::mem_trace&, ...) or "
            "phase::representative_sweep with a source factory"};
    }
    exploration_result result;
    const core::sweep_request request = request_for(options);
    const core::sweep_result sweep = core::run_sweep(src, request);
    result.requests = sweep.requests;
    result.dew_passes = sweep.passes.size();
    result.simulation_seconds = sweep.seconds;
    finish_result(result, sweep.outcomes(), options);
    return result;
}

exploration_result explore(const trace::mem_trace& trace,
                           const explorer_options& options) {
    if (options.mode == exploration_mode::representative) {
        return explore_representative(trace, options);
    }
    trace::span_source src{{trace.data(), trace.size()}};
    return explore(src, options);
}

} // namespace dew::explore

// End-to-end design-space exploration: one DEW pass per (B, A) pair must
// cover the whole space with exact counts, and the ranking/Pareto helpers
// must be consistent with the raw results.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "baseline/dinero_sim.hpp"
#include "explore/explorer.hpp"
#include "explore/report.hpp"
#include "trace/mediabench.hpp"
#include "trace/sampling.hpp"

#include <sstream>

namespace {

using namespace dew;
using namespace dew::explore;

// A small space keeps the oracle cross-check fast: 5 set sizes x 2 block
// sizes x 3 associativities = 30 configurations in 4 DEW passes.
config_space small_space() {
    config_space space;
    space.min_set_exp = 0;
    space.max_set_exp = 4;
    space.min_block_exp = 2;
    space.max_block_exp = 3;
    space.min_assoc_exp = 0;
    space.max_assoc_exp = 2;
    return space;
}

trace::mem_trace workload() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 15000);
}

TEST(Explorer, CoversEveryConfigurationExactlyOnce) {
    explorer_options options;
    options.space = small_space();
    const exploration_result result = dew::explore::explore(workload(), options);
    EXPECT_EQ(result.configs.size(), small_space().count());
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
    for (const explored_config& entry : result.configs) {
        seen.insert({entry.config.set_count, entry.config.associativity,
                     entry.config.block_size});
    }
    EXPECT_EQ(seen.size(), result.configs.size());
    EXPECT_EQ(result.dew_passes, 4u); // 2 blocks x 2 non-unit assocs
}

TEST(Explorer, MissCountsMatchPerConfigOracle) {
    const trace::mem_trace trace = workload();
    explorer_options options;
    options.space = small_space();
    const exploration_result result = dew::explore::explore(trace, options);
    for (const explored_config& entry : result.configs) {
        EXPECT_EQ(entry.misses,
                  baseline::count_misses(trace, entry.config,
                                         cache::replacement_policy::fifo))
            << cache::to_string(entry.config);
    }
}

TEST(Explorer, PaperSpaceCountsAndPassStructure) {
    // The full 525-configuration space on a short trace: structure only.
    const exploration_result result =
        dew::explore::explore(trace::make_mediabench_trace(trace::mediabench_app::djpeg,
                                             4000));
    EXPECT_EQ(result.configs.size(), 525u);
    EXPECT_EQ(result.dew_passes, 28u);
}

TEST(Explorer, BestSelectorsAgreeWithExhaustiveScan) {
    explorer_options options;
    options.space = small_space();
    const exploration_result result = dew::explore::explore(workload(), options);

    const explored_config& best_energy = result.best_energy();
    const explored_config& best_amat = result.best_amat();
    for (const explored_config& entry : result.configs) {
        EXPECT_GE(entry.energy_pj, best_energy.energy_pj);
        EXPECT_GE(entry.amat_ns, best_amat.amat_ns);
    }
}

TEST(Explorer, ParetoFrontierIsMinimalAndDominating) {
    explorer_options options;
    options.space = small_space();
    const exploration_result result = dew::explore::explore(workload(), options);
    const auto frontier = result.pareto_energy_amat();
    ASSERT_FALSE(frontier.empty());

    // Frontier is sorted by energy with strictly improving AMAT.
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GE(frontier[i].energy_pj, frontier[i - 1].energy_pj);
        EXPECT_LT(frontier[i].amat_ns, frontier[i - 1].amat_ns);
    }
    // No config strictly dominates a frontier member.
    for (const explored_config& member : frontier) {
        for (const explored_config& entry : result.configs) {
            EXPECT_FALSE(entry.energy_pj < member.energy_pj &&
                         entry.amat_ns < member.amat_ns)
                << cache::to_string(entry.config) << " dominates "
                << cache::to_string(member.config);
        }
    }
}

TEST(Explorer, CapacityFilterDropsOversizedConfigs) {
    explorer_options options;
    options.space = small_space();
    options.max_capacity_bytes = 256;
    const exploration_result result = dew::explore::explore(workload(), options);
    EXPECT_LT(result.configs.size(), small_space().count());
    for (const explored_config& entry : result.configs) {
        EXPECT_LE(entry.config.total_bytes(), 256u);
    }
}

TEST(Explorer, MissRatesAreConsistent) {
    explorer_options options;
    options.space = small_space();
    const exploration_result result = dew::explore::explore(workload(), options);
    for (const explored_config& entry : result.configs) {
        EXPECT_DOUBLE_EQ(entry.miss_rate,
                         static_cast<double>(entry.misses) /
                             static_cast<double>(result.requests));
        EXPECT_LE(entry.miss_rate, 1.0);
    }
}

TEST(Explorer, BestSelectorsThrowOnEmptyResult) {
    // A capacity filter can exclude the entire space; the selectors must
    // fail loudly (std::logic_error naming the selector), not read past
    // an empty vector.
    explorer_options options;
    options.space = small_space();
    options.max_capacity_bytes = 1; // below every configuration
    const exploration_result result = dew::explore::explore(workload(), options);
    ASSERT_TRUE(result.configs.empty());

    EXPECT_THROW((void)result.best_energy(), std::logic_error);
    EXPECT_THROW((void)result.best_amat(), std::logic_error);
    EXPECT_THROW((void)result.best_miss_rate(), std::logic_error);
    EXPECT_TRUE(result.pareto_energy_amat().empty());

    const exploration_result empty{};
    EXPECT_THROW((void)empty.best_energy(), std::logic_error);
}

TEST(Explorer, RepresentativeModeCoversTheSpaceWithinBudget) {
    const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 40000);
    explorer_options options;
    options.space = small_space();
    options.mode = exploration_mode::representative;
    options.phase.interval_records = 4096;
    options.phase.max_phases = 6;
    options.warmup_records = 2048;
    options.calibrate = true;
    options.error_budget_pp = 2.0;

    const exploration_result estimated =
        dew::explore::explore(trace, options);
    EXPECT_TRUE(estimated.estimated);
    EXPECT_TRUE(estimated.calibrated);
    EXPECT_EQ(estimated.configs.size(), small_space().count());
    EXPECT_EQ(estimated.requests, trace.size());
    EXPECT_TRUE(estimated.within_error_budget)
        << "max error " << estimated.max_abs_error_pp << " pp";
    EXPECT_LE(estimated.max_abs_error_pp, options.error_budget_pp);

    // The estimated ranking is built over the same configurations as the
    // exact one, and every estimated miss rate sits within the budget of
    // the exact rate.
    options.mode = exploration_mode::exact;
    const exploration_result exact = dew::explore::explore(trace, options);
    ASSERT_EQ(estimated.configs.size(), exact.configs.size());
    EXPECT_FALSE(exact.estimated);
    EXPECT_DOUBLE_EQ(exact.max_abs_error_pp, 0.0);
    for (std::size_t i = 0; i < exact.configs.size(); ++i) {
        EXPECT_EQ(estimated.configs[i].config.set_count,
                  exact.configs[i].config.set_count);
        EXPECT_EQ(estimated.configs[i].config.associativity,
                  exact.configs[i].config.associativity);
        EXPECT_EQ(estimated.configs[i].config.block_size,
                  exact.configs[i].config.block_size);
        EXPECT_NEAR(estimated.configs[i].miss_rate,
                    exact.configs[i].miss_rate, 0.02)
            << cache::to_string(exact.configs[i].config);
    }
}

TEST(Explorer, RepresentativeModeRejectsSingleShotSources) {
    const trace::mem_trace trace = workload();
    trace::span_source src{{trace.data(), trace.size()}};
    explorer_options options;
    options.space = small_space();
    options.mode = exploration_mode::representative;
    EXPECT_THROW((void)dew::explore::explore(src, options),
                 std::invalid_argument);
}

TEST(Explorer, ExploresAWrappedSampleSource) {
    // Sampling composes with exploration by wrapping the source: the
    // exact exploration of a set-sampling wrapper must match exploring the
    // eagerly-sampled trace outright, and the wrapper reports the kept
    // records the exploration simulated.
    const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::mpeg2_dec, 20000);
    const trace::set_sample_spec spec{16, 8, 4, 1};

    explorer_options options;
    options.space = small_space();
    const exploration_result eager =
        dew::explore::explore(trace::set_sample(trace, spec).sampled, options);

    trace::span_source upstream{trace};
    trace::set_sample_source sampled{upstream, spec};
    const exploration_result wrapped =
        dew::explore::explore(sampled, options);

    EXPECT_EQ(sampled.kept(), wrapped.requests);
    EXPECT_EQ(wrapped.requests, eager.requests);
    ASSERT_EQ(wrapped.configs.size(), eager.configs.size());
    for (std::size_t i = 0; i < eager.configs.size(); ++i) {
        EXPECT_EQ(wrapped.configs[i].misses, eager.configs[i].misses)
            << cache::to_string(eager.configs[i].config);
    }
}

TEST(ExplorerReport, SummaryAndCsvRender) {
    explorer_options options;
    options.space = small_space();
    const exploration_result result = dew::explore::explore(workload(), options);

    std::ostringstream summary;
    write_summary(summary, result);
    EXPECT_NE(summary.str().find("passes"), std::string::npos);

    std::ostringstream csv;
    write_csv(csv, result);
    // Header + one line per configuration.
    std::size_t lines = 0;
    for (const char c : csv.str()) {
        lines += c == '\n';
    }
    EXPECT_EQ(lines, result.configs.size() + 1);

    std::ostringstream top;
    write_top_by_energy(top, result, 5);
    EXPECT_FALSE(top.str().empty());
}

} // namespace

// Ablation bench (an extension of Table 4): each DEW
// optimisation property is disabled in turn and the cost is measured in
// node evaluations, tag-list searches, tag comparisons, and wall-clock
// time.  Every variant stays *exact* — the per-configuration miss counts
// are asserted identical to full DEW — only the work to obtain them
// changes.  This isolates the contribution of each property the way
// Table 4's counters only suggest.
//
// Also reports the FIFO tag-list search-order ablation of the baseline
// simulator (way order, what hardware-parallel comparators and Dinero
// model, versus newest-first, which exploits temporal locality in
// software): FIFO positions are static, so the order changes comparison
// counts but never outcomes.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "baseline/dinero_sim.hpp"
#include "bench_common.hpp"
#include "bench_support/runners.hpp"
#include "bench_support/table.hpp"
#include "common/contracts.hpp"
#include "dew/options.hpp"
#include "dew/result.hpp"
#include "dew/simulator.hpp"

namespace {

using namespace dew;
using namespace dew::bench;

constexpr unsigned max_level = paper_max_level;
constexpr std::uint32_t assoc = 4;
constexpr std::uint32_t block_size = 4;

struct variant {
    const char* name;
    core::dew_options options;
};

constexpr variant variants[] = {
    {"full DEW (P1+P2+P3+P4)", {true, true, true}},
    {"no MRA stop   (P1+P3+P4)", {false, true, true}},
    {"no wave ptr   (P1+P2+P4)", {true, false, true}},
    {"no MRE entry  (P1+P2+P3)", {true, true, false}},
    {"tree only     (P1)", core::dew_options::unoptimized()},
};

void run_app(trace::mediabench_app app) {
    const trace::mem_trace& trace = scaled_trace(app);

    // Ground truth: full DEW.
    core::dew_simulator reference{max_level, assoc, block_size};
    reference.simulate(trace);
    const core::dew_result expected = reference.result();

    std::printf("%s (%s requests, A=%u, B=%u):\n", trace::short_name(app),
                with_commas(trace.size()).c_str(), assoc, block_size);
    text_table table{{"Variant", "Mev", "Srch M", "Cmp M", "seconds",
                      "cmp vs DEW"}};
    double full_dew_comparisons = 0.0;
    for (const variant& v : variants) {
        core::dew_simulator sim{max_level, assoc, block_size, v.options};
        const auto start = std::chrono::steady_clock::now();
        sim.simulate(trace);
        const auto stop = std::chrono::steady_clock::now();
        const double seconds =
            std::chrono::duration<double>(stop - start).count();

        // Exactness under ablation: every configuration's miss count must
        // match full DEW no matter which properties are disabled.
        const core::dew_result result = sim.result();
        for (unsigned level = 0; level <= max_level; ++level) {
            DEW_ASSERT(result.misses(level, assoc) ==
                       expected.misses(level, assoc));
            DEW_ASSERT(result.misses(level, 1) == expected.misses(level, 1));
        }

        const core::dew_counters& c = sim.counters();
        if (&v == &variants[0]) {
            full_dew_comparisons = static_cast<double>(c.tag_comparisons);
        }
        table.add_row({
            v.name,
            in_millions(c.node_evaluations),
            in_millions(c.searches),
            in_millions(c.tag_comparisons),
            fixed_decimal(seconds, 3),
            times(static_cast<double>(c.tag_comparisons) /
                  full_dew_comparisons),
        });
    }
    table.print(std::cout);
    std::printf("\n");
}

void run_search_order(trace::mediabench_app app) {
    const trace::mem_trace& trace = scaled_trace(app);
    const cache::cache_config config{256, assoc, block_size};
    text_table table{{"FIFO search order", "hits", "misses", "Cmp M"}};
    std::uint64_t way_misses = 0;
    for (const auto order : {cache::fifo_search_order::way_order,
                             cache::fifo_search_order::newest_first}) {
        baseline::dinero_options options;
        options.fifo_order = order;
        baseline::dinero_sim sim{config, options};
        sim.simulate(trace);
        if (order == cache::fifo_search_order::way_order) {
            way_misses = sim.stats().misses;
        }
        DEW_ASSERT(sim.stats().misses == way_misses); // order never changes outcomes
        table.add_row({
            order == cache::fifo_search_order::way_order ? "way order"
                                                         : "newest first",
            with_commas(sim.stats().hits),
            with_commas(sim.stats().misses),
            in_millions(sim.stats().tag_comparisons),
        });
    }
    std::printf("%s, single configuration %s:\n", trace::short_name(app),
                cache::to_string(config).c_str());
    table.print(std::cout);
    std::printf("\n");
}

void run_victim_depth_sweep(trace::mediabench_app app) {
    // Extension beyond the paper: Property 4's single MRE entry generalised
    // to a k-entry victim buffer.  Deeper buffers prove more misses without
    // a search (fewer searches, fewer comparisons) until the probe cost of
    // scanning the buffer itself dominates — the sweep exposes the knee.
    const trace::mem_trace& trace = scaled_trace(app);
    std::printf("%s, victim-buffer depth sweep (A=%u, B=%u):\n",
                trace::short_name(app), assoc, block_size);
    text_table table{{"Depth", "MRE det M", "Srch M", "Cmp M", "bits/node"}};
    for (const std::uint32_t depth : {0u, 1u, 2u, 4u, 8u, 16u}) {
        core::dew_options options;
        options.use_mre = depth > 0;
        options.mre_depth = depth == 0 ? 1 : depth;
        core::dew_simulator sim{max_level, assoc, block_size, options};
        sim.simulate(trace);
        const core::dew_counters& c = sim.counters();
        table.add_row({
            depth == 1 ? "1 (paper)" : std::to_string(depth),
            in_millions(c.mre_determinations),
            in_millions(c.searches),
            in_millions(c.tag_comparisons),
            std::to_string(sim.tree().bits_per_node()),
        });
    }
    table.print(std::cout);
    std::printf("\n");
}

} // namespace

int main() {
    print_banner("Ablation — cost of disabling each DEW property",
                 "extension of Table 4: every variant exact, only the work "
                 "differs");
    run_app(trace::mediabench_app::cjpeg);
    run_app(trace::mediabench_app::mpeg2_dec);
    run_search_order(trace::mediabench_app::cjpeg);
    run_victim_depth_sweep(trace::mediabench_app::mpeg2_dec);
    return 0;
}

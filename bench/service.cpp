// bench_service — throughput and absorption of the sweep service under a
// duplicate-heavy request storm, the regime a design-space-exploration
// front end produces (many tools asking overlapping questions about a
// shared trace corpus).  It prints the phase table of the serving harness
// (bench_support/serving.hpp: cold, storm, replay, deadline, degrade,
// net-storm, net-replay) that also writes bench_micro's serve_* and net_*
// fields, so both binaries report one measurement of one workload.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "bench_support/serving.hpp"
#include "bench_support/table.hpp"
#include "common/format.hpp"

int main() {
    using namespace dew;
    const bench::serving_measurement m = bench::measure_serving();

    std::printf("sweep service: %zu distinct requests (the 6-pass sweep at "
                "set depths 2^8/2^9/2^10) over the %zu-record micro trace, "
                "x%zu duplicate storm\n\n",
                m.cold.requests, bench::bench_trace().size(),
                m.storm.requests / m.cold.requests);

    bench::text_table table{{"phase", "requests", "req/s", "hit rate",
                             "coalesce", "computations", "degraded"}};
    for (const auto& [name, phase] :
         {std::pair{"cold", &m.cold}, std::pair{"storm", &m.storm},
          std::pair{"replay", &m.replay}, std::pair{"deadline", &m.deadline},
          std::pair{"degrade", &m.degrade},
          std::pair{"net-storm", &m.net_storm},
          std::pair{"net-replay", &m.net_replay}}) {
        table.add_row({name, std::to_string(phase->requests),
                       fixed_decimal(phase->requests_per_sec(), 1),
                       fixed_decimal(phase->cache_hit_rate, 2),
                       fixed_decimal(phase->coalesce_factor, 2),
                       std::to_string(phase->computations),
                       std::to_string(phase->degraded)});
    }
    table.print(std::cout);

    const serve::service_stats& stats = m.storm_stats;
    std::printf("\nstorm+replay totals: %llu submitted, %llu computations, "
                "%llu shard jobs, %llu block-size decodes\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.computations),
                static_cast<unsigned long long>(stats.shard_jobs),
                static_cast<unsigned long long>(stats.stream_builds));
    std::printf("storm phase duplicates coalesce %.0f-to-1; replay phase "
                "answers everything from the cache (hit rate %.2f)\n",
                m.storm.coalesce_factor, m.replay.cache_hit_rate);
    std::printf("deadline phase overhead vs cold: %.1f%%; degrade phase "
                "shed %llu of %zu requests to the estimate tier\n",
                (m.cold.requests_per_sec() - m.deadline.requests_per_sec()) /
                    m.cold.requests_per_sec() * 100.0,
                static_cast<unsigned long long>(m.degrade.degraded),
                m.degrade.requests);
    std::printf("networked phases (loopback wire): storm %.1f req/s vs "
                "in-process %.1f; warm replay %.1f req/s vs %.1f — the gap "
                "is the protocol + round trip\n",
                m.net_storm.requests_per_sec(), m.storm.requests_per_sec(),
                m.net_replay.requests_per_sec(), m.replay.requests_per_sec());
    std::printf("warm round trip p50/p95/p99: in-process %.1f/%.1f/%.1f us, "
                "loopback %.1f/%.1f/%.1f us; obs recording overhead %.2f%% "
                "(IQR %.2f)\n",
                m.serve_latency.p50 * 1e3, m.serve_latency.p95 * 1e3,
                m.serve_latency.p99 * 1e3, m.net_latency.p50 * 1e3,
                m.net_latency.p95 * 1e3, m.net_latency.p99 * 1e3,
                m.obs_overhead_pct, m.obs_overhead_spread_pct);
    std::printf("by construction: timeout rate %.2f, retry success rate "
                "%.2f, %llu of a gated wave shed\n",
                m.timeout_rate, m.retry_success_rate,
                static_cast<unsigned long long>(m.degraded_served));
    return 0;
}

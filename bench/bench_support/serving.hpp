// The serving harness behind bench_micro's serve_* / net_* / obs_overhead_*
// fields and bench_service's phase table (docs/PERF.md).  Workload: the
// micro trace and the shared 6-pass sweep at set depths 2^8/2^9/2^10, each
// phase on a fresh service so none inherits another's cache:
//   cold       every distinct request once: pure simulation, the floor;
//   storm      every request 8x with the workers gated, so all duplicates
//              are provably in flight and coalescing absorbs 7 of every 8;
//   replay     the storm again on its warm service: the cache absorbs it;
//   deadline   the cold phase with a 10-minute deadline on every request:
//              the armed deadline sweeps' cost (nothing may time out);
//   degrade    the storm against overflow_policy::degrade at watermark 1:
//              queued-up exact requests shed to their estimate-tier
//              question, and its duplicates coalesce under its key;
//   net-storm, net-replay
//              the storm and its replay through the "DSNW" wire: a
//              loopback net::server, a net::client submitting by digest.
// Then warm round-trip probes in process and over the wire, 16 obs on/off
// pairs of the storm + replay mix, and three waves whose values are fixed
// by construction and asserted: half of a gated wave carries an expired
// deadline (timeout rate 0.5), every flight's first attempt faults and its
// retry succeeds (retry success rate 1.0), and behind one gated exact
// request the rest shed (|requests| - 1 degraded).  An exactness gate
// asserts every answer, in process and over the wire, equal to a direct
// run_sweep at A and at 1 on every level.
#ifndef DEW_BENCH_SUPPORT_SERVING_HPP
#define DEW_BENCH_SUPPORT_SERVING_HPP

#include <cstddef>
#include <cstdint>

#include "dew/sweep.hpp"
#include "serve/service.hpp"
#include "trace/record.hpp"

namespace dew::bench {

// The micro workload: a medium-locality cjpeg trace of 200k records, well
// above L1 working sets so the simulators do real eviction work.
[[nodiscard]] const trace::mem_trace& bench_trace();

// The 6-pass request (S up to 2^10, B {16, 32, 64}, A {4, 8}) shared by
// the sweep, phase and serving measurements, so their ratios compare equal
// requests by construction.
[[nodiscard]] core::sweep_request json_sweep_request();

struct phase_numbers {
    std::size_t requests{0};
    double seconds{0.0};
    // Deltas of the serving service's stats over the phase.
    double cache_hit_rate{0.0};
    double coalesce_factor{1.0};
    std::uint64_t computations{0};
    std::uint64_t degraded{0};
    std::uint64_t timeouts{0};

    [[nodiscard]] double requests_per_sec() const noexcept {
        return static_cast<double>(requests) / seconds;
    }
};

struct latency_ms {
    double p50{0.0};
    double p95{0.0};
    double p99{0.0};
};

struct serving_measurement {
    phase_numbers cold;
    phase_numbers storm;
    phase_numbers replay;
    phase_numbers deadline;
    phase_numbers degrade;
    phase_numbers net_storm;
    phase_numbers net_replay;
    serve::service_stats storm_stats; // the storm + replay service's totals
    // The same service's serve.cache.column_hits / (hits + misses): the
    // share of exact columns its non-coalesced submits found cached.
    double shard_hit_rate{0.0};
    latency_ms serve_latency; // sequential warm in-process submit -> get
    latency_ms net_latency;   // the same over loopback
    // Storm + replay slowdown with recording on vs runtime-off, in percent:
    // the median of the pair ratios and their interquartile range.
    double obs_overhead_pct{0.0};
    double obs_overhead_spread_pct{0.0};
    double timeout_rate{0.0};
    double retry_success_rate{0.0};
    std::uint64_t degraded_served{0};
};

// Runs every phase, probe and wave above; throws contract_violation if an
// answer is inexact or a by-construction value deviates.
[[nodiscard]] serving_measurement measure_serving();

} // namespace dew::bench

#endif // DEW_BENCH_SUPPORT_SERVING_HPP

#include "bench_support/serving.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "trace/fault.hpp"
#include "trace/mediabench.hpp"

namespace dew::bench {

const trace::mem_trace& bench_trace() {
    static const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 200'000);
    return trace;
}

core::sweep_request json_sweep_request() {
    core::sweep_request request;
    request.max_set_exp = 10;
    request.block_sizes = {16, 32, 64};
    request.associativities = {4, 8};
    return request;
}

namespace {

constexpr std::size_t duplicates = 8;
constexpr std::size_t probes = 96;
constexpr int obs_pairs = 16;
constexpr const char* trace_name = "micro";

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point start) {
    return std::chrono::duration<double>(clock::now() - start).count();
}

serve::service_options serving_options(
    serve::overflow_policy overflow = serve::overflow_policy::block) {
    return {2, 256, overflow, {8, 256}};
}

std::unique_ptr<serve::service>
fresh_service(serve::service_options options = serving_options()) {
    auto service = std::make_unique<serve::service>(std::move(options));
    service->add_trace(trace_name, bench_trace());
    return service;
}

auto in_process(serve::service& service) {
    return [&service](const serve::service_request& request) {
        return service.submit(trace_name, request);
    };
}

// Submits every request `repeats` times through `submit` — with the
// workers of `service`, the one answering, gated if asked — waits for
// every answer and reports the wave with `service`'s stats deltas.
template <class Submit>
phase_numbers run_phase(serve::service& service, const Submit& submit,
                        const std::vector<serve::service_request>& requests,
                        std::size_t repeats, bool gate) {
    const serve::service_stats before = service.stats();
    std::vector<serve::submission> handles;
    handles.reserve(requests.size() * repeats);
    const clock::time_point start = clock::now();
    if (gate) {
        service.pause();
    }
    for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
        for (const serve::service_request& request : requests) {
            handles.push_back(submit(request));
        }
    }
    if (gate) {
        service.resume();
    }
    phase_numbers numbers;
    for (serve::submission& handle : handles) {
        try {
            numbers.degraded += handle.get().degraded ? 1 : 0;
        } catch (const serve::service_timeout&) {
            ++numbers.timeouts;
        }
    }
    numbers.seconds = seconds_since(start);
    numbers.requests = handles.size();

    const serve::service_stats after = service.stats();
    const std::uint64_t submitted = after.submitted - before.submitted;
    numbers.computations = after.computations - before.computations;
    numbers.cache_hit_rate =
        submitted == 0 ? 0.0
                       : static_cast<double>(after.cache_hits -
                                             before.cache_hits) /
                             static_cast<double>(submitted);
    numbers.coalesce_factor =
        numbers.computations == 0
            ? 1.0
            : static_cast<double>(numbers.computations + after.coalesced -
                                  before.coalesced) /
                  static_cast<double>(numbers.computations);
    return numbers;
}

// Sequential warm round trips, one request at a time.
template <class Submit>
latency_ms probe_latency(const Submit& submit,
                         const std::vector<serve::service_request>& requests) {
    std::vector<double> ms;
    ms.reserve(probes);
    for (std::size_t i = 0; i < probes; ++i) {
        const clock::time_point start = clock::now();
        (void)submit(requests[i % requests.size()]).get();
        ms.push_back(seconds_since(start) * 1e3);
    }
    std::sort(ms.begin(), ms.end());
    return {ms[probes / 2], ms[probes * 95 / 100], ms[probes * 99 / 100]};
}

// serve.cache.column_hits and column_misses summed over the live services.
std::pair<std::uint64_t, std::uint64_t> column_counts() {
    std::pair<std::uint64_t, std::uint64_t> counts{0, 0};
    for (const obs::metric& m : obs::registry::instance().snapshot()) {
        if (m.name == "serve.cache.column_hits") {
            counts.first = m.value;
        } else if (m.name == "serve.cache.column_misses") {
            counts.second = m.value;
        }
    }
    return counts;
}

// Every answer `submit` gives equals the direct sweep of its request.
template <class Submit>
void check_exact(const Submit& submit,
                 const std::vector<serve::service_request>& requests,
                 const std::vector<core::sweep_result>& direct) {
    for (std::size_t r = 0; r < requests.size(); ++r) {
        const serve::service_result answer = submit(requests[r]).get();
        DEW_ASSERT(answer.sweep != nullptr);
        DEW_ASSERT(answer.sweep->passes.size() == direct[r].passes.size());
        for (std::size_t i = 0; i < direct[r].passes.size(); ++i) {
            const core::dew_result& want = direct[r].passes[i];
            const core::dew_result& got = answer.sweep->passes[i];
            for (unsigned level = 0; level <= want.max_level(); ++level) {
                DEW_ASSERT(got.misses(level, want.associativity()) ==
                           want.misses(level, want.associativity()));
                DEW_ASSERT(got.misses(level, 1) == want.misses(level, 1));
            }
        }
    }
}

} // namespace

serving_measurement measure_serving() {
    std::vector<serve::service_request> requests;
    std::vector<core::sweep_result> direct;
    for (const unsigned exp : {8u, 9u, 10u}) {
        serve::service_request request;
        request.sweep = json_sweep_request();
        request.sweep.max_set_exp = exp;
        requests.push_back(request);
        direct.push_back(core::run_sweep(bench_trace(), request.sweep));
    }
    serving_measurement m;

    {
        const auto service = fresh_service();
        m.cold = run_phase(*service, in_process(*service), requests, 1,
                           /*gate=*/false);
        check_exact(in_process(*service), requests, direct);
    }
    const auto storm = fresh_service();
    const auto [hits_before, misses_before] = column_counts();
    m.storm = run_phase(*storm, in_process(*storm), requests, duplicates,
                        /*gate=*/true);
    m.replay = run_phase(*storm, in_process(*storm), requests, duplicates,
                         /*gate=*/false);
    m.storm_stats = storm->stats();
    {
        // The storm service is the only one alive: the deltas are its own.
        const auto [hits, misses] = column_counts();
        const std::uint64_t found = hits - hits_before;
        const std::uint64_t looked = found + misses - misses_before;
        m.shard_hit_rate = looked == 0 ? 0.0
                                       : static_cast<double>(found) /
                                             static_cast<double>(looked);
    }
    m.serve_latency = probe_latency(in_process(*storm), requests);
    {
        std::vector<serve::service_request> with_deadline = requests;
        for (serve::service_request& request : with_deadline) {
            request.deadline = std::chrono::minutes{10};
        }
        const auto service = fresh_service();
        m.deadline = run_phase(*service, in_process(*service), with_deadline,
                               1, /*gate=*/false);
        DEW_ASSERT(m.deadline.timeouts == 0);
    }
    serve::service_options shedding =
        serving_options(serve::overflow_policy::degrade);
    shedding.degrade_watermark = 1;
    {
        const auto service = fresh_service(shedding);
        m.degrade = run_phase(*service, in_process(*service), requests,
                              duplicates, /*gate=*/true);
    }
    {
        net::server_options server_options;
        server_options.service = serving_options();
        net::server server{server_options};
        net::client client{"127.0.0.1", server.port()};
        const trace::trace_digest digest =
            client.register_trace(bench_trace());
        const auto remote = [&](const serve::service_request& request) {
            return client.submit(digest, request);
        };
        m.net_storm = run_phase(server.local_service(), remote, requests,
                                duplicates, /*gate=*/true);
        m.net_replay = run_phase(server.local_service(), remote, requests,
                                 duplicates, /*gate=*/false);
        DEW_ASSERT(m.net_replay.cache_hit_rate == 1.0);
        m.net_latency = probe_latency(remote, requests);
        check_exact(remote, requests, direct);
    }

    // Observability overhead on the storm + replay mix (computations,
    // coalescing and cache hits together): a pure cache-hit denominator
    // would price spans against a ~1 us lookup, and the < 2% budget is
    // about serving real work.  One mix round is ~75 ms, where shared-
    // machine scheduler noise runs an order of magnitude above the true
    // span cost, so on/off run as adjacent pairs (sharing the machine's
    // drift state) in alternating order; the figure is the median of the
    // per-pair slowdowns, unclamped, with their interquartile range beside
    // it — a small real cost reads as a small positive median, and the
    // spread says how much of it the noise could explain.
    {
        const auto mix_seconds = [&](bool obs_on) {
            const auto service = fresh_service();
            obs::recorder::instance().set_enabled(obs_on);
            return run_phase(*service, in_process(*service), requests,
                             duplicates, /*gate=*/true)
                       .seconds +
                   run_phase(*service, in_process(*service), requests,
                             duplicates, /*gate=*/false)
                       .seconds;
        };
        // One discarded round: the first fresh-service mix pays allocator
        // growth and page faults that would otherwise be billed to
        // whichever side runs first.
        (void)mix_seconds(true);
        std::vector<double> pair_ratios;
        for (int round = 0; round < obs_pairs; ++round) {
            const bool on_first = round % 2 == 0;
            const double first = mix_seconds(on_first);
            const double second = mix_seconds(!on_first);
            pair_ratios.push_back(on_first ? first / second - 1.0
                                           : second / first - 1.0);
        }
        obs::recorder::instance().set_enabled(true);
        std::sort(pair_ratios.begin(), pair_ratios.end());
        const std::size_t n = pair_ratios.size();
        m.obs_overhead_pct =
            50.0 * (pair_ratios[n / 2 - 1] + pair_ratios[n / 2]);
        m.obs_overhead_spread_pct =
            100.0 * (pair_ratios[3 * n / 4] - pair_ratios[n / 4]);
    }

    // Timeout rate 0.5: every second submission of a gated wave carries an
    // already-impossible 1 ns deadline; each flight keeps one live waiter.
    {
        std::vector<serve::service_request> expiring;
        for (std::size_t i = 0; i < 2 * requests.size(); ++i) {
            expiring.push_back(requests[i % requests.size()]);
            expiring.back().deadline =
                std::chrono::nanoseconds{i % 2 == 0 ? 1 : 0};
        }
        const auto service = fresh_service();
        const phase_numbers wave = run_phase(
            *service, in_process(*service), expiring, 1, /*gate=*/true);
        DEW_ASSERT(wave.timeouts == requests.size());
        m.timeout_rate = service->stats().timeout_rate();
        DEW_ASSERT(m.timeout_rate == 0.5);
    }
    // Retry success rate 1.0: the injection hook fails every flight's
    // first attempt, and every retry then succeeds.
    {
        serve::service_options faulty = serving_options();
        faulty.retry_backoff = std::chrono::nanoseconds{0};
        faulty.fault_hook = [](std::size_t, unsigned attempt) {
            if (attempt == 0) {
                throw trace::io_fault{"bench: injected transient fault"};
            }
        };
        const auto service = fresh_service(std::move(faulty));
        (void)run_phase(*service, in_process(*service), requests, 1,
                        /*gate=*/false);
        const serve::service_stats stats = service->stats();
        DEW_ASSERT(stats.retries == requests.size());
        m.retry_success_rate = stats.retry_success_rate();
        DEW_ASSERT(m.retry_success_rate == 1.0);
    }
    // Degraded serves |requests| - 1: with the watermark at 1, everything
    // submitted behind the first gated exact request sheds.
    {
        const auto service = fresh_service(shedding);
        const phase_numbers wave = run_phase(
            *service, in_process(*service), requests, 1, /*gate=*/true);
        DEW_ASSERT(wave.degraded == requests.size() - 1);
        m.degraded_served = service->stats().degraded_served;
        DEW_ASSERT(m.degraded_served == wave.degraded);
    }
    return m;
}

} // namespace dew::bench

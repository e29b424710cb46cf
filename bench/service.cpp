// bench_service — throughput and absorption of the sweep service under a
// duplicate-heavy request storm, the regime a design-space-exploration
// front end produces (many tools asking overlapping questions about a
// shared trace corpus).
//
// Six workload phases over one corpus trace:
//   cold     every distinct request once — pure simulation, the floor;
//   storm    every distinct request duplicated D-fold, submitted with the
//            workers gated so all duplicates are provably in flight —
//            coalescing absorbs D-1 of every D;
//   replay   the whole storm again — the cache absorbs everything;
//   deadline the cold phase with a generous deadline on every request —
//            the deadline bookkeeping's overhead against `cold` (nothing
//            may actually time out);
//   degrade  the storm against an overflow_policy::degrade service with a
//            low watermark — queued-up exact requests shed to the
//            estimate tier instead of waiting.
//   net      the storm and its replay again, but through the "DSNW" wire:
//            a loopback net::server wrapping a fresh service, a
//            net::client submitting by content digest — the delta against
//            `storm`/`replay` is the protocol + round-trip cost.
// Each phase reports requests/sec plus the service's own counters, and an
// exactness gate first proves a served answer bit-identical to a direct
// run_sweep.  The serve_* and net_* fields of BENCH_micro.json are the
// same quantities measured by bench_micro's harness (docs/PERF.md).
#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/table.hpp"
#include "common/contracts.hpp"
#include "dew/sweep.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"
#include "trace/digest.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;

constexpr std::size_t trace_records = 200'000;
constexpr std::size_t duplicates = 8;

std::vector<serve::service_request> distinct_requests() {
    std::vector<serve::service_request> requests;
    for (const core::sweep_engine engine :
         {core::sweep_engine::dew, core::sweep_engine::cipar}) {
        for (const unsigned exp : {8u, 10u}) {
            serve::service_request request;
            request.sweep.max_set_exp = exp;
            request.sweep.block_sizes = {16, 32, 64};
            request.sweep.associativities = {4, 8};
            request.sweep.engine = engine;
            requests.push_back(request);
        }
    }
    return requests;
}

struct phase_numbers {
    double requests_per_sec{0.0};
    double cache_hit_rate{0.0};
    double coalesce_factor{0.0};
    std::uint64_t computations{0};
    std::uint64_t degraded{0};
    std::uint64_t timeouts{0};
};

phase_numbers run_phase(serve::service& service,
                        const std::vector<serve::service_request>& requests,
                        std::size_t repeats, bool gate,
                        std::chrono::nanoseconds deadline =
                            std::chrono::nanoseconds{0}) {
    const serve::service_stats before = service.stats();
    if (gate) {
        service.pause();
    }
    std::vector<serve::submission> handles;
    handles.reserve(requests.size() * repeats);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
        for (serve::service_request request : requests) {
            request.deadline = deadline;
            handles.push_back(service.submit("corpus", request));
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
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    const serve::service_stats after = service.stats();
    numbers.requests_per_sec =
        static_cast<double>(handles.size()) / seconds;
    const std::uint64_t submitted = after.submitted - before.submitted;
    numbers.cache_hit_rate =
        submitted == 0 ? 0.0
                       : static_cast<double>(after.cache_hits -
                                             before.cache_hits) /
                             static_cast<double>(submitted);
    const std::uint64_t computations =
        after.computations - before.computations;
    numbers.computations = computations;
    numbers.coalesce_factor =
        computations == 0
            ? 1.0
            : static_cast<double>(computations +
                                  (after.coalesced - before.coalesced)) /
                  static_cast<double>(computations);
    return numbers;
}

// The storm through the wire: same request mix, same stats deltas, but
// every submission is a "DSNW" frame over loopback and every answer a
// result frame back.  The server's own service is paused for the gated
// wave exactly like run_phase does in-process.
phase_numbers run_net_phase(net::client& client, net::server& server,
                            const trace::trace_digest& digest,
                            const std::vector<serve::service_request>&
                                requests,
                            std::size_t repeats, bool gate) {
    const serve::service_stats before = server.local_service().stats();
    if (gate) {
        server.local_service().pause();
    }
    std::vector<net::submission> handles;
    handles.reserve(requests.size() * repeats);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
        for (const serve::service_request& request : requests) {
            handles.push_back(client.submit(digest, request));
        }
    }
    if (gate) {
        server.local_service().resume();
    }
    phase_numbers numbers;
    for (net::submission& handle : handles) {
        (void)handle.get();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    const serve::service_stats after = server.local_service().stats();
    numbers.requests_per_sec =
        static_cast<double>(handles.size()) / seconds;
    const std::uint64_t submitted = after.submitted - before.submitted;
    numbers.cache_hit_rate =
        submitted == 0 ? 0.0
                       : static_cast<double>(after.cache_hits -
                                             before.cache_hits) /
                             static_cast<double>(submitted);
    const std::uint64_t computations =
        after.computations - before.computations;
    numbers.computations = computations;
    numbers.coalesce_factor =
        computations == 0
            ? 1.0
            : static_cast<double>(computations +
                                  (after.coalesced - before.coalesced)) /
                  static_cast<double>(computations);
    return numbers;
}

std::string fixed(double value, int digits) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
    return buffer;
}

} // namespace

int main() {
    const std::vector<serve::service_request> requests = distinct_requests();

    serve::service service{{2, 256, serve::overflow_policy::block, {8, 256}}};
    service.add_trace(
        "corpus",
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                     trace_records));

    // Exactness gate: a served answer must equal the direct sweep bit for
    // bit before any throughput number means anything.
    {
        const serve::service_result answer =
            service.submit("corpus", requests.front()).get();
        const core::sweep_result direct = core::run_sweep(
            trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                         trace_records),
            serve::canonical(requests.front()).sweep);
        DEW_ASSERT(answer.sweep->passes.size() == direct.passes.size());
        for (std::size_t i = 0; i < direct.passes.size(); ++i) {
            for (unsigned level = 0;
                 level <= direct.passes[i].max_level(); ++level) {
                DEW_ASSERT(
                    answer.sweep->passes[i].misses(
                        level, direct.passes[i].associativity()) ==
                    direct.passes[i].misses(
                        level, direct.passes[i].associativity()));
                DEW_ASSERT(answer.sweep->passes[i].misses(level, 1) ==
                           direct.passes[i].misses(level, 1));
            }
        }
    }

    std::printf("sweep service: %zu distinct requests (2 engines x 2 "
                "depths, 6 passes each) over a %zu-record corpus trace, "
                "x%zu duplicate storm\n\n",
                requests.size(), trace_records, duplicates);

    // The gate run above already cached requests.front(); fresh services
    // keep the phases honest: `cold_service` measures pure simulation, and
    // `storm_service` starts cold so the gated storm is absorbed by
    // coalescing (not the cache), then replays against its own warm cache.
    const auto fresh_service = [] {
        auto service = std::make_unique<serve::service>(
            serve::service_options{2, 256, serve::overflow_policy::block,
                                   {8, 256}});
        service->add_trace(
            "corpus",
            trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                         trace_records));
        return service;
    };
    const auto cold_service = fresh_service();
    const auto storm_service = fresh_service();
    const auto deadline_service = fresh_service();

    const phase_numbers cold =
        run_phase(*cold_service, requests, 1, /*gate=*/false);
    const phase_numbers storm =
        run_phase(*storm_service, requests, duplicates, /*gate=*/true);
    const phase_numbers replay =
        run_phase(*storm_service, requests, duplicates, /*gate=*/false);
    // Deadline overhead: same cold workload, every submission carrying a
    // deadline far beyond the runtime.  Nothing may time out — the phase
    // measures the pure cost of the deadline sweeps being armed.
    const phase_numbers deadline =
        run_phase(*deadline_service, requests, 1, /*gate=*/false,
                  std::chrono::minutes{10});
    DEW_ASSERT(deadline.timeouts == 0);

    // Graceful degradation: the storm against a degrade-policy service
    // with the watermark at 1, so everything behind the first exact
    // request sheds to the estimate tier instead of queueing.
    serve::service_options degrade_options{2, 256,
                                           serve::overflow_policy::degrade,
                                           {8, 256}};
    degrade_options.degrade_watermark = 1;
    serve::service degrade_service{degrade_options};
    degrade_service.add_trace(
        "corpus",
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                     trace_records));
    const phase_numbers degrade =
        run_phase(degrade_service, requests, duplicates, /*gate=*/true);

    // The networked phases: a fresh service behind a loopback server, the
    // corpus shipped once over the wire, then the same gated storm and
    // warm replay as the in-process phases.
    net::server_options net_options;
    net_options.service = serve::service_options{
        2, 256, serve::overflow_policy::block, {8, 256}};
    net::server net_server{net_options};
    net::client net_client{"127.0.0.1", net_server.port()};
    const trace::trace_digest digest = net_client.register_trace(
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                     trace_records));
    const phase_numbers net_storm =
        run_net_phase(net_client, net_server, digest, requests, duplicates,
                      /*gate=*/true);
    const phase_numbers net_replay =
        run_net_phase(net_client, net_server, digest, requests, duplicates,
                      /*gate=*/false);

    bench::text_table table{{"phase", "requests", "req/s", "hit rate",
                             "coalesce", "computations", "degraded"}};
    table.add_row({"cold", std::to_string(requests.size()),
                   fixed(cold.requests_per_sec, 1),
                   fixed(cold.cache_hit_rate, 2),
                   fixed(cold.coalesce_factor, 2),
                   std::to_string(cold.computations), "0"});
    table.add_row({"storm", std::to_string(requests.size() * duplicates),
                   fixed(storm.requests_per_sec, 1),
                   fixed(storm.cache_hit_rate, 2),
                   fixed(storm.coalesce_factor, 2),
                   std::to_string(storm.computations), "0"});
    table.add_row({"replay", std::to_string(requests.size() * duplicates),
                   fixed(replay.requests_per_sec, 1),
                   fixed(replay.cache_hit_rate, 2),
                   fixed(replay.coalesce_factor, 2),
                   std::to_string(replay.computations), "0"});
    table.add_row({"deadline", std::to_string(requests.size()),
                   fixed(deadline.requests_per_sec, 1),
                   fixed(deadline.cache_hit_rate, 2),
                   fixed(deadline.coalesce_factor, 2),
                   std::to_string(deadline.computations), "0"});
    table.add_row({"degrade", std::to_string(requests.size() * duplicates),
                   fixed(degrade.requests_per_sec, 1),
                   fixed(degrade.cache_hit_rate, 2),
                   fixed(degrade.coalesce_factor, 2),
                   std::to_string(degrade.computations),
                   std::to_string(degrade.degraded)});
    table.add_row({"net-storm",
                   std::to_string(requests.size() * duplicates),
                   fixed(net_storm.requests_per_sec, 1),
                   fixed(net_storm.cache_hit_rate, 2),
                   fixed(net_storm.coalesce_factor, 2),
                   std::to_string(net_storm.computations), "0"});
    table.add_row({"net-replay",
                   std::to_string(requests.size() * duplicates),
                   fixed(net_replay.requests_per_sec, 1),
                   fixed(net_replay.cache_hit_rate, 2),
                   fixed(net_replay.coalesce_factor, 2),
                   std::to_string(net_replay.computations), "0"});
    table.print(std::cout);

    const serve::service_stats stats = storm_service->stats();
    std::printf("\nstorm+replay totals: %llu submitted, %llu computations, "
                "%llu shard jobs, %llu block-size decodes\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.computations),
                static_cast<unsigned long long>(stats.shard_jobs),
                static_cast<unsigned long long>(stats.stream_builds));
    std::printf("storm phase duplicates coalesce %.0f-to-1; replay phase "
                "answers everything from the cache (hit rate %.2f)\n",
                storm.coalesce_factor, replay.cache_hit_rate);
    std::printf("deadline phase overhead vs cold: %.1f%%; degrade phase "
                "shed %llu of %zu requests to the estimate tier\n",
                cold.requests_per_sec <= 0.0
                    ? 0.0
                    : (cold.requests_per_sec - deadline.requests_per_sec) /
                          cold.requests_per_sec * 100.0,
                static_cast<unsigned long long>(degrade.degraded),
                requests.size() * duplicates);
    std::printf("networked phases (loopback wire): storm %.1f req/s vs "
                "in-process %.1f; warm replay %.1f req/s vs %.1f — the gap "
                "is the protocol + round trip\n",
                net_storm.requests_per_sec, storm.requests_per_sec,
                net_replay.requests_per_sec, replay.requests_per_sec);
    return 0;
}

// The consistent-hash front-end over two live backends: keys partition
// deterministically, resubmissions land on the same backend's warm cache,
// coalescing still accrues in the backend's service_stats, saturation and
// death reroute to the surviving arc, and the warm handoff carries a cache
// across backends.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "dew/result_io.hpp"
#include "dew/sweep.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/recorder.hpp"
#include "serve/service.hpp"
#include "support/grid_questions.hpp"
#include "trace/digest.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::net;

trace::mem_trace workload() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 3000);
}

// Distinct questions: every index is a different grid, so a different
// fingerprint — and so a different ring point — while the sweeps stay
// small.
serve::service_request request_number(std::size_t index) {
    return test_support::grid_question(index, 3);
}

// Canonical image for bit-identity comparison; wall-clock seconds zeroed
// (it is a measurement, not part of the answer).
std::string sweep_bytes(core::sweep_result result) {
    result.seconds = 0.0;
    std::ostringstream out;
    core::write_binary_result(out, result);
    return out.str();
}

std::vector<obs::span_event> spans_named(const char* name) {
    std::vector<obs::span_event> out;
    for (const obs::span_event& e : obs::recorder::instance().collect()) {
        if (std::string{e.name} == name) {
            out.push_back(e);
        }
    }
    return out;
}

struct fleet {
    server a{server_options{}};
    server b{server_options{}};

    router_options options() const {
        router_options opts;
        opts.backends = {{"127.0.0.1", a.port()}, {"127.0.0.1", b.port()}};
        return opts;
    }
};

TEST(Router, KeysPartitionConsistentlyAndResubmissionsHitTheSameCache) {
    fleet servers;
    router front{servers.options()};
    ASSERT_EQ(front.backend_count(), 2u);

    const trace::mem_trace records = workload();
    const trace::trace_digest digest = front.register_trace(records);
    EXPECT_EQ(digest, trace::compute_digest(records));

    constexpr std::size_t key_count = 18;
    std::set<std::array<std::uint64_t, 2>> fingerprints;
    for (std::size_t i = 0; i < key_count; ++i) {
        fingerprints.insert(serve::fingerprint(request_number(i)));
    }
    ASSERT_EQ(fingerprints.size(), key_count);
    std::vector<std::size_t> owner(key_count);
    std::set<std::size_t> used;
    for (std::size_t i = 0; i < key_count; ++i) {
        owner[i] = front.backend_of(digest, request_number(i));
        used.insert(owner[i]);

        routed_submission pending =
            front.submit(digest, request_number(i));
        EXPECT_EQ(pending.backend(), owner[i]);
        const serve::service_result result = pending.get();
        ASSERT_NE(result.sweep, nullptr);
        EXPECT_EQ(sweep_bytes(*result.sweep),
                  sweep_bytes(core::run_sweep(
                      records,
                      serve::canonical(request_number(i)).sweep)));
    }
    // 18 mix64-spread keys across 2 backends with 64 virtual nodes each:
    // both sides of the ring must be exercised.
    EXPECT_EQ(used.size(), 2u);

    // Round two: every key routes to the same backend as before, and that
    // backend answers from its result cache — the partition IS the cache
    // affinity.
    for (std::size_t i = 0; i < key_count; ++i) {
        EXPECT_EQ(front.backend_of(digest, request_number(i)), owner[i]);
        routed_submission pending =
            front.submit(digest, request_number(i));
        EXPECT_EQ(pending.backend(), owner[i]);
        EXPECT_TRUE(pending.get().cache_hit) << "key " << i;
    }

    const serve::service_stats total = front.total_stats();
    EXPECT_EQ(total.submitted, 2 * key_count);
    EXPECT_GE(total.cache_hits, key_count);
    EXPECT_GT(front.stats_of(0).submitted, 0u);
    EXPECT_GT(front.stats_of(1).submitted, 0u);
}

TEST(Router, CoalescingStillAccruesOnTheOwningBackend) {
    fleet servers;
    router front{servers.options()};
    const trace::trace_digest digest = front.register_trace(workload());
    const serve::service_request request = request_number(0);
    const std::size_t owner = front.backend_of(digest, request);

    // Hold both backends so the duplicates provably arrive while the first
    // flight is still in the queue.
    servers.a.local_service().pause();
    servers.b.local_service().pause();
    std::vector<routed_submission> pending;
    for (int i = 0; i < 3; ++i) {
        pending.push_back(front.submit(digest, request));
        EXPECT_EQ(pending.back().backend(), owner);
    }
    // submit() returns once the frame is written, not dispatched; a stats
    // round trip on the same connection is a dispatch barrier (the server
    // handles frames in order), so resume() provably happens after every
    // duplicate reached the paused service.
    EXPECT_EQ(front.stats_of(owner).submitted, 3u);
    servers.a.local_service().resume();
    servers.b.local_service().resume();

    for (routed_submission& submission : pending) {
        EXPECT_NE(submission.get().sweep, nullptr);
    }
    const serve::service_stats stats = front.stats_of(owner);
    EXPECT_EQ(stats.computations, 1u);
    EXPECT_EQ(stats.coalesced, 2u);
}

TEST(Router, SaturatedBackendIsSkippedUntilItsAnswerIsConsumed) {
    fleet servers;
    router_options options = servers.options();
    options.max_inflight_per_backend = 1;
    router front{options};
    const trace::trace_digest digest = front.register_trace(workload());
    const serve::service_request request = request_number(1);
    const std::size_t owner = front.backend_of(digest, request);
    const std::size_t other = 1 - owner;

    // Hold the fleet so the first submission stays in flight.
    servers.a.local_service().pause();
    servers.b.local_service().pause();
    routed_submission first = front.submit(digest, request);
    EXPECT_EQ(first.backend(), owner);
    EXPECT_EQ(front.inflight(owner), 1u);

    // The owner is at its cap: the same key spills to the next arc.
    EXPECT_EQ(front.backend_of(digest, request), other);
    routed_submission second = front.submit(digest, request);
    EXPECT_EQ(second.backend(), other);

    servers.a.local_service().resume();
    servers.b.local_service().resume();
    EXPECT_NE(first.get().sweep, nullptr);
    EXPECT_NE(second.get().sweep, nullptr);

    // Drop the handles: in-flight counts return to zero and the key goes
    // home.
    first = routed_submission{};
    second = routed_submission{};
    EXPECT_EQ(front.inflight(owner), 0u);
    EXPECT_EQ(front.inflight(other), 0u);
    EXPECT_EQ(front.backend_of(digest, request), owner);
}

TEST(Router, DeadBackendFailsOverAndRecoversAfterMarkHealthy) {
    fleet servers;
    router front{servers.options()};
    const trace::trace_digest digest = front.register_trace(workload());

    // A key owned by backend 0.
    std::size_t key = 0;
    while (front.backend_of(digest, request_number(key)) != 0) {
        ++key;
    }
    const serve::service_request request = request_number(key);

    servers.a.stop();
    // Give the router's client a moment to observe the close.
    std::this_thread::sleep_for(std::chrono::milliseconds{100});

    routed_submission pending = front.submit(digest, request);
    EXPECT_EQ(pending.backend(), 1u);
    EXPECT_NE(pending.get().sweep, nullptr);
    EXPECT_FALSE(front.healthy(0));
    EXPECT_EQ(front.backend_of(digest, request), 1u);
}

TEST(Router, FailoverCarriesBothAttemptedAndServingBackendIds) {
    fleet servers;
    router front{servers.options()};
    const trace::trace_digest digest = front.register_trace(workload());

    std::size_t key = 0;
    while (front.backend_of(digest, request_number(key)) != 0) {
        ++key;
    }
    const serve::service_request request = request_number(key);

    servers.a.stop();
    std::this_thread::sleep_for(std::chrono::milliseconds{100});

    obs::recorder::instance().set_enabled(true);
    const std::size_t route_spans_before =
        spans_named("net.router.route").size();
    routed_submission pending = front.submit(digest, request);
    EXPECT_NE(pending.get().sweep, nullptr);

    // The submission remembers the whole story: who was tried and failed,
    // and who actually served.
    EXPECT_EQ(pending.backend(), 1u);
    ASSERT_EQ(pending.attempted().size(), 1u);
    EXPECT_EQ(pending.attempted().front(), 0u);

    // One route-decision span per attempt: the failed placement on 0 and
    // the serving one on 1.
    EXPECT_EQ(spans_named("net.router.route").size(),
              route_spans_before + 2);
    EXPECT_FALSE(spans_named("net.router.backend_rt").empty());
}

TEST(Router, WarmHandoffCarriesAnswersToTheSurvivingBackend) {
    fleet servers;
    router front{servers.options()};
    const trace::mem_trace records = workload();
    const trace::trace_digest digest = front.register_trace(records);

    std::size_t key = 0;
    while (front.backend_of(digest, request_number(key)) != 0) {
        ++key;
    }
    const serve::service_request request = request_number(key);
    const std::string expected =
        sweep_bytes(*front.submit(digest, request).get().sweep);

    // Ship backend 0's cache into backend 1, then lose backend 0.
    const serve::cache_load_report report = front.handoff(0, 1);
    EXPECT_GE(report.loaded, 1u);
    servers.a.stop();
    std::this_thread::sleep_for(std::chrono::milliseconds{100});

    routed_submission pending = front.submit(digest, request);
    EXPECT_EQ(pending.backend(), 1u);
    const serve::service_result result = pending.get();
    // The surviving backend answers from the handed-off cache — no
    // recomputation, bit-identical bytes.
    EXPECT_TRUE(result.cache_hit);
    EXPECT_EQ(sweep_bytes(*result.sweep), expected);
}

} // namespace

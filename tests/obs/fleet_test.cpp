// Fleet observability end to end (docs/OBSERVABILITY.md, Fleet): one
// 128-bit trace id spans client → router → backend with the backend's
// stage spans nested inside the client's submit interval; the router's
// aggregated get_metrics is the *exact* bucket-wise sum of the per-backend
// snapshots it fanned out to; and the wide per-request event ring travels
// the wire and renders as JSONL.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/router_server.hpp"
#include "net/server.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "support/grid_questions.hpp"
#include "trace/digest.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::net;

// Distinct indices are distinct questions: each one is a different grid.
serve::service_request small_request(std::uint32_t index = 0) {
    return test_support::grid_question(index, 4);
}

trace::mem_trace workload() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 4000);
}

std::vector<obs::span_event> spans_named(
    const std::vector<obs::span_event>& all, const std::string& name) {
    std::vector<obs::span_event> out;
    for (const obs::span_event& e : all) {
        if (e.name != nullptr && name == e.name) {
            out.push_back(e);
        }
    }
    return out;
}

// A two-backend fleet behind a router_server front, all in-process.  The
// recorder and registry are process-wide singletons, so one collect() sees
// every hop's spans — which is exactly what the containment proof needs.
struct wired_fleet {
    server a;
    server b;
    router_server front;

    wired_fleet()
        : a{backend_options(1)}, b{backend_options(2)},
          front{front_options(a, b)} {}

    static server_options backend_options(std::uint64_t node) {
        server_options opts;
        opts.service.node_id = node;
        return opts;
    }

    static router_server_options front_options(const server& a,
                                               const server& b) {
        router_server_options opts;
        opts.route.backends = {{"127.0.0.1", a.port()},
                               {"127.0.0.1", b.port()}};
        return opts;
    }
};

TEST(Fleet, OneTraceIdSpansClientRouterAndBackend) {
    obs::recorder::instance().set_enabled(true);
    obs::recorder::instance().clear();

    wired_fleet fleet;
    client cli{"127.0.0.1", fleet.front.port()};
    const trace::trace_digest digest = cli.register_trace(workload());
    (void)cli.submit(digest, small_request()).get();

    const std::vector<obs::span_event> all =
        obs::recorder::instance().collect();

    // Two client hops record net.client.submit in-process: the external
    // client's and the router's backend hop.  The external one is the
    // outermost — it started first and contains everything else.
    const auto submits = spans_named(all, "net.client.submit");
    ASSERT_EQ(submits.size(), 2u);
    const obs::span_event& outer =
        submits[0].start_ns <= submits[1].start_ns ? submits[0] : submits[1];
    const obs::span_event& hop =
        submits[0].start_ns <= submits[1].start_ns ? submits[1] : submits[0];
    const std::uint64_t trace_hi = outer.trace_hi;
    const std::uint64_t trace_lo = outer.trace_lo;
    ASSERT_TRUE(trace_hi != 0 || trace_lo != 0);

    // The router forwarded the context verbatim: the backend hop carries
    // the same trace id, not a fresh one.
    EXPECT_EQ(hop.trace_hi, trace_hi);
    EXPECT_EQ(hop.trace_lo, trace_lo);

    // Every role contributed spans under the one trace id.
    for (const char* name :
         {"net.router.route", "net.router.backend_rt", "serve.submit",
          "serve.shard", "serve.settle", "serve.flight"}) {
        SCOPED_TRACE(name);
        bool tagged = false;
        for (const obs::span_event& e : spans_named(all, name)) {
            tagged = tagged ||
                     (e.trace_hi == trace_hi && e.trace_lo == trace_lo);
        }
        EXPECT_TRUE(tagged);
    }

    // Containment: everything this trace id touched happened inside the
    // external client's submit interval.
    for (const obs::span_event& e : all) {
        if (e.trace_hi != trace_hi || e.trace_lo != trace_lo ||
            &e == &outer) {
            continue;
        }
        EXPECT_GE(e.start_ns, outer.start_ns) << e.name;
        EXPECT_LE(e.start_ns + e.dur_ns, outer.start_ns + outer.dur_ns)
            << e.name;
    }

    // The cross-hop timeline exports as one Chrome trace carrying the
    // 32-hex trace id on every tagged span.
    std::string id_hex;
    {
        const std::string json = obs::chrome_trace_json(
            spans_named(all, "net.client.submit"), "fleet_test");
        const std::size_t at = json.find("\"trace\":\"");
        ASSERT_NE(at, std::string::npos);
        id_hex = json.substr(at + 9, 32);
    }
    const std::string json = obs::chrome_trace_json(all, "fleet_test");
    EXPECT_NE(json.find("net.router.backend_rt"), std::string::npos);
    EXPECT_NE(json.find("serve.shard"), std::string::npos);
    EXPECT_EQ(id_hex.size(), 32u);
    EXPECT_NE(json.find(id_hex), std::string::npos);
}

TEST(Fleet, AggregatedScrapeIsTheExactSumOfPerBackendSeries) {
    wired_fleet fleet;
    client cli{"127.0.0.1", fleet.front.port()};
    const trace::trace_digest digest = cli.register_trace(workload());
    for (std::uint32_t i = 0; i < 6; ++i) {
        (void)cli.submit(digest, small_request(i)).get();
    }

    const std::vector<obs::metric> metrics = cli.metrics();
    ASSERT_FALSE(metrics.empty());
    for (std::size_t i = 1; i < metrics.size(); ++i) {
        EXPECT_LE(metrics[i - 1].name, metrics[i].name); // sorted contract
    }

    // Partition the snapshot: backend.<i>.<name> series, fleet.<name>
    // totals, and the router's own net.router.* books.
    std::map<std::string, std::vector<obs::metric>> per_backend;
    std::map<std::string, obs::metric> fleet_totals;
    std::set<std::string> router_names;
    for (const obs::metric& m : metrics) {
        if (m.name.rfind("backend.", 0) == 0) {
            const std::size_t dot = m.name.find('.', 8);
            ASSERT_NE(dot, std::string::npos);
            per_backend[m.name.substr(dot + 1)].push_back(m);
        } else if (m.name.rfind("fleet.", 0) == 0) {
            fleet_totals.emplace(m.name.substr(6), m);
        } else if (m.name.rfind("net.router.", 0) == 0) {
            router_names.insert(m.name);
        }
    }
    ASSERT_FALSE(fleet_totals.empty());
    EXPECT_TRUE(router_names.count("net.router.submitted"));
    EXPECT_TRUE(router_names.count("net.router.healthy_backends"));
    EXPECT_TRUE(router_names.count("net.router.route_ns"));
    EXPECT_TRUE(router_names.count("net.router.backend.0.healthy"));
    EXPECT_TRUE(router_names.count("net.router.backend.1.healthy"));

    // Both backends answered the fan-out, and every fleet total is the
    // exact merge of its per-backend series: values add, histograms add
    // bucket-wise, percentiles recomputed from the merged buckets — the
    // whole point of shipping raw buckets over the wire.
    for (const auto& [name, total] : fleet_totals) {
        SCOPED_TRACE(name);
        ASSERT_TRUE(per_backend.count(name));
        const std::vector<obs::metric>& parts = per_backend[name];
        ASSERT_EQ(parts.size(), 2u);
        obs::metric merged;
        merged.name = "fleet." + name;
        merged.kind = parts[0].kind;
        for (const obs::metric& part : parts) {
            merged.value += part.value;
            merged.hist.merge(part.hist);
        }
        if (merged.kind == obs::metric_kind::latency) {
            merged.count = merged.hist.total();
            merged.p50_ns = merged.hist.percentile(0.50);
            merged.p95_ns = merged.hist.percentile(0.95);
            merged.p99_ns = merged.hist.percentile(0.99);
        }
        EXPECT_EQ(total, merged);
    }

    // The six submissions all landed somewhere: the fleet-total submit
    // counter saw every one of them.
    ASSERT_TRUE(fleet_totals.count("serve.submitted"));
    EXPECT_GE(fleet_totals.at("serve.submitted").value, 6u);
}

TEST(Fleet, WideEventsTravelTheWireAndRenderAsJsonl) {
    server srv{wired_fleet::backend_options(7)};
    client cli{"127.0.0.1", srv.port()};
    const trace::trace_digest digest = cli.register_trace(workload());
    (void)cli.submit(digest, small_request()).get();
    (void)cli.submit(digest, small_request()).get(); // settles as cache_hit

    const std::vector<obs::request_event> events = cli.events();
    ASSERT_GE(events.size(), 2u);
    bool computed = false;
    bool cache_hit = false;
    for (const obs::request_event& e : events) {
        EXPECT_EQ(e.node, 7u);
        EXPECT_TRUE(e.trace_hi != 0 || e.trace_lo != 0); // client stamped
        EXPECT_GT(e.total_ns, 0u);
        computed =
            computed || e.disposition == obs::event_disposition::computed;
        cache_hit =
            cache_hit || e.disposition == obs::event_disposition::cache_hit;
    }
    EXPECT_TRUE(computed);
    EXPECT_TRUE(cache_hit);

    // One JSON object per line, carrying the node and the disposition.
    const std::string jsonl = obs::events_jsonl(events);
    EXPECT_NE(jsonl.find("\"node\":7"), std::string::npos);
    EXPECT_NE(jsonl.find("\"disposition\":\"cache_hit\""), std::string::npos);
    std::size_t lines = 0;
    for (const char c : jsonl) {
        lines += c == '\n';
    }
    EXPECT_EQ(lines, events.size());
}

TEST(Fleet, RouterConcatenatesEveryBackendsEventRing) {
    wired_fleet fleet;
    client cli{"127.0.0.1", fleet.front.port()};
    const trace::trace_digest digest = cli.register_trace(workload());
    std::set<std::array<std::uint64_t, 2>> fingerprints;
    for (std::uint32_t i = 0; i < 18; ++i) {
        fingerprints.insert(serve::fingerprint(small_request(i)));
        (void)cli.submit(digest, small_request(i)).get();
    }
    ASSERT_EQ(fingerprints.size(), 18u);

    const std::vector<obs::request_event> events = cli.events();
    ASSERT_GE(events.size(), 18u);
    std::set<std::uint64_t> nodes;
    for (const obs::request_event& e : events) {
        nodes.insert(e.node);
    }
    // mix64-spread keys across 2 backends with 64 virtual nodes each:
    // both shares are non-empty (same distribution argument as
    // router_test), so the concatenation provably crossed backends.
    EXPECT_EQ(nodes, (std::set<std::uint64_t>{1, 2}));
}

} // namespace

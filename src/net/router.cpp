#include "net/router.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/bits.hpp"
#include "net/socket.hpp"
#include "obs/histogram.hpp"
#include "obs/recorder.hpp"

namespace dew::net {

namespace {

struct backend {
    backend_address address;
    std::unique_ptr<client> connection;
    std::atomic<bool> healthy{true};
    std::atomic<std::size_t> inflight{0};
    // Submit round trips through this backend: send → answer arrived (the
    // guard's lifetime, which is what the saturation skip also measures).
    obs::histogram roundtrip;
};

// The router's own health/failover/spill tallies, published through the
// process registry as net.router.* (docs/OBSERVABILITY.md, Fleet).
struct router_counters {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> failovers{0};    // send failed, next arc took it
    std::atomic<std::uint64_t> spills{0};       // saturated backend passed over
    std::atomic<std::uint64_t> skipped_down{0}; // unhealthy backend passed over
    std::atomic<std::uint64_t> exhausted{0};    // whole fleet down/saturated
    std::atomic<std::uint64_t> marked_down{0};
    std::atomic<std::uint64_t> recoveries{0};   // mark_healthy reconnects
    std::atomic<std::uint64_t> handoffs{0};
    obs::histogram route_ns; // ring-walk latency per routing decision
};

struct ring_point {
    std::uint64_t point;
    std::size_t backend_index;

    friend bool operator<(const ring_point& a, const ring_point& b) {
        // Total order even on point collisions, so the ring layout is
        // deterministic across runs.
        return a.point != b.point ? a.point < b.point
                                  : a.backend_index < b.backend_index;
    }
};

// One avalanche-mixed word out of the full 256-bit request identity; the
// fingerprint words are already mixed, so folding plus one more mix64
// spreads keys uniformly over the ring.
std::uint64_t key_point(const trace::trace_digest& digest,
                        const std::array<std::uint64_t, 2>& fingerprint) {
    return mix64(digest.words[0] ^ mix64(digest.words[1] ^
                                         mix64(fingerprint[0] ^
                                               mix64(fingerprint[1]))));
}

} // namespace

struct router::state {
    router_options options;
    std::vector<std::unique_ptr<backend>> backends;
    std::vector<ring_point> ring;
    // Mutable: pick() is logically const (it decides, it does not route),
    // but passing over a down or saturated backend is exactly what the
    // spill/skip counters exist to count.
    mutable router_counters ctrs;
    std::uint64_t provider_id{0};

    explicit state(router_options opts) : options{std::move(opts)} {
        if (options.backends.empty()) {
            throw std::invalid_argument{"router needs at least one backend"};
        }
        for (const backend_address& address : options.backends) {
            auto node = std::make_unique<backend>();
            node->address = address;
            node->connection =
                std::make_unique<client>(address.host, address.port);
            backends.push_back(std::move(node));
        }
        for (std::size_t index = 0; index < backends.size(); ++index) {
            for (std::size_t replica = 0; replica < virtual_nodes; ++replica) {
                // Fixed-constant mixing, same reproducibility contract as
                // the digests: the ring depends only on (index, replica).
                const std::uint64_t point =
                    mix64((index + 1) * 0x9E3779B97F4A7C15ull +
                          mix64(replica + 0xC2B2AE3D27D4EB4Full));
                ring.push_back({point, index});
            }
        }
        std::sort(ring.begin(), ring.end());
        provider_id = obs::registry::instance().add_provider(
            [this](std::vector<obs::metric_sample>& out) {
                sample_metrics(out);
            });
    }

    ~state() { obs::registry::instance().remove_provider(provider_id); }

    // The registry provider: the router's own counters plus per-backend
    // health/load/latency series.  Per-backend names are built from the
    // "net.router.backend." prefix plus the index — the catalogue
    // documents the pattern, not 2N concrete names.
    void sample_metrics(std::vector<obs::metric_sample>& out) const {
        const auto counter = [&out](const char* name,
                                    const std::atomic<std::uint64_t>& value) {
            out.push_back({name, obs::metric_kind::counter,
                           value.load(std::memory_order_relaxed),
                           {}});
        };
        counter("net.router.submitted", ctrs.submitted);
        counter("net.router.failovers", ctrs.failovers);
        counter("net.router.spills", ctrs.spills);
        counter("net.router.skipped_down", ctrs.skipped_down);
        counter("net.router.exhausted", ctrs.exhausted);
        counter("net.router.marked_down", ctrs.marked_down);
        counter("net.router.recoveries", ctrs.recoveries);
        counter("net.router.handoffs", ctrs.handoffs);
        out.push_back({"net.router.backends", obs::metric_kind::gauge,
                       backends.size(), {}});
        std::uint64_t healthy_count = 0;
        obs::histogram_snapshot all_roundtrips;
        for (std::size_t index = 0; index < backends.size(); ++index) {
            const backend& node = *backends[index];
            const bool up = node.healthy.load(std::memory_order_acquire);
            healthy_count += up ? 1 : 0;
            const std::string prefix =
                "net.router.backend." + std::to_string(index) + ".";
            out.push_back({prefix + "healthy", obs::metric_kind::gauge,
                           up ? std::uint64_t{1} : std::uint64_t{0}, {}});
            out.push_back({prefix + "inflight", obs::metric_kind::gauge,
                           node.inflight.load(std::memory_order_acquire),
                           {}});
            const obs::histogram_snapshot rt = node.roundtrip.snapshot();
            all_roundtrips.merge(rt);
            out.push_back({prefix + "roundtrip_ns",
                           obs::metric_kind::latency, 0, rt});
        }
        out.push_back({"net.router.healthy_backends", obs::metric_kind::gauge,
                       healthy_count, {}});
        out.push_back({"net.router.route_ns", obs::metric_kind::latency, 0,
                       ctrs.route_ns.snapshot()});
        out.push_back({"net.router.roundtrip_ns", obs::metric_kind::latency,
                       0, all_roundtrips});
    }

    backend& at(std::size_t index) const {
        if (index >= backends.size()) {
            throw std::invalid_argument{"no backend " + std::to_string(index)};
        }
        return *backends[index];
    }

    void mark_down(backend& node) {
        node.healthy.store(false, std::memory_order_release);
        ctrs.marked_down.fetch_add(1, std::memory_order_relaxed);
    }

    // Runs op(index, node) on every healthy backend; one whose connection
    // dies during it is marked down and skipped.  Returns the last such
    // transport fault (null when none).
    template <class Op>
    std::exception_ptr for_each_healthy(Op&& op) {
        std::exception_ptr fault;
        for (std::size_t index = 0; index < backends.size(); ++index) {
            backend& node = *backends[index];
            if (!node.healthy.load(std::memory_order_acquire)) {
                continue;
            }
            try {
                op(index, node);
            } catch (const socket_error&) {
                mark_down(node);
                fault = std::current_exception();
            }
        }
        return fault;
    }

    // Clockwise walk from the key's ring position to the first usable
    // backend, counting what it passes over (down vs. saturated).  Throws
    // service_overloaded when the whole fleet is down or saturated —
    // transient by classify_fault, exactly like a full queue.
    std::size_t pick(std::uint64_t point) const {
        const auto start = std::upper_bound(
            ring.begin(), ring.end(),
            ring_point{point, backends.size()});
        // Distinct backends encountered in arc order; at most all of them.
        std::size_t examined = 0;
        std::vector<bool> seen(backends.size(), false);
        for (std::size_t step = 0;
             step < ring.size() && examined < backends.size(); ++step) {
            const std::size_t slot =
                (static_cast<std::size_t>(start - ring.begin()) + step) %
                ring.size();
            const std::size_t index = ring[slot].backend_index;
            if (seen[index]) {
                continue;
            }
            seen[index] = true;
            ++examined;
            const backend& node = at(index);
            if (!node.healthy.load(std::memory_order_acquire)) {
                ctrs.skipped_down.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            const std::size_t cap = options.max_inflight_per_backend;
            if (cap != 0 &&
                node.inflight.load(std::memory_order_acquire) >= cap) {
                ctrs.spills.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            return index;
        }
        ctrs.exhausted.fetch_add(1, std::memory_order_relaxed);
        throw serve::service_overloaded{
            "no healthy, unsaturated backend for this key"};
    }
};

router::router(router_options options)
    : state_{std::make_unique<state>(std::move(options))} {}

router::~router() = default;

std::size_t router::backend_count() const noexcept {
    return state_->backends.size();
}

trace::trace_digest router::register_trace(const trace::mem_trace& records) {
    bool any = false;
    trace::trace_digest digest{};
    const std::exception_ptr fault =
        state_->for_each_healthy([&](std::size_t, backend& node) {
            digest = node.connection->register_trace(records);
            any = true;
        });
    if (!any) {
        if (fault) {
            std::rethrow_exception(fault);
        }
        throw serve::service_overloaded{"no healthy backend to register on"};
    }
    return digest;
}

routed_submission router::submit(const trace::trace_digest& digest,
                                 const serve::service_request& request) {
    routed_ticket ticket;
    submission inner = submission::adapt([&](serve::completion done) {
        ticket = submit(digest, request, std::move(done));
        return ticket.cancel;
    });
    return routed_submission{std::move(inner), std::move(ticket)};
}

routed_ticket router::submit(const trace::trace_digest& digest,
                             const serve::service_request& request,
                             serve::completion done) {
    state& s = *state_;
    s.ctrs.submitted.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t point =
        key_point(digest, serve::fingerprint(request));
    std::vector<std::size_t> attempted;
    // Shared across attempts: a failed send destroys its attempt's
    // completion, and the next attempt needs `done` again.
    const auto answer = std::make_shared<serve::completion>(std::move(done));
    for (;;) {
        std::size_t index = 0;
        {
            // The routing decision itself, per attempt: a failover re-walk
            // shows up as a second route span under the same trace.
            obs::span route_span{"net.router.route", &s.ctrs.route_ns,
                                 request.obs_correlation};
            route_span.set_trace(request.obs_trace_hi, request.obs_trace_lo);
            index = s.pick(point);
        }
        backend& node = s.at(index);
        node.inflight.fetch_add(1, std::memory_order_acq_rel);
        // "In flight" means "answer not yet arrived" — the load measure
        // the saturation skip needs, and the window the backend round-trip
        // span covers.  The guard rides in the completion and is released
        // before the caller's completion runs (or with the completion, if
        // the send fails and it never runs).
        const std::uint64_t sent_ns = obs::timestamp_if_enabled();
        std::shared_ptr<void> guard{
            static_cast<void*>(&node),
            [&node, sent_ns, correlation = request.obs_correlation,
             trace_hi = request.obs_trace_hi,
             trace_lo = request.obs_trace_lo](void*) {
                node.inflight.fetch_sub(1, std::memory_order_acq_rel);
                if (sent_ns != 0) {
                    const std::uint64_t dur = obs::now_ns() - sent_ns;
                    node.roundtrip.record(dur);
                    obs::recorder::instance().record(
                        "net.router.backend_rt", sent_ns, dur, correlation,
                        0, trace_hi, trace_lo);
                }
            }};
        try {
            serve::cancel_lever cancel = node.connection->submit(
                digest, request,
                [guard = std::move(guard),
                 answer](serve::service_result result,
                         std::exception_ptr error) mutable {
                    guard.reset();
                    (*answer)(std::move(result), std::move(error));
                });
            return {index, std::move(attempted), std::move(cancel)};
        } catch (const socket_error&) {
            // Connection died at send time: mark it down and re-walk — the
            // key now belongs to the next arc.
            s.mark_down(node);
            attempted.push_back(index);
            s.ctrs.failovers.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

bool router::has_trace(const trace::trace_digest& digest) {
    bool found = false;
    (void)state_->for_each_healthy([&](std::size_t, backend& node) {
        found = found || node.connection->has_trace(digest);
    });
    return found;
}

std::size_t router::backend_of(const trace::trace_digest& digest,
                               const serve::service_request& request) const {
    return state_->pick(key_point(digest, serve::fingerprint(request)));
}

bool router::healthy(std::size_t index) const {
    return state_->at(index).healthy.load(std::memory_order_acquire);
}

void router::mark_healthy(std::size_t index) {
    backend& node = state_->at(index);
    // A marked-down backend's client is dead (its reader failed every
    // pending call); recovery means reconnecting, not just flipping the
    // flag.
    node.connection =
        std::make_unique<client>(node.address.host, node.address.port);
    node.healthy.store(true, std::memory_order_release);
    state_->ctrs.recoveries.fetch_add(1, std::memory_order_relaxed);
}

std::size_t router::inflight(std::size_t index) const {
    return state_->at(index).inflight.load(std::memory_order_acquire);
}

serve::service_stats router::stats_of(std::size_t index) {
    return state_->at(index).connection->stats();
}

serve::service_stats router::total_stats() {
    serve::service_stats total{};
    for (std::size_t index = 0; index < state_->backends.size(); ++index) {
        if (healthy(index)) {
            const serve::service_stats stats = stats_of(index);
            for (const auto& [name, field] : serve::service_stats_fields) {
                total.*field += stats.*field;
            }
        }
    }
    return total;
}

serve::cache_load_report router::handoff(std::size_t from, std::size_t to) {
    const std::string image = state_->at(from).connection->save_cache();
    state_->ctrs.handoffs.fetch_add(1, std::memory_order_relaxed);
    return state_->at(to).connection->load_cache(serve::load_mode::salvage,
                                                 image);
}

std::vector<obs::metric> router::metrics() {
    // One merged fleet series per name, keyed for the stable sorted output
    // the exporters rely on, plus every per-backend series re-tagged.
    std::map<std::string, obs::metric> fleet;
    std::vector<obs::metric> out;
    (void)state_->for_each_healthy([&](std::size_t index, backend& node) {
        std::vector<obs::metric> snap = node.connection->metrics();
        const std::string prefix = "backend." + std::to_string(index) + ".";
        for (obs::metric& m : snap) {
            const auto [slot, fresh] = fleet.try_emplace("fleet." + m.name, m);
            if (fresh) {
                slot->second.name = "fleet." + m.name;
            } else {
                obs::metric& total = slot->second;
                // Exact merge, same semantics as the registry's duplicate-
                // name rule: counters and gauges add, histograms merge
                // bucket-wise and re-reduce.
                total.value += m.value;
                total.hist.merge(m.hist);
                total.count = total.hist.total();
                total.p50_ns = total.hist.p50();
                total.p95_ns = total.hist.p95();
                total.p99_ns = total.hist.p99();
            }
            m.name = prefix + m.name;
            out.push_back(std::move(m));
        }
    });
    for (auto& [name, m] : fleet) {
        (void)name;
        out.push_back(std::move(m));
    }
    std::sort(out.begin(), out.end(),
              [](const obs::metric& a, const obs::metric& b) {
                  return a.name < b.name;
              });
    return out;
}

std::vector<obs::request_event> router::events() {
    std::vector<obs::request_event> out;
    (void)state_->for_each_healthy([&out](std::size_t, backend& node) {
        const std::vector<obs::request_event> ring = node.connection->events();
        out.insert(out.end(), ring.begin(), ring.end());
    });
    return out;
}

void router::pause_all() {
    for (const auto& node : state_->backends) {
        if (node->healthy.load(std::memory_order_acquire)) {
            node->connection->pause();
        }
    }
}

void router::resume_all() {
    for (const auto& node : state_->backends) {
        if (node->healthy.load(std::memory_order_acquire)) {
            node->connection->resume();
        }
    }
}

} // namespace dew::net

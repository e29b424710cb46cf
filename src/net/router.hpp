// net::router — a consistent-hash front over N backend servers.
//
// The routing key is the request identity itself: the (trace digest,
// request fingerprint) pair that keys the backends' caches and coalescing
// (serve/key.hpp).  Hashing exactly that key means every resubmission of a
// semantically-equal question lands on the same backend, so the corpus of
// answered questions partitions across the fleet and each backend's result
// cache and in-flight coalescing keep working at full strength — a random
// or round-robin spray would dilute both by the backend count.
//
// The hash ring carries `virtual_nodes` mix64 points per backend, so
// keyspace shares stay near-even and removing one backend redistributes
// only its own arc.  A submit walks the ring clockwise from the key's
// point and takes the first backend that is (a) healthy — a backend whose
// connection died is marked down and skipped until mark_healthy() — and
// (b) not saturated — each backend carries an outstanding-submission count,
// and one at/above max_inflight_per_backend is passed over, which is
// backpressure-aware routing: load spills to the next arc instead of
// queueing behind a struggling node.
//
// Warm handoff: handoff(from, to) ships `from`'s result cache as a "DSCF"
// image into `to` (salvage mode — a partially-useful image is still worth
// loading), so a backend about to take over an arc starts with the answers
// the old owner already computed.
#ifndef DEW_NET_ROUTER_HPP
#define DEW_NET_ROUTER_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "obs/event.hpp"
#include "obs/registry.hpp"
#include "serve/key.hpp"
#include "serve/service.hpp"
#include "trace/digest.hpp"
#include "trace/record.hpp"

namespace dew::net {

struct backend_address {
    std::string host{"127.0.0.1"};
    std::uint16_t port{0};
};

// Ring points per backend; more points = smoother keyspace shares.
inline constexpr std::size_t virtual_nodes = 64;

struct router_options {
    std::vector<backend_address> backends;
    // Outstanding submissions at/above which a backend is skipped.
    // 0 = unlimited.
    std::size_t max_inflight_per_backend{0};
};

// Where the completion form of router::submit sent a request, and the
// lever to withdraw it.
struct routed_ticket {
    // Which backend (index into router_options::backends) took it.
    std::size_t backend{0};
    // Backends tried and marked down before `backend` accepted, in attempt
    // order — empty on the no-failover fast path.
    std::vector<std::size_t> attempted;
    serve::cancel_lever cancel;
};

// The future form's handle: the submission plus where it went.  The
// in-flight window (the backend's load count and the
// net.router.backend_rt span) closes when the answer arrives, before the
// future is set, so the span nests inside whatever hop waits on us.
class routed_submission : public submission {
public:
    routed_submission() = default;

    [[nodiscard]] std::size_t backend() const noexcept { return backend_; }
    [[nodiscard]] const std::vector<std::size_t>&
    attempted() const noexcept {
        return attempted_;
    }

private:
    friend class router;
    routed_submission(submission inner, routed_ticket ticket)
        : submission{std::move(inner)}, backend_{ticket.backend},
          attempted_{std::move(ticket.attempted)} {}

    std::size_t backend_{0};
    std::vector<std::size_t> attempted_;
};

class router {
public:
    // Connects to every backend.  Throws std::invalid_argument on an empty
    // backend list, socket_error when a backend is unreachable.
    explicit router(router_options options);
    ~router();

    router(const router&) = delete;
    router& operator=(const router&) = delete;

    [[nodiscard]] std::size_t backend_count() const noexcept;

    // Registers the trace on every healthy backend (each answers from its
    // own corpus-of-record) and returns the digest.  A backend whose
    // connection dies during the broadcast is marked down; throws only
    // when NO backend accepted.
    trace::trace_digest register_trace(const trace::mem_trace& records);

    // True iff any healthy backend holds the digest (registered or in its
    // corpus).  A backend whose connection dies during the poll is marked
    // down and skipped.
    [[nodiscard]] bool has_trace(const trace::trace_digest& digest);

    // Routes by (digest, fingerprint(request)) and submits to the chosen
    // backend.  A backend that fails at send time is marked down and the
    // walk continues; serve::service_overloaded (transient — the fleet may
    // recover) when no healthy, unsaturated backend remains.
    [[nodiscard]] routed_submission
    submit(const trace::trace_digest& digest,
           const serve::service_request& request);

    // The completion form, which the future form adapts: `done` runs on
    // the backend connection's reader (net::client's contract), after the
    // in-flight slot and the net.router.backend_rt span are released.
    [[nodiscard]] routed_ticket submit(const trace::trace_digest& digest,
                                       const serve::service_request& request,
                                       serve::completion done);

    // The backend submit() would choose right now for this key — exposed
    // so tests can predict the partition.  Throws like submit on an
    // exhausted fleet.
    [[nodiscard]] std::size_t
    backend_of(const trace::trace_digest& digest,
               const serve::service_request& request) const;

    [[nodiscard]] bool healthy(std::size_t backend) const;
    void mark_healthy(std::size_t backend);
    [[nodiscard]] std::size_t inflight(std::size_t backend) const;

    // Per-backend and fleet-summed service_stats (every field adds).
    [[nodiscard]] serve::service_stats stats_of(std::size_t backend);
    [[nodiscard]] serve::service_stats total_stats();

    // Aggregated scrape: fans get_metrics out to every healthy backend and
    // merges the snapshots — each backend's series re-tagged
    // "backend.<i>.<name>", plus one "fleet.<name>" series per name that
    // is the *exact* merge (counters and gauges add; latency histograms
    // merge bucket-wise via histogram_snapshot::merge, with percentiles
    // recomputed from the merged buckets — never averaged).  The router's
    // own net.router.* series live in the process registry, not here.
    [[nodiscard]] std::vector<obs::metric> metrics();

    // Fans get_events out to every healthy backend and concatenates the
    // rings (each event already carries its server's node id).
    [[nodiscard]] std::vector<obs::request_event> events();

    // Broadcasts pause/resume to every healthy backend.
    void pause_all();
    void resume_all();

    // Ships `from`'s cache image into `to` (salvage mode) and reports what
    // loaded.
    serve::cache_load_report handoff(std::size_t from, std::size_t to);

private:
    struct state;
    std::unique_ptr<state> state_;
};

} // namespace dew::net

#endif // DEW_NET_ROUTER_HPP

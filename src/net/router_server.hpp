// net::router_server — the consistent-hash front as a DSNW endpoint.
//
// net::router is an in-process library: a client of N backends.  This
// wraps it in the same wire surface net::server speaks, so a plain
// net::client (or dew_serve --connect) can talk to the *fleet* exactly as
// it talks to one backend — register, submit, cancel, stats, metrics,
// events — while the router does the partitioning, failover and
// backpressure spill behind the frame boundary.
//
// Request handling per type:
//   * ping/register_trace/has_trace/submit/cancel — routed (register is a
//     broadcast; submit walks the hash ring; cancel addresses the pending
//     routed submission by frame id).  A submit frame's trace context
//     (obs_trace_hi/lo, obs_parent_span) is forwarded verbatim on the
//     backend hop, so one trace id spans client → router → backend.
//   * stats — the fleet-summed service_stats.
//   * get_metrics — the aggregated scrape: the router process's own
//     registry (net.router.* counters, histograms) merged with every
//     backend's snapshot, per-backend series tagged backend.<i>.<name> and
//     exact fleet totals tagged fleet.<name> (docs/OBSERVABILITY.md).
//   * get_events — every backend's wide-event ring, concatenated.
//   * pause/resume — broadcast to every healthy backend.
//   * cache_save/cache_load — answered with an error frame: the fleet's
//     caches are per-backend (handoff() moves them backend-to-backend);
//     a whole-fleet image would splice inconsistent shards.
//
// Like net::server it is a dispatch table over net::frame_server, whose
// failure discipline it shares.  A routed submit's completion runs on the
// router's backend-client reader thread once the backend answers — after
// the in-flight slot and the net.router.backend_rt span are released —
// and writes the requester's reply frame there: no thread waits per
// pending answer.
#ifndef DEW_NET_ROUTER_SERVER_HPP
#define DEW_NET_ROUTER_SERVER_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "net/router.hpp"

namespace dew::net {

struct router_server_options {
    std::string host{"127.0.0.1"};
    // 0 picks an ephemeral port; read the actual one back with port().
    std::uint16_t port{0};
    // Options of the net::router this front owns.
    router_options route{};
};

class router_server {
public:
    // Connects the router to every backend, then binds, listens and starts
    // accepting.  Throws like router (bad backend list, unreachable
    // backend) and like server (unbindable address).
    explicit router_server(router_server_options options);
    ~router_server();

    router_server(const router_server&) = delete;
    router_server& operator=(const router_server&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept;

    // Closes the listener and all connections, joins every thread.
    // Idempotent.
    void stop();

    // The owned router, for in-process observation (tests read
    // healthy()/inflight() and drive mark_healthy()/handoff() directly).
    [[nodiscard]] router& route() noexcept;

private:
    struct state;
    std::unique_ptr<state> state_;
};

} // namespace dew::net

#endif // DEW_NET_ROUTER_SERVER_HPP

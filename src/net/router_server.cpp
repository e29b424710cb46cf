#include "net/router_server.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/frame_server.hpp"
#include "obs/registry.hpp"

namespace dew::net {

// The owned router plus its dispatch table over one frame_server.
struct router_server::state {
    router_server_options options;
    router route;
    // Last: it starts accepting once the router is connected, and is
    // stopped (its readers joined) before the router is destroyed.
    frame_server frames;

    explicit state(router_server_options opts)
        : options{std::move(opts)}, route{options.route},
          frames{options.host, options.port,
                 std::bind_front(&state::dispatch, this)} {}

    void dispatch(frame_connection& conn, const frame_header& header,
                  const std::string& payload) {
        const std::uint64_t id = header.id;
        switch (header.type) {
        case message_type::register_trace: {
            const trace::trace_digest digest =
                route.register_trace(decode_records(payload));
            conn.send(message_type::register_ok, id, encode_digest(digest));
            return;
        }
        case message_type::has_trace:
            conn.send(message_type::has_ok, id,
                      encode_flag(route.has_trace(decode_digest(payload))));
            return;
        case message_type::submit: {
            // The original client stamped the trace context (and its own
            // frame id as obs_parent_span); the backend hop forwards it
            // verbatim — re-stamping here would cut the trace at the
            // router.
            const submit_message message = decode_submit(payload);
            conn.answer(id, [&](serve::completion done) {
                return route
                    .submit(message.digest, message.request, std::move(done))
                    .cancel;
            });
            return;
        }
        case message_type::stats:
            conn.send(message_type::stats_ok, id,
                      encode_stats(route.total_stats()));
            return;
        case message_type::get_metrics: {
            // The aggregated scrape: the router process's own registry
            // (net.router.* series) plus the fleet fan-out, one sorted
            // snapshot.
            std::vector<obs::metric> merged =
                obs::registry::instance().snapshot();
            std::vector<obs::metric> fanned = route.metrics();
            merged.insert(merged.end(),
                          std::make_move_iterator(fanned.begin()),
                          std::make_move_iterator(fanned.end()));
            std::sort(merged.begin(), merged.end(),
                      [](const obs::metric& a, const obs::metric& b) {
                          return a.name < b.name;
                      });
            conn.send(message_type::metrics_ok, id, encode_metrics(merged));
            return;
        }
        case message_type::get_events:
            conn.send(message_type::events_ok, id,
                      encode_events(route.events()));
            return;
        case message_type::pause:
            route.pause_all();
            conn.send(message_type::ok, id, {});
            return;
        case message_type::resume:
            route.resume_all();
            conn.send(message_type::ok, id, {});
            return;
        case message_type::cache_save:
        case message_type::cache_load:
            // Per-backend state; a fleet-spliced image would be
            // inconsistent.  handoff() moves caches backend-to-backend.
            throw std::invalid_argument{
                "cache save/load is per-backend; the router does not "
                "aggregate caches (use handoff)"};
        default:
            // A response type arriving as a request: well-framed nonsense.
            throw wire_error{"unexpected request type " +
                             std::string{to_string(header.type)}};
        }
    }
};

router_server::router_server(router_server_options options)
    : state_{std::make_unique<state>(std::move(options))} {}

router_server::~router_server() = default;

std::uint16_t router_server::port() const noexcept {
    return state_->frames.port();
}

void router_server::stop() { state_->frames.stop(); }

router& router_server::route() noexcept { return state_->route; }

} // namespace dew::net

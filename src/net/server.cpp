#include "net/server.hpp"

#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/frame_server.hpp"
#include "obs/registry.hpp"
#include "trace/corpus.hpp"
#include "trace/digest.hpp"

namespace dew::net {

// The served service plus its dispatch table over one frame_server.
struct server::state {
    server_options options;
    serve::service service;
    std::optional<trace::corpus_registry> corpus;
    // Last: it starts accepting once everything dispatch touches exists,
    // and is stopped (its readers joined) before any of it is destroyed.
    frame_server frames;

    explicit state(server_options opts)
        : options{std::move(opts)}, service{options.service},
          corpus{options.corpus_dir.empty()
                     ? std::nullopt
                     : std::optional{trace::corpus_registry{
                           options.corpus_dir}}},
          frames{options.host, options.port,
                 std::bind_front(&state::dispatch, this)} {}

    ~state() { stop(); }

    // Registers `records` with the service (and the corpus, if one is
    // configured) and returns the digest.  The service-side trace name IS
    // the digest string: content addressing end to end.
    trace::trace_digest register_records(trace::mem_trace records) {
        const trace::trace_digest digest = trace::compute_digest(records);
        if (corpus) {
            corpus->ingest(records);
        }
        if (!service.has_trace(to_string(digest))) {
            service.add_trace(to_string(digest), std::move(records));
        }
        return digest;
    }

    // True once the digest is submittable: already registered, or hydrated
    // from the corpus just now.
    bool ensure_trace(const trace::trace_digest& digest) {
        if (service.has_trace(to_string(digest))) {
            return true;
        }
        if (corpus && corpus->contains(digest)) {
            service.add_trace(to_string(digest), corpus->load(digest));
            return true;
        }
        return false;
    }

    void dispatch(frame_connection& conn, const frame_header& header,
                  const std::string& payload) {
        const std::uint64_t id = header.id;
        switch (header.type) {
        case message_type::register_trace: {
            const trace::trace_digest digest =
                register_records(decode_records(payload));
            conn.send(message_type::register_ok, id, encode_digest(digest));
            return;
        }
        case message_type::has_trace: {
            const trace::trace_digest digest = decode_digest(payload);
            const bool present = service.has_trace(to_string(digest)) ||
                                 (corpus && corpus->contains(digest));
            conn.send(message_type::has_ok, id, encode_flag(present));
            return;
        }
        case message_type::submit: {
            submit_message message = decode_submit(payload);
            if (!ensure_trace(message.digest)) {
                throw std::invalid_argument{
                    "unknown trace digest " + to_string(message.digest) +
                    " (register_trace it, or configure a corpus that holds "
                    "it)"};
            }
            // Stamp the parent span id as the request's span-correlation
            // tag: for a direct client that is this frame's id (the client
            // recorded its submit span under it, so the two timelines
            // stitch), and on a router's backend hop it is the *original*
            // client's frame id, forwarded in the payload — the whole
            // chain correlates to one requester-side span.
            message.request.obs_correlation =
                message.request.obs_parent_span != 0
                    ? message.request.obs_parent_span
                    : id;
            conn.answer(id, [&](serve::completion done) {
                return service.submit(to_string(message.digest),
                                      message.request, std::move(done));
            });
            return;
        }
        case message_type::stats:
            conn.send(message_type::stats_ok, id,
                      encode_stats(service.stats()));
            return;
        case message_type::get_metrics:
            conn.send(message_type::metrics_ok, id,
                      encode_metrics(obs::registry::instance().snapshot()));
            return;
        case message_type::get_events:
            conn.send(message_type::events_ok, id,
                      encode_events(service.events()));
            return;
        case message_type::cache_save: {
            std::ostringstream image;
            service.save_cache(image);
            conn.send(message_type::cache_contents, id, image.str());
            return;
        }
        case message_type::cache_load: {
            const cache_load_message message = decode_cache_load(payload);
            std::istringstream image{message.cache_file};
            const serve::cache_load_report report =
                service.load_cache(image, message.mode);
            conn.send(message_type::cache_loaded, id,
                      encode_load_report(report));
            return;
        }
        case message_type::pause:
            service.pause();
            conn.send(message_type::ok, id, {});
            return;
        case message_type::resume:
            service.resume();
            conn.send(message_type::ok, id, {});
            return;
        default:
            // A response type arriving as a request: well-framed nonsense.
            throw wire_error{"unexpected request type " +
                             std::string{to_string(header.type)}};
        }
    }

    void stop() {
        // A reader blocked in a submit on a full queue of a paused service
        // could never be joined; release the service first.
        service.resume();
        frames.stop();
    }
};

server::server(server_options options)
    : state_{std::make_unique<state>(std::move(options))} {}

server::~server() = default;

std::uint16_t server::port() const noexcept { return state_->frames.port(); }

void server::stop() { state_->stop(); }

serve::service& server::local_service() noexcept { return state_->service; }

} // namespace dew::net

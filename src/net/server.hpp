// net::server — a TCP front over one serve::service.
//
// One server owns one service (and optionally a trace::corpus_registry it
// hydrates traces from on demand).  It is a dispatch table over
// net::frame_server (net/frame_server.hpp), which reads "DSNW" frames
// (net/wire.hpp) on one reader thread per connection.  A `submit` frame
// becomes a real serve::service::submit — async, coalescing, cached,
// deadline-bounded — whose completion writes the `result` or `error`
// frame on the thread that settles it (a service worker, or the reader
// itself on a cache hit); no thread waits per pending answer.  Responses
// carry the request frame's id, so one connection multiplexes any number
// of in-flight submissions; `cancel` frames withdraw them by id.
//
// Failure discipline is frame_server's.  A request that fails in the
// service (unknown digest, ill-formed sweep, overload, timeout,
// cancellation, engine fault) gets an `error` frame whose fault_code
// reproduces the exception type client-side, so serve::classify_fault
// agrees across the wire.
//
// stop() (also the destructor) closes the listener and every connection,
// then joins the acceptor and every reader.  Nothing is ever detached.
#ifndef DEW_NET_SERVER_HPP
#define DEW_NET_SERVER_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "serve/service.hpp"

namespace dew::net {

struct server_options {
    std::string host{"127.0.0.1"};
    // 0 picks an ephemeral port; read the actual one back with port().
    std::uint16_t port{0};
    // Options of the serve::service the server owns.
    serve::service_options service{};
    // Optional digest-addressed trace store (trace/corpus.hpp).  When set:
    // registered traces are ingested into it, and a submit for a digest the
    // service has not seen is hydrated from it before rejecting.
    std::string corpus_dir{};
};

class server {
public:
    // Binds, listens and starts accepting.  Throws socket_error when the
    // address cannot be bound, std::runtime_error when corpus_dir cannot be
    // opened.
    explicit server(server_options options = {});
    ~server();

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    // The port actually bound (the ephemeral pick when options.port was 0).
    [[nodiscard]] std::uint16_t port() const noexcept;

    // Closes the listener and all connections, joins every thread.
    // Idempotent.  A paused service is resumed first, so a reader blocked
    // submitting into its full queue can be joined.  Submissions still in
    // flight keep running; their answers settle into the closed
    // connections, which drop them.
    void stop();

    // The served service, for in-process observation and staging (tests
    // pause()/resume() it to make coalescing deterministic and read
    // stats() without a round trip).
    [[nodiscard]] serve::service& local_service() noexcept;

private:
    struct state;
    std::unique_ptr<state> state_;
};

} // namespace dew::net

#endif // DEW_NET_SERVER_HPP

// net::frame_server — the one frame-serving core under net::server and
// net::router_server, which are only dispatch tables over it.
//
// It owns what serving "DSNW" frames (net/wire.hpp) needs whatever they
// mean: the listener and acceptor thread, one reader thread per
// connection, serialised writes, each connection's answers still owed,
// stop-and-join, and the frames that need nothing more — `ping`, and
// `cancel` (which pulls the lever of an answer still owed).  Every other
// well-framed request goes to its one parameter, a dispatch function, on
// the reader thread.  Deferred work is answered through
// frame_connection::answer: its completion writes the reply on whichever
// thread settles it, so no thread waits per pending answer.
//
// Failure discipline, the same for every dispatch table:
//   * A malformed header loses framing: `error` frame (fault_code::protocol,
//     id 0), then that connection closes.  Others are untouched.
//   * A dispatch that throws (malformed payload, fault in the served
//     component) is answered by an `error` frame on the request's id whose
//     fault_code reproduces the exception client-side; serving continues.
//   * Payloads are read into buffers that grow with the bytes that arrive
//     (read_payload), never to the size a header declares.
//   * A peer that stops draining what it is sent has send_timeout, from
//     the first write that had to wait for room until it has taken
//     everything, before its connection is dropped: it holds up writers
//     (and so the worker pool) once, for at most that long in total.
//   * A connection whose reader exited is joined and dropped at the next
//     accept; a failure to start a reader drops only that connection.
//
// stop() (also the destructor) closes the listener, shuts every connection
// down and joins every thread; nothing is detached.  Answers still owed
// settle later into the shut-down connections, which drop them.
#ifndef DEW_NET_FRAME_SERVER_HPP
#define DEW_NET_FRAME_SERVER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"

namespace dew::net {

// How long a peer may leave writers waiting before it counts as gone.
inline constexpr std::chrono::seconds send_timeout{5};

// One accepted connection, as a dispatch function sees it.  Shared: the
// completions of answers still owed keep it alive after its reader exits.
class frame_connection
    : public std::enable_shared_from_this<frame_connection> {
public:
    explicit frame_connection(socket_fd fd) : fd_{std::move(fd)} {}
    frame_connection(const frame_connection&) = delete;
    frame_connection& operator=(const frame_connection&) = delete;

    // Writes one frame, serialised against every other writer.  On a
    // transport failure the connection is shut down (its reader exits) and
    // the socket_error rethrown.
    void send(message_type type, std::uint64_t id, std::string_view payload);

    // Answers request `id` later: `start(done)` begins the work and returns
    // its cancel lever; `done` writes the `result` or `error` frame for `id`
    // on whichever thread settles the work.  A throw from `start`
    // propagates (the reader answers it) and `done` never runs.
    void answer(std::uint64_t id,
                const std::function<serve::cancel_lever(serve::completion)>&
                    start);

private:
    friend class frame_server;

    // send() of an `error` frame describing `error`; false instead of a
    // throw when the connection is gone.
    bool send_fault(std::uint64_t id, const std::exception_ptr& error) noexcept;

    // Pulls the cancel lever of answer `id` if still owed; true iff that
    // cancelled it.
    bool cancel(std::uint64_t id);

    void finish_answer(std::uint64_t id, const serve::service_result& result,
                       std::exception_ptr error) noexcept;

    socket_fd fd_;
    std::mutex write_mutex_; // dewlint: lock-order net-conn-write 100
    // When a write first had to wait and the peer has not caught up since
    // (guarded by write_mutex_).
    std::optional<std::chrono::steady_clock::time_point> stalled_since_;
    std::mutex pending_mutex_; // dewlint: lock-order net-conn-pending 90
    std::unordered_map<std::uint64_t, serve::cancel_lever> pending_;
    std::thread reader_;
    std::atomic<bool> finished_{false}; // reader exited, socket shut down
};

class frame_server {
public:
    // Answers one well-framed request through `conn`, on its reader.
    using dispatch_fn = std::function<void(frame_connection& conn,
                                           const frame_header& header,
                                           const std::string& payload)>;

    // Binds host:port (0 = ephemeral), listens and starts accepting.
    // Throws socket_error when the address cannot be bound.
    frame_server(const std::string& host, std::uint16_t port,
                 dispatch_fn dispatch);
    ~frame_server();
    frame_server(const frame_server&) = delete;
    frame_server& operator=(const frame_server&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

    void stop(); // idempotent

private:
    void accept_loop();
    void serve_connection(frame_connection& conn);

    dispatch_fn dispatch_;
    std::uint16_t bound_port_{0};
    socket_fd listener_;
    std::atomic<bool> stopping_{false};

    std::mutex connections_mutex_; // dewlint: lock-order net-connections 80
    std::list<std::shared_ptr<frame_connection>> connections_;
    std::thread acceptor_;
};

} // namespace dew::net

#endif // DEW_NET_FRAME_SERVER_HPP

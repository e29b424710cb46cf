#include "net/frame_server.hpp"

#include <utility>

namespace dew::net {

// --- frame_connection -------------------------------------------------------

void frame_connection::send(message_type type, std::uint64_t id,
                            std::string_view payload) {
    const std::string bytes = encode_frame(type, id, payload);
    const std::lock_guard lock{write_mutex_};
    const auto now = std::chrono::steady_clock::now();
    if (stalled_since_ && unacknowledged_bytes(fd_) == 0) {
        stalled_since_.reset(); // the peer took everything: not stalled
    }
    try {
        if (write_all(fd_, bytes.data(), bytes.size(),
                      stalled_since_.value_or(now) + send_timeout) &&
            !stalled_since_) {
            stalled_since_ = now;
        }
    } catch (const socket_error&) {
        // A partial frame may be on the wire: framing is lost.  The
        // reader wakes, exits, and the connection is reaped.
        fd_.shutdown();
        throw;
    }
}

bool frame_connection::send_fault(std::uint64_t id,
                                  const std::exception_ptr& error) noexcept {
    try {
        send(message_type::error, id, encode_error(describe_fault(error)));
        return true;
    } catch (...) {
        return false;
    }
}

void frame_connection::answer(
    std::uint64_t id,
    const std::function<serve::cancel_lever(serve::completion)>& start) {
    // Reserved first: the work may settle (and erase it) before `start`
    // returns.  The completion keeps the connection alive.
    {
        const std::lock_guard lock{pending_mutex_};
        pending_[id];
    }
    serve::cancel_lever lever;
    try {
        lever = start([self = shared_from_this(), id](
                          serve::service_result result,
                          std::exception_ptr error) {
            self->finish_answer(id, result, std::move(error));
        });
    } catch (...) {
        const std::lock_guard lock{pending_mutex_};
        pending_.erase(id);
        throw;
    }
    const std::lock_guard lock{pending_mutex_};
    if (const auto found = pending_.find(id); found != pending_.end()) {
        found->second = std::move(lever); // not answered yet
    }
}

void frame_connection::finish_answer(std::uint64_t id,
                                     const serve::service_result& result,
                                     std::exception_ptr error) noexcept {
    {
        const std::lock_guard lock{pending_mutex_};
        pending_.erase(id);
    }
    if (finished_.load(std::memory_order_acquire)) {
        return; // nobody left to tell: skip encoding the reply
    }
    try {
        if (!error) {
            send(message_type::result, id, encode_result(result));
            return;
        }
    } catch (...) {
        error = std::current_exception(); // a dead peer, or no memory
    }
    (void)send_fault(id, error);
}

bool frame_connection::cancel(std::uint64_t id) {
    serve::cancel_lever lever;
    {
        const std::lock_guard lock{pending_mutex_};
        if (const auto found = pending_.find(id); found != pending_.end()) {
            lever = found->second;
        }
    }
    return lever && lever();
}

// --- frame_server -----------------------------------------------------------

frame_server::frame_server(const std::string& host, std::uint16_t port,
                           dispatch_fn dispatch)
    : dispatch_{std::move(dispatch)},
      listener_{listen_on(host, port, bound_port_)} {
    acceptor_ = std::thread{[this] { accept_loop(); }};
}

frame_server::~frame_server() { stop(); }

void frame_server::stop() {
    if (stopping_.exchange(true)) {
        return;
    }
    listener_.close();
    if (acceptor_.joinable()) {
        acceptor_.join();
    }
    const std::lock_guard lock{connections_mutex_}; // readers never take it
    for (const auto& conn : connections_) {
        conn->fd_.shutdown();
        conn->reader_.join();
    }
    connections_.clear();
}

// dewlint: thread-body accept_loop
void frame_server::accept_loop() {
    try {
        while (!stopping_.load(std::memory_order_acquire)) {
            try {
                auto conn =
                    std::make_shared<frame_connection>(accept_on(listener_));
                const std::lock_guard lock{connections_mutex_};
                connections_.remove_if([](const auto& old) {
                    if (!old->finished_.load(std::memory_order_acquire)) {
                        return false;
                    }
                    old->reader_.join(); // already past its last statement
                    return true;
                });
                connections_.push_back(conn);
                try {
                    conn->reader_ =
                        std::thread{[this, conn] { serve_connection(*conn); }};
                } catch (...) {
                    connections_.pop_back(); // no reader: drop it
                    throw;
                }
            } catch (...) {
                // accept() failed other than by stop() (EMFILE, ...), or no
                // memory or thread for the new connection, which is dropped
                // with its socket.  Back off and keep accepting.
                if (!stopping_.load(std::memory_order_acquire)) {
                    std::this_thread::sleep_for(std::chrono::milliseconds{10});
                }
            }
        }
    } catch (...) {
        // Nothing escapes the handler above; belt and braces.
    }
}

// dewlint: thread-body serve_connection
void frame_server::serve_connection(frame_connection& conn) {
    try {
        std::string header_bytes(frame_header_bytes, '\0');
        while (read_exact(conn.fd_, header_bytes.data(),
                          header_bytes.size()) == header_bytes.size()) {
            frame_header header;
            try {
                header = parse_header(header_bytes);
            } catch (const wire_error&) {
                // Framing is lost: report on id 0 (no id is trustworthy)
                // and close.
                (void)conn.send_fault(0, std::current_exception());
                break;
            }
            std::string payload;
            if (!read_payload(conn.fd_, header.payload_bytes, payload)) {
                break; // torn frame
            }
            try {
                if (header.type == message_type::ping) {
                    conn.send(message_type::pong, header.id, {});
                } else if (header.type == message_type::cancel) {
                    // Only the ack: the withdrawn answer is still written
                    // by its completion (the cancellation fault, or the
                    // result if it won the race).
                    conn.send(message_type::cancel_ok, header.id,
                              encode_flag(conn.cancel(
                                  decode_cancel_target(payload))));
                } else {
                    dispatch_(conn, header, payload);
                }
            } catch (...) {
                // Intact framing: answer on the request's id and keep
                // serving — unless the connection itself is gone.
                if (!conn.send_fault(header.id, std::current_exception())) {
                    break;
                }
            }
        }
    } catch (...) {
        // A reset, stop() shutting us down, or no memory: this connection
        // is over, and the throw must not reach std::terminate.
    }
    conn.fd_.shutdown();
    conn.finished_.store(true, std::memory_order_release);
}

} // namespace dew::net

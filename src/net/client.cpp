#include "net/client.hpp"

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/bits.hpp"
#include "net/socket.hpp"
#include "obs/recorder.hpp"

namespace dew::net {

// What a pending request is settled with: the response frame, or the
// transport fault that replaced it.  It runs with no client lock held, and
// a throw from it is trapped: it must not stop the reader delivering the
// other answers.
using frame_completion =
    std::function<void(frame response, std::exception_ptr error)>;

// Shared by the client facade and every outstanding submission's cancel
// lever, so a lever stays usable after the client object moved on — the
// same after-the-service-is-gone safety serve::submission gives.
class client_core : public std::enable_shared_from_this<client_core> {
public:
    client_core(const std::string& host, std::uint16_t port)
        : fd_{connect_to(host, port)} {}

    ~client_core() { shutdown(); }

    void start_reader() {
        // The lambda delegates to read_loop, whose top-level catch routes
        // every fault into death_ / the pending completions.
        reader_ = std::thread{[self = shared_from_this()] {
            self->read_loop();
        }};
    }

    void shutdown() {
        fd_.shutdown(); // closed with the core: no fd reuse under a writer
        if (reader_.joinable() &&
            reader_.get_id() != std::this_thread::get_id()) {
            reader_.join();
        }
        fail_pending(std::make_exception_ptr(
            socket_error{ENOTCONN, "connection closed"}));
    }

    // Reserves the next frame id without sending anything.  submit() uses
    // this to stamp the id into the payload's trace context *before*
    // encoding it (the parent span id is the frame id, and the frame id
    // must therefore exist before the frame does).
    [[nodiscard]] std::uint64_t allocate_id() {
        return next_id_.fetch_add(1, std::memory_order_relaxed);
    }

    // Registers `done` for frame `id` and sends the frame (any thread;
    // writes are serialised).  `done` runs exactly once — on the reader
    // when the response arrives, or with socket_error if the connection
    // dies first — unless this throws.  A span_name asks for a span over
    // send -> arrival, recorded under the frame id and trace id before
    // `done` runs: the client half of the cross-socket stitch.
    void send_prepared(message_type type, std::string_view payload,
                       std::uint64_t id, frame_completion done,
                       const char* span_name = nullptr,
                       std::uint64_t trace_hi = 0,
                       std::uint64_t trace_lo = 0) {
        const std::string bytes = encode_frame(type, id, payload);
        const std::uint64_t sent_ns =
            span_name != nullptr ? obs::timestamp_if_enabled() : 0;
        {
            const std::lock_guard lock{pending_mutex_};
            if (dead_) {
                std::rethrow_exception(death_);
            }
            pending_.emplace(id, pending_request{std::move(done), span_name,
                                                 sent_ns, trace_hi,
                                                 trace_lo});
        }
        try {
            const std::lock_guard lock{write_mutex_};
            write_all(fd_, bytes.data(), bytes.size());
        } catch (...) {
            // Whoever takes the entry out of pending_ answers it: if the
            // reader's death got there first, its completion is the answer.
            const std::lock_guard lock{pending_mutex_};
            if (pending_.erase(id) != 0) {
                throw;
            }
        }
    }

    // Synchronous round trip: expects exactly `expected` back, rethrows
    // error frames as their fault, rejects anything else as wire_error.
    frame roundtrip(message_type type, std::string_view payload,
                    message_type expected) {
        auto promise = std::make_shared<std::promise<frame>>();
        std::future<frame> response = promise->get_future();
        send_prepared(type, payload, allocate_id(),
                      [promise](frame arrived, std::exception_ptr error) {
                          if (error) {
                              promise->set_exception(std::move(error));
                          } else {
                              promise->set_value(std::move(arrived));
                          }
                      });
        return expect(response.get(), expected);
    }

    static frame expect(frame response, message_type expected) {
        if (response.header.type == message_type::error) {
            rethrow_fault(decode_error(response.payload));
        }
        if (response.header.type != expected) {
            throw wire_error{"unexpected response type " +
                             std::string{to_string(response.header.type)} +
                             " (want " + to_string(expected) + ")"};
        }
        return response;
    }

private:
    // dewlint: thread-body read_loop
    void read_loop() {
        std::exception_ptr death;
        try {
            std::string header_bytes(frame_header_bytes, '\0');
            frame response;
            while (read_exact(fd_, header_bytes.data(),
                              header_bytes.size()) == header_bytes.size()) {
                response.header = parse_header(header_bytes);
                if (!read_payload(fd_, response.header.payload_bytes,
                                  response.payload)) {
                    break; // torn mid-frame
                }
                settle(std::move(response));
            }
            death = std::make_exception_ptr(
                socket_error{ECONNRESET, "connection closed by server"});
        } catch (...) {
            // wire_error (the server is speaking garbage) or socket_error:
            // either way this conversation is over.
            death = std::current_exception();
        }
        fd_.shutdown();
        fail_pending(death);
    }

    void settle(frame response) {
        const std::uint64_t id = response.header.id;
        pending_request request;
        {
            const std::lock_guard lock{pending_mutex_};
            const auto found = pending_.find(id);
            if (found == pending_.end()) {
                return; // e.g. the server's id-0 protocol report
            }
            request = std::move(found->second);
            pending_.erase(found);
        }
        if (request.span_name != nullptr && request.sent_ns != 0) {
            obs::recorder::instance().record(
                request.span_name, request.sent_ns,
                obs::now_ns() - request.sent_ns, id, 0, request.trace_hi,
                request.trace_lo);
        }
        try {
            request.done(std::move(response), nullptr);
        } catch (...) {
            // Trapped (see frame_completion).
        }
    }

    void fail_pending(std::exception_ptr error) {
        std::unordered_map<std::uint64_t, pending_request> orphans;
        std::exception_ptr death;
        {
            const std::lock_guard lock{pending_mutex_};
            if (!dead_) {
                dead_ = true;
                death_ = error ? error
                               : std::make_exception_ptr(socket_error{
                                     ENOTCONN, "connection closed"});
            }
            death = death_;
            orphans.swap(pending_);
        }
        // Orphaned requests get their fault, not a span — a torn
        // connection's duration measures nothing.
        for (auto& [id, request] : orphans) {
            (void)id;
            try {
                request.done({}, death);
            } catch (...) {
                // Trapped (see frame_completion).
            }
        }
    }

    // One request awaiting its response frame, and the span (if any) the
    // reader closes for it on arrival (submit only, today).
    struct pending_request {
        frame_completion done;
        const char* span_name{nullptr};
        std::uint64_t sent_ns{0};
        std::uint64_t trace_hi{0};
        std::uint64_t trace_lo{0};
    };

    socket_fd fd_;
    std::mutex write_mutex_; // dewlint: lock-order net-client-write 120
    std::thread reader_;
    std::atomic<std::uint64_t> next_id_{1};

    std::mutex pending_mutex_; // dewlint: lock-order net-client-pending 110
    std::unordered_map<std::uint64_t, pending_request> pending_;
    bool dead_{false};
    std::exception_ptr death_;
};

// --- client ------------------------------------------------------------------

client::client(const std::string& host, std::uint16_t port)
    : core_{std::make_shared<client_core>(host, port)} {
    core_->start_reader();
}

client::~client() {
    if (core_) {
        core_->shutdown();
    }
}

void client::ping() {
    (void)core_->roundtrip(message_type::ping, {}, message_type::pong);
}

trace::trace_digest client::register_trace(const trace::mem_trace& records) {
    const frame response =
        core_->roundtrip(message_type::register_trace,
                         encode_records(records), message_type::register_ok);
    return decode_digest(response.payload);
}

bool client::has_trace(const trace::trace_digest& digest) {
    const frame response = core_->roundtrip(
        message_type::has_trace, encode_digest(digest), message_type::has_ok);
    return decode_flag(response.payload);
}

namespace {

// A fresh 128-bit trace id: two splitmix64 avalanches over the clock, the
// frame id and a per-process counter.  Uniqueness here is statistical, not
// coordinated — good enough to grep one request's spans out of a fleet
// trace, which is all a trace id is for.
std::array<std::uint64_t, 2> generate_trace_id(std::uint64_t frame_id) {
    static std::atomic<std::uint64_t> sequence{0};
    const auto now = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    const std::uint64_t seq = sequence.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t hi = mix64(now ^ mix64(frame_id));
    const std::uint64_t lo = mix64(seq ^ mix64(hi) ^ 0x9E3779B97F4A7C15ull);
    return {hi != 0 || lo != 0 ? hi : 1, lo};
}

} // namespace

submission client::submit(const trace::trace_digest& digest,
                          const serve::service_request& request) {
    return submission::adapt([&](serve::completion done) {
        return submit(digest, request, std::move(done));
    });
}

serve::cancel_lever client::submit(const trace::trace_digest& digest,
                                   const serve::service_request& request,
                                   serve::completion done) {
    // The frame id is the parent span id, so reserve it before encoding.
    const std::uint64_t id = core_->allocate_id();
    serve::service_request stamped = request;
    if ((stamped.obs_trace_hi | stamped.obs_trace_lo) == 0) {
        // This client is the trace root.  A request arriving with a trace
        // id already set (the router's backend hop, or a caller continuing
        // an upstream trace) keeps it — forwarding never re-stamps.
        const std::array<std::uint64_t, 2> trace = generate_trace_id(id);
        stamped.obs_trace_hi = trace[0];
        stamped.obs_trace_lo = trace[1];
    }
    if (stamped.obs_parent_span == 0) {
        stamped.obs_parent_span = id;
    }
    core_->send_prepared(
        message_type::submit, encode_submit({digest, stamped}), id,
        [done = std::move(done)](frame response, std::exception_ptr error) {
            serve::service_result result;
            if (!error) {
                try {
                    result = decode_result(
                        client_core::expect(std::move(response),
                                            message_type::result)
                            .payload);
                } catch (...) {
                    error = std::current_exception();
                }
            }
            done(std::move(result), std::move(error));
        },
        "net.client.submit", stamped.obs_trace_hi, stamped.obs_trace_lo);
    return [core = core_, id] {
        const frame response = core->roundtrip(message_type::cancel,
                                               encode_cancel_target(id),
                                               message_type::cancel_ok);
        return decode_flag(response.payload);
    };
}

std::vector<obs::metric> client::metrics() {
    const frame response = core_->roundtrip(message_type::get_metrics, {},
                                            message_type::metrics_ok);
    return decode_metrics(response.payload);
}

std::vector<obs::request_event> client::events() {
    const frame response = core_->roundtrip(message_type::get_events, {},
                                            message_type::events_ok);
    return decode_events(response.payload);
}

serve::service_stats client::stats() {
    const frame response =
        core_->roundtrip(message_type::stats, {}, message_type::stats_ok);
    return decode_stats(response.payload);
}

std::string client::save_cache() {
    frame response = core_->roundtrip(message_type::cache_save, {},
                                      message_type::cache_contents);
    return std::move(response.payload);
}

serve::cache_load_report client::load_cache(serve::load_mode mode,
                                            std::string_view cache_file) {
    const frame response =
        core_->roundtrip(message_type::cache_load,
                         encode_cache_load(mode, cache_file),
                         message_type::cache_loaded);
    return decode_load_report(response.payload);
}

void client::pause() {
    (void)core_->roundtrip(message_type::pause, {}, message_type::ok);
}

void client::resume() {
    (void)core_->roundtrip(message_type::resume, {}, message_type::ok);
}

void client::close() { core_->shutdown(); }

} // namespace dew::net

// Thin RAII layer over POSIX TCP sockets — everything src/net/ needs and
// nothing more: bind/listen/accept/connect on IPv4, full-buffer reads and
// writes that survive EINTR and partial transfers, payload reads that grow
// with the bytes that arrive, and a file-descriptor owner whose
// shutdown()/close() can be raced safely from another thread to unblock a
// peer stuck in a read (the server's stop path).
//
// Failures throw net::socket_error (a std::system_error carrying errno), so
// transport faults are distinguishable from wire-format faults
// (net::wire_error) and map cleanly onto the service's transient fault
// class — a connection reset is retryable, a malformed frame is not.
#ifndef DEW_NET_SOCKET_HPP
#define DEW_NET_SOCKET_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <system_error>

namespace dew::net {

class socket_error : public std::system_error {
public:
    socket_error(int err, const std::string& what)
        : std::system_error{err, std::generic_category(), what} {}
};

// Owns one file descriptor.  Movable, not copyable.  close() is idempotent
// and callable concurrently with a blocked read/write on the same fd: it
// shuts the socket down first, which unblocks the peer with an error.
class socket_fd {
public:
    socket_fd() = default;
    explicit socket_fd(int fd) noexcept : fd_{fd} {}
    socket_fd(socket_fd&& other) noexcept : fd_{other.release()} {}
    socket_fd& operator=(socket_fd&& other) noexcept;
    ~socket_fd() { close(); }

    socket_fd(const socket_fd&) = delete;
    socket_fd& operator=(const socket_fd&) = delete;

    [[nodiscard]] int get() const noexcept {
        return fd_.load(std::memory_order_acquire);
    }
    [[nodiscard]] bool valid() const noexcept { return get() >= 0; }
    [[nodiscard]] int release() noexcept {
        return fd_.exchange(-1, std::memory_order_acq_rel);
    }

    // Shutdown + close; safe to call twice and from a thread other than the
    // one blocked in read_exact/write_all.
    void close() noexcept;

    // Shutdown only: every read/write fails or sees EOF, but the descriptor
    // stays owned, so its number cannot be reused under a late writer.
    void shutdown() noexcept;

private:
    std::atomic<int> fd_{-1};
};

// Binds and listens on host:port (IPv4 dotted quad or "localhost"); port 0
// picks an ephemeral port.  `bound_port` receives the actual port.
[[nodiscard]] socket_fd listen_on(const std::string& host, std::uint16_t port,
                                  std::uint16_t& bound_port);

// Blocking accept; throws socket_error when the listener was closed.
[[nodiscard]] socket_fd accept_on(const socket_fd& listener);

// Blocking connect, TCP_NODELAY set (request/response frames must not sit
// in Nagle buffers).
[[nodiscard]] socket_fd connect_to(const std::string& host,
                                   std::uint16_t port);

// Reads exactly `size` bytes unless the peer closes first: returns the
// bytes read, which is < size only at a clean or torn EOF.  Throws
// socket_error on a transport error.
std::size_t read_exact(const socket_fd& socket, void* data, std::size_t size);

// Reads `size` bytes into `out`, growing it in bounded chunks as they
// arrive — a header that promises a gigabyte and then closes costs one
// chunk, not a gigabyte.  False (`out` partial) at an early EOF;
// socket_error on a transport fault.
bool read_payload(const socket_fd& socket, std::uint64_t size,
                  std::string& out);

// Writes the whole buffer or throws socket_error (EPIPE/reset included —
// SIGPIPE is suppressed per send).  Waiting for room ends at `deadline`
// with socket_error (ETIMEDOUT), the buffer partly written — a peer that
// stops reading cannot hold the writer past it.  True iff it had to wait.
bool write_all(const socket_fd& socket, const void* data, std::size_t size,
               std::chrono::steady_clock::time_point deadline =
                   std::chrono::steady_clock::time_point::max());

// Bytes written to `socket` that the peer has not acknowledged yet (0 when
// the kernel cannot say): 0 means the peer has taken everything sent.
[[nodiscard]] std::size_t unacknowledged_bytes(const socket_fd& socket);

} // namespace dew::net

#endif // DEW_NET_SOCKET_HPP

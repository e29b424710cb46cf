#include "net/socket.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dew::net {

namespace {

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, resolved.c_str(), &address.sin_addr) != 1) {
        throw socket_error{EINVAL, "bad IPv4 host \"" + host + "\""};
    }
    return address;
}

void set_nodelay(int fd) noexcept {
    int one = 1;
    // Best effort: a socket that cannot set NODELAY still works, just with
    // Nagle latency.
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

} // namespace

socket_fd& socket_fd::operator=(socket_fd&& other) noexcept {
    if (this != &other) {
        close();
        fd_.store(other.release(), std::memory_order_release);
    }
    return *this;
}

void socket_fd::close() noexcept {
    const int fd = release();
    if (fd >= 0) {
        // Shutdown first so a peer thread blocked in recv/accept on this fd
        // wakes with an error instead of waiting on a closed descriptor
        // number that may be reused.
        (void)::shutdown(fd, SHUT_RDWR);
        (void)::close(fd);
    }
}

void socket_fd::shutdown() noexcept {
    const int fd = get();
    if (fd >= 0) {
        (void)::shutdown(fd, SHUT_RDWR);
    }
}

socket_fd listen_on(const std::string& host, std::uint16_t port,
                    std::uint16_t& bound_port) {
    socket_fd fd{::socket(AF_INET, SOCK_STREAM, 0)};
    if (!fd.valid()) {
        throw socket_error{errno, "socket() failed"};
    }
    int one = 1;
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in address = make_address(host, port);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&address),
               sizeof address) != 0) {
        throw socket_error{errno, "cannot bind " + host + ":" +
                                      std::to_string(port)};
    }
    if (::listen(fd.get(), SOMAXCONN) != 0) {
        throw socket_error{errno, "listen() failed"};
    }
    sockaddr_in actual{};
    socklen_t length = sizeof actual;
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual),
                      &length) != 0) {
        throw socket_error{errno, "getsockname() failed"};
    }
    bound_port = ntohs(actual.sin_port);
    return fd;
}

socket_fd accept_on(const socket_fd& listener) {
    for (;;) {
        const int fd = ::accept(listener.get(), nullptr, nullptr);
        if (fd >= 0) {
            set_nodelay(fd);
            return socket_fd{fd};
        }
        if (errno == EINTR) {
            continue;
        }
        throw socket_error{errno, "accept() failed"};
    }
}

socket_fd connect_to(const std::string& host, std::uint16_t port) {
    socket_fd fd{::socket(AF_INET, SOCK_STREAM, 0)};
    if (!fd.valid()) {
        throw socket_error{errno, "socket() failed"};
    }
    sockaddr_in address = make_address(host, port);
    for (;;) {
        if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                      sizeof address) == 0) {
            set_nodelay(fd.get());
            return fd;
        }
        if (errno == EINTR) {
            continue;
        }
        throw socket_error{errno, "cannot connect to " + host + ":" +
                                      std::to_string(port)};
    }
}

std::size_t read_exact(const socket_fd& socket, void* data,
                       std::size_t size) {
    char* cursor = static_cast<char*>(data);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t got =
            ::recv(socket.get(), cursor + done, size - done, 0);
        if (got > 0) {
            done += static_cast<std::size_t>(got);
            continue;
        }
        if (got == 0) {
            return done; // peer closed
        }
        if (errno == EINTR) {
            continue;
        }
        throw socket_error{errno, "recv() failed"};
    }
    return done;
}

bool read_payload(const socket_fd& socket, std::uint64_t size,
                  std::string& out) {
    constexpr std::size_t chunk = std::size_t{256} << 10;
    out.clear();
    while (out.size() < size) {
        const std::size_t done = out.size();
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(size - done, chunk));
        out.resize(done + want);
        if (read_exact(socket, out.data() + done, want) != want) {
            return false;
        }
    }
    return true;
}

bool write_all(const socket_fd& socket, const void* data, std::size_t size,
               std::chrono::steady_clock::time_point deadline) {
    const char* cursor = static_cast<const char*>(data);
    std::size_t done = 0;
    bool waited = false;
    while (done < size) {
        const ssize_t put = ::send(socket.get(), cursor + done, size - done,
                                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (put >= 0) {
            done += static_cast<std::size_t>(put);
            continue;
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
            throw socket_error{errno, "send() failed"};
        }
        // No room: wait for some, until the deadline.
        waited = true;
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        pollfd room{socket.get(), POLLOUT, 0};
        const int ready = ::poll(
            &room, 1,
            deadline == std::chrono::steady_clock::time_point::max()
                ? -1
                : static_cast<int>(std::max<long long>(left.count(), 0)));
        if (ready == 0) {
            throw socket_error{ETIMEDOUT,
                               "send() timed out: peer is not reading"};
        }
        if (ready < 0 && errno != EINTR) {
            throw socket_error{errno, "poll() failed"};
        }
    }
    return waited;
}

std::size_t unacknowledged_bytes(const socket_fd& socket) {
    int queued = 0;
    return ::ioctl(socket.get(), SIOCOUTQ, &queued) == 0 && queued > 0
               ? static_cast<std::size_t>(queued)
               : 0;
}

} // namespace dew::net

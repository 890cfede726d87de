#include "net/socket.hh"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace smt::net
{

Socket &
Socket::operator=(Socket &&o) noexcept
{
    if (this != &o) {
        close();
        fd_ = o.fd_;
        o.fd_ = -1;
    }
    return *this;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Socket::setNonBlocking()
{
    if (fd_ < 0)
        return false;
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0)
        return false;
    return ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
Socket::sendAll(const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
Socket::sendAll(const std::string &data)
{
    return sendAll(data.data(), data.size());
}

long
Socket::sendSome(const void *buf, std::size_t len)
{
    while (true) {
        const ssize_t n = ::send(fd_, buf, len, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        return static_cast<long>(n);
    }
}

long
Socket::recvSome(void *buf, std::size_t len)
{
    while (true) {
        const ssize_t n = ::recv(fd_, buf, len, 0);
        if (n < 0 && errno == EINTR)
            continue;
        return static_cast<long>(n);
    }
}

Socket
connectTcp(const std::string &host, std::uint16_t port, std::string *error)
{
    struct addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;

    struct addrinfo *res = nullptr;
    const std::string service = std::to_string(port);
    const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                                 &res);
    if (rc != 0) {
        if (error != nullptr)
            *error = std::string("cannot resolve ") + host + ": "
                     + ::gai_strerror(rc);
        return Socket();
    }

    Socket sock;
    std::string last_error = "no addresses";
    for (struct addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        const int fd =
            ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_error = std::strerror(errno);
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            sock = Socket(fd);
            break;
        }
        last_error = std::strerror(errno);
        ::close(fd);
    }
    ::freeaddrinfo(res);
    if (!sock.valid() && error != nullptr)
        *error = "cannot connect to " + host + ":" + service + ": "
                 + last_error;
    return sock;
}

Socket
listenTcp(const std::string &bind_addr, std::uint16_t port, int backlog,
          std::string *error)
{
    struct addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE | AI_NUMERICHOST;

    struct addrinfo *res = nullptr;
    const std::string service = std::to_string(port);
    const int rc = ::getaddrinfo(bind_addr.c_str(), service.c_str(),
                                 &hints, &res);
    if (rc != 0) {
        if (error != nullptr)
            *error = std::string("cannot parse bind address ") + bind_addr
                     + ": " + ::gai_strerror(rc);
        return Socket();
    }

    Socket sock;
    std::string last_error = "no addresses";
    for (struct addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        const int fd =
            ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_error = std::strerror(errno);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0
            && ::listen(fd, backlog) == 0) {
            sock = Socket(fd);
            break;
        }
        last_error = std::strerror(errno);
        ::close(fd);
    }
    ::freeaddrinfo(res);
    if (!sock.valid() && error != nullptr)
        *error = "cannot listen on " + bind_addr + ":" + service + ": "
                 + last_error;
    return sock;
}

std::uint16_t
boundPort(const Socket &listener)
{
    struct sockaddr_storage addr = {};
    socklen_t len = sizeof addr;
    if (::getsockname(listener.fd(),
                      reinterpret_cast<struct sockaddr *>(&addr), &len)
        != 0)
        return 0;
    if (addr.ss_family == AF_INET)
        return ntohs(reinterpret_cast<struct sockaddr_in *>(&addr)
                         ->sin_port);
    if (addr.ss_family == AF_INET6)
        return ntohs(reinterpret_cast<struct sockaddr_in6 *>(&addr)
                         ->sin6_port);
    return 0;
}

Socket
acceptConn(const Socket &listener)
{
    while (true) {
        const int fd = ::accept(listener.fd(), nullptr, nullptr);
        if (fd >= 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            return Socket(fd);
        }
        if (errno == EINTR)
            continue;
        return Socket();
    }
}

} // namespace smt::net

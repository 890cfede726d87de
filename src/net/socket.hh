/**
 * @file
 * Minimal TCP sockets for the net layer.
 *
 * A thin, dependency-free RAII wrapper over POSIX sockets: connect by
 * host name (getaddrinfo), listen on an address/port (port 0 picks an
 * ephemeral port — tests bind there and ask boundPort()), accept, and
 * send/recv helpers that retry short writes and EINTR. Sockets start
 * blocking (the client's mode); the event-loop server switches its
 * own to non-blocking. Message framing is the HTTP layer's parser.
 */

#ifndef SMT_NET_SOCKET_HH
#define SMT_NET_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace smt::net
{

/** An owned socket file descriptor (-1 when empty). */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Socket &operator=(Socket &&o) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Close now (idempotent). */
    void close();

    /** Switch the fd to O_NONBLOCK (the event-loop server's mode);
     *  false on fcntl failure. */
    bool setNonBlocking();

    /**
     * Write all of `data`, retrying short writes; SIGPIPE suppressed.
     * False on any error (the connection is unusable afterwards).
     */
    bool sendAll(const void *data, std::size_t len);
    bool sendAll(const std::string &data);

    /** One recv(2); bytes read, 0 on orderly close, -1 on error. */
    long recvSome(void *buf, std::size_t len);

    /**
     * One send(2); bytes written (possibly short) or -1 on error,
     * with errno EAGAIN/EWOULDBLOCK when a non-blocking socket's
     * buffer is full. SIGPIPE suppressed; EINTR retried.
     */
    long sendSome(const void *buf, std::size_t len);

  private:
    int fd_ = -1;
};

/** Connect to host:port (name or numeric). Invalid socket on failure;
 *  `error`, when non-null, receives a human-readable reason. */
Socket connectTcp(const std::string &host, std::uint16_t port,
                  std::string *error = nullptr);

/** Listen on bind_addr:port (port 0 = ephemeral). Invalid socket on
 *  failure. */
Socket listenTcp(const std::string &bind_addr, std::uint16_t port,
                 int backlog, std::string *error = nullptr);

/** The local port a listening socket is bound to (0 on failure). */
std::uint16_t boundPort(const Socket &listener);

/** Accept one connection; invalid socket on error (including the
 *  listener being closed by another thread during shutdown). */
Socket acceptConn(const Socket &listener);

} // namespace smt::net

#endif // SMT_NET_SOCKET_HH

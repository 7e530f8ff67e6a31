/**
 * @file
 * The one loopback connection core behind every TCP server in the
 * tree: the live service (serve::Server, "WSV1") and the distributed
 * sweep head (runner::RemoteBackend, "WRK1") differ only in the
 * handler they run per connection.
 *
 * ConnServer binds 127.0.0.1:port, runs the accept loop, sets
 * TCP_NODELAY on every connection and runs the caller's
 * handler(fd, connId) on one thread per connection. It also keeps
 * the named error counts both servers report.
 *
 * fd rule: only ConnServer closes a connection fd, once that
 * connection's handler has returned, under the registry lock that
 * shutdownConns() holds too. So a shutdown can never land on a
 * recycled descriptor, and a handler may use its fd freely until it
 * returns. Listener and connection fds are close-on-exec, so a
 * worker a server forks never holds them open.
 *
 * The accept loop survives failed accepts: on fd or buffer
 * exhaustion (EMFILE, ENFILE, ENOBUFS, ENOMEM), an aborted handshake
 * (ECONNABORTED) or any other error it counts "accept-failed",
 * backs off kAcceptBackoff and retries; a connection refused for
 * want of a descriptor stays queued and is served once one frees
 * up. It exits only on stopAccepting() or at the accept limit.
 *
 * Teardown, in order: stopAccepting(), shutdownConns(SHUT_RD or
 * SHUT_RDWR), optionally waitIdle(), then join().
 */

#ifndef WLCRC_NET_CONN_SERVER_HH
#define WLCRC_NET_CONN_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wlcrc::net
{

/** Pause before retrying a failed accept(). */
inline constexpr std::chrono::milliseconds kAcceptBackoff{10};

/**
 * Connect to @p host:@p port (numeric IPv4 host), close-on-exec,
 * with TCP_NODELAY set.
 * @throws std::runtime_error naming the peer and strerror(errno).
 */
int connectTcp(const std::string &host, uint16_t port);

/** Loopback listener + one handler thread per connection. */
class ConnServer
{
  public:
    /** Runs on the connection's own thread; must not close @p fd. */
    using Handler = std::function<void(int fd, uint64_t connId)>;

    /**
     * @p acceptLimit: stop accepting after this many connections
     * (0 = no limit). Nothing listens until start().
     */
    explicit ConnServer(Handler handler, uint64_t acceptLimit = 0);

    /** stopAccepting(), shutdownConns(SHUT_RDWR), join(). */
    ~ConnServer();

    ConnServer(const ConnServer &) = delete;
    ConnServer &operator=(const ConnServer &) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral), listen and start the
     * accept loop.
     * @throws std::runtime_error if the socket cannot be bound.
     */
    void start(uint16_t port);

    /** Bound port (valid after start()). */
    uint16_t port() const { return port_; }

    /**
     * Shut the listener down, join the accept loop, close the
     * listener. Idempotent. Connections already accepted keep
     * running.
     */
    void stopAccepting();

    /** shutdown(fd, @p how) on every open connection. */
    void shutdownConns(int how);

    /**
     * Wait up to @p timeout for every handler to return.
     * @return whether none is left running.
     */
    bool waitIdle(std::chrono::milliseconds timeout);

    /** Join every connection thread started so far. */
    void join();

    /** Bump the named error counter @p name. */
    void count(const std::string &name);

    /** Named error counts so far (absent key = zero). */
    std::map<std::string, uint64_t> errorCounts() const;

  private:
    void acceptLoop();
    void serve(int fd, uint64_t id);

    Handler handler_;
    uint64_t acceptLimit_;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;

    mutable std::mutex mutex_;
    std::condition_variable idle_;
    std::map<uint64_t, int> open_; //!< connId -> fd, until closed
    std::vector<std::thread> threads_;
    std::map<std::string, uint64_t> errors_;
};

} // namespace wlcrc::net

#endif // WLCRC_NET_CONN_SERVER_HH

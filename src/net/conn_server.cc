#include "conn_server.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace wlcrc::net
{

namespace
{

void
setNoDelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

} // namespace

int
connectTcp(const std::string &host, uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw std::runtime_error("bad host \"" + host + "\"");
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr) != 0) {
        const int err = errno;
        if (fd >= 0)
            ::close(fd);
        throw std::runtime_error("cannot connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(err));
    }
    setNoDelay(fd);
    return fd;
}

ConnServer::ConnServer(Handler handler, uint64_t acceptLimit)
    : handler_(std::move(handler)), acceptLimit_(acceptLimit)
{}

ConnServer::~ConnServer()
{
    stopAccepting();
    shutdownConns(SHUT_RDWR);
    join();
}

void
ConnServer::start(uint16_t port)
{
    const auto fail = [this](const std::string &what) {
        const int err = errno;
        if (listenFd_ >= 0)
            ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error(what + ": " + std::strerror(err));
    };
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        fail("socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        fail("cannot bind 127.0.0.1:" + std::to_string(port));
    socklen_t len = sizeof addr;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);
    if (::listen(listenFd_, 128) != 0)
        fail("listen() failed");
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
ConnServer::acceptLoop()
{
    for (uint64_t accepted = 0;
         !acceptLimit_ || accepted < acceptLimit_;) {
        const int fd =
            ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (stopping_.load())
                return; // stopAccepting() shut the listener down
            if (errno == EINTR)
                continue;
            // EMFILE, ENFILE, ENOBUFS, ENOMEM leave the connection
            // queued: serve it once a descriptor (or buffer) frees
            // up. Every failure retries until stopAccepting().
            count("accept-failed");
            std::this_thread::sleep_for(kAcceptBackoff);
            continue;
        }
        setNoDelay(fd);
        std::lock_guard lock(mutex_);
        const uint64_t id = accepted++;
        open_.emplace(id, fd);
        threads_.emplace_back([this, fd, id] { serve(fd, id); });
    }
}

void
ConnServer::serve(int fd, uint64_t id)
{
    handler_(fd, id);
    std::lock_guard lock(mutex_);
    ::close(fd);
    open_.erase(id);
    if (open_.empty())
        idle_.notify_all();
}

void
ConnServer::stopAccepting()
{
    if (listenFd_ < 0)
        return;
    // Shutting the listener down wakes accept(); it is closed only
    // after the join, so its number cannot be recycled under the
    // accept loop.
    stopping_.store(true);
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
}

void
ConnServer::shutdownConns(int how)
{
    std::lock_guard lock(mutex_);
    for (const auto &[id, fd] : open_)
        ::shutdown(fd, how);
}

bool
ConnServer::waitIdle(std::chrono::milliseconds timeout)
{
    std::unique_lock lock(mutex_);
    return idle_.wait_for(lock, timeout,
                          [this] { return open_.empty(); });
}

void
ConnServer::join()
{
    std::vector<std::thread> threads;
    {
        std::lock_guard lock(mutex_);
        threads.swap(threads_);
    }
    for (auto &t : threads)
        t.join();
}

void
ConnServer::count(const std::string &name)
{
    std::lock_guard lock(mutex_);
    ++errors_[name];
}

std::map<std::string, uint64_t>
ConnServer::errorCounts() const
{
    std::lock_guard lock(mutex_);
    return errors_;
}

} // namespace wlcrc::net

/**
 * @file
 * Shared test helpers: run a shell command and capture its stdout
 * or exit code, or spawn one in the background and reap (or kill)
 * it later; and starve the test process of descriptors. Used by the
 * golden-output bench harness, the wlcrc_sim --json round trip, the
 * tools' usage-error tests, the distributed-backend suite's worker
 * subprocesses, and the fd-exhaustion faults of both servers.
 */

#ifndef WLCRC_TESTS_SUBPROCESS_HH
#define WLCRC_TESTS_SUBPROCESS_HH

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace wlcrc::test
{

/**
 * Run @p cmd via /bin/sh and return its stdout. @p exit_code gets
 * the raw pclose() status. Redirect stderr in the command string if
 * it should be discarded.
 */
inline std::string
captureStdout(const std::string &cmd, int &exit_code)
{
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe)
        throw std::runtime_error("popen failed: " + cmd);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, n);
    exit_code = ::pclose(pipe);
    return out;
}

/** Exit code of @p cmd, or -1 if it did not exit normally. */
inline int
exitCodeOf(const std::string &cmd)
{
    int status = -1;
    captureStdout(cmd, status);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/**
 * Lowers RLIMIT_NOFILE to `fd + 1` for a just-created descriptor
 * @p fd, so no descriptor is free at all: @p fd was the lowest free
 * number, so every one below it is taken. Restores the limit when it
 * goes out of scope, on every path out of a test. Create the client
 * socket first, then starve, then connect: connect() needs no new
 * descriptor, so the server's accept() of that connection fails with
 * EMFILE, and no other thread can take a spare descriptor first.
 */
struct NoFreeFd
{
    rlimit saved{};
    bool exhausted = false; //!< opening a descriptor now fails (EMFILE)

    explicit NoFreeFd(int fd)
    {
        ::getrlimit(RLIMIT_NOFILE, &saved);
        if (fd < 0)
            return;
        rlimit low = saved;
        low.rlim_cur = static_cast<rlim_t>(fd) + 1;
        if (::setrlimit(RLIMIT_NOFILE, &low) != 0)
            return;
        const int probe = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        if (probe >= 0)
            ::close(probe);
        else
            exhausted = errno == EMFILE;
    }
    ~NoFreeFd() { ::setrlimit(RLIMIT_NOFILE, &saved); }
};

/** Connect the TCP socket @p fd to 127.0.0.1:@p port. */
inline bool
connectLoopback(int fd, uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof addr) == 0;
}

/**
 * Start @p cmd via `/bin/sh -c` without waiting, returning the
 * shell's pid. Use `exec some-binary args` as the command when the
 * test needs to signal the binary itself (SIGKILL fault injection):
 * exec replaces the shell, so the returned pid IS the binary's.
 */
inline pid_t
spawnBackground(const std::string &cmd)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed: " + cmd);
    if (pid == 0) {
        ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/** Blocking waitpid; returns the raw status (-1 on error). */
inline int
reap(pid_t pid)
{
    int status = -1;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR)
        continue;
    return status;
}

/** SIGKILL @p pid and reap it (idempotent on an exited child). */
inline void
killAndReap(pid_t pid)
{
    ::kill(pid, SIGKILL);
    reap(pid);
}

} // namespace wlcrc::test

#endif // WLCRC_TESTS_SUBPROCESS_HH

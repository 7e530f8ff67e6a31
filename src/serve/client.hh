/**
 * @file
 * Client: a blocking client for the wlcrc_serve wire protocol.
 * tools/wlcrc_load runs many of these (one per connection thread);
 * the protocol-robustness tests use sendRaw() to speak malformed
 * frames at a real server.
 */

#ifndef WLCRC_SERVE_CLIENT_HH
#define WLCRC_SERVE_CLIENT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/conn_server.hh"
#include "serve/protocol.hh"
#include "trace/transaction.hh"

namespace wlcrc::serve
{

/** One blocking connection to a wlcrc_serve instance. */
class Client
{
  public:
    Client() = default;

    /** Closes the socket if still open. */
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Connect to @p host:@p port (numeric IPv4 host).
     * @throws std::runtime_error on connect failure.
     */
    void
    connect(const std::string &host, uint16_t port)
    {
        fd_ = net::connectTcp(host, port);
    }

    /** Take ownership of the TCP socket @p fd, connected or about
     *  to be (tests that create the socket before connecting). */
    void
    adopt(int fd)
    {
        close();
        fd_ = fd;
    }

    /** Send Hello with @p streamId. @throws on send failure. */
    void hello(uint32_t streamId);

    /**
     * Send @p n transactions as one Write frame. With @p wantAck the
     * frame carries the ack flag; follow with readAck().
     * @throws std::runtime_error on send failure, a server Error
     *         frame, or a disconnect.
     */
    void sendWrites(const trace::WriteTransaction *txns,
                    std::size_t n, bool wantAck);

    /**
     * Read the Ack for an acked Write frame.
     * @return the server's admitted-write count for this connection.
     */
    uint64_t readAck();

    /** StatsReq -> StatsReply round trip. @return the JSON text. */
    std::string stats();

    /**
     * Bye -> ByeAck round trip (the server drains this connection's
     * queued writes first). @return the summary JSON. The server
     * closes the connection after the ByeAck.
     */
    std::string bye();

    /** Test hook: push raw bytes down the socket. */
    void sendRaw(const void *data, std::size_t n);

    /** Close the socket now (mid-stream disconnect, tests). */
    void close();

    int fd() const { return fd_; }

  private:
    /**
     * Read one frame, expecting @p want. A server Error frame (or a
     * recv failure) becomes a std::runtime_error whose message
     * carries the error name.
     */
    void expectFrame(FrameType want, FrameHeader &h);

    int fd_ = -1;
    std::vector<uint8_t> payload_;
    std::vector<uint8_t> writeBuf_;
};

} // namespace wlcrc::serve

#endif // WLCRC_SERVE_CLIENT_HH

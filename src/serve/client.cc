#include "client.hh"

#include <stdexcept>

#include <unistd.h>

#include "tracefile/format.hh"

namespace wlcrc::serve
{

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Client::hello(uint32_t streamId)
{
    uint8_t payload[8];
    tracefile::putLe32(payload, protocolVersion);
    tracefile::putLe32(payload + 4, streamId);
    if (!sendFrame(fd_, FrameType::Hello, 0, payload,
                   sizeof payload))
        throw std::runtime_error("hello: disconnect");
}

void
Client::sendWrites(const trace::WriteTransaction *txns,
                   std::size_t n, bool wantAck)
{
    writeBuf_.resize(n * tracefile::recordBytes);
    for (std::size_t i = 0; i < n; ++i)
        tracefile::encodeRecord(
            writeBuf_.data() + i * tracefile::recordBytes, txns[i]);
    if (!sendFrame(fd_, FrameType::Write,
                   wantAck ? flagAck : uint8_t{0}, writeBuf_.data(),
                   writeBuf_.size()))
        throw std::runtime_error("write: disconnect");
}

void
Client::expectFrame(FrameType want, FrameHeader &h)
{
    const RecvStatus st = recvFrame(fd_, h, payload_);
    if (st == RecvStatus::CleanEof)
        throw std::runtime_error("server closed the connection");
    if (st != RecvStatus::Ok)
        throw std::runtime_error(std::string("recv failed: ") +
                                 recvErrorName(st));
    if (static_cast<FrameType>(h.type) == FrameType::Error)
        throw std::runtime_error(
            "server error: " +
            std::string(payload_.begin(), payload_.end()));
    if (static_cast<FrameType>(h.type) != want)
        throw std::runtime_error("unexpected frame type " +
                                 std::to_string(h.type));
}

uint64_t
Client::readAck()
{
    FrameHeader h;
    expectFrame(FrameType::Ack, h);
    if (payload_.size() != 8)
        throw std::runtime_error("malformed ack");
    return tracefile::getLe64(payload_.data());
}

std::string
Client::stats()
{
    if (!sendFrame(fd_, FrameType::StatsReq, 0, nullptr, 0))
        throw std::runtime_error("stats: disconnect");
    FrameHeader h;
    expectFrame(FrameType::StatsReply, h);
    return std::string(payload_.begin(), payload_.end());
}

std::string
Client::bye()
{
    if (!sendFrame(fd_, FrameType::Bye, 0, nullptr, 0))
        throw std::runtime_error("bye: disconnect");
    FrameHeader h;
    expectFrame(FrameType::ByeAck, h);
    return std::string(payload_.begin(), payload_.end());
}

void
Client::sendRaw(const void *data, std::size_t n)
{
    if (!writeAll(fd_, data, n))
        throw std::runtime_error("raw send failed");
}

} // namespace wlcrc::serve

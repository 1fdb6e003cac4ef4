#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rdfsum::server {

StatusOr<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                  uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    Status s = Status::IOError("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(errno));
    ::close(fd);
    return s;
  }
  // Small request frames must not wait out Nagle against delayed ACKs.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  Frame hello;
  Status rs = ReadFrame(fd, &hello);
  if (!rs.ok()) {
    ::close(fd);
    return rs;
  }
  if (hello.type == kFrameDone) {
    // The server refused admission before HELLO; surface its verdict.
    DoneReply done;
    ::close(fd);
    if (!DecodeDone(hello.payload, &done)) {
      return Status::Corruption("malformed DONE reply at connect");
    }
    Status refused = StatusFromWire(done.code, done.message);
    if (refused.ok()) {
      return Status::Corruption("server closed connection with OK DONE");
    }
    return refused;
  }
  if (hello.type != kFrameHello) {
    ::close(fd);
    return Status::Corruption("expected HELLO, got frame type " +
                              std::to_string(hello.type));
  }
  PayloadReader r(hello.payload);
  char magic[4];
  uint16_t major = 0, minor = 0;
  uint64_t epoch = 0;
  bool ok = true;
  for (char& c : magic) {
    uint8_t b = 0;
    ok = ok && r.ReadU8(&b);
    c = static_cast<char>(b);
  }
  ok = ok && r.ReadU16(&major) && r.ReadU16(&minor) && r.ReadU64(&epoch) &&
       r.AtEnd();
  if (!ok || std::memcmp(magic, kHelloMagic, sizeof magic) != 0) {
    ::close(fd);
    return Status::Corruption("malformed HELLO payload");
  }
  if (major != kProtocolMajor) {
    ::close(fd);
    return Status::NotSupported("server speaks protocol major " +
                                std::to_string(major) + ", client speaks " +
                                std::to_string(kProtocolMajor));
  }
  std::unique_ptr<Client> client(new Client(fd));
  client->server_epoch_ = epoch;
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::DrainToDone(const RowFn* on_row, std::string* text,
                           uint64_t* rows_out) {
  uint64_t rows = 0;
  for (;;) {
    Frame frame;
    Status rs = ReadFrame(fd_, &frame);
    if (!rs.ok()) return rs;
    switch (frame.type) {
      case kFrameRow: {
        std::vector<std::string> cols;
        if (!DecodeRow(frame.payload, &cols)) {
          return Status::Corruption("malformed ROW frame");
        }
        ++rows;
        if (on_row && !(*on_row)(cols) && !cancel_sent_) {
          cancel_sent_ = true;
          RDFSUM_RETURN_IF_ERROR(WriteFrame(fd_, kFrameCancel, {}));
        }
        continue;
      }
      case kFrameText:
        if (text) text->append(frame.payload);
        continue;
      case kFrameDone: {
        DoneReply done;
        if (!DecodeDone(frame.payload, &done)) {
          return Status::Corruption("malformed DONE payload");
        }
        if (rows_out) *rows_out = rows;
        return StatusFromWire(done.code, done.message);
      }
      default:
        return Status::Corruption("unexpected frame type " +
                                  std::to_string(frame.type) +
                                  " in response stream");
    }
  }
}

Status Client::Query(const std::string& text, QueryRequest req,
                     const RowFn& on_row, uint64_t* rows_out) {
  req.query = text;
  cancel_sent_ = false;
  RDFSUM_RETURN_IF_ERROR(
      WriteFrame(fd_, kFrameQuery, EncodeQueryRequest(req)));
  return DrainToDone(&on_row, nullptr, rows_out);
}

StatusOr<std::string> Client::Stats() {
  RDFSUM_RETURN_IF_ERROR(WriteFrame(fd_, kFrameStats, {}));
  std::string text;
  Status s = DrainToDone(nullptr, &text, nullptr);
  if (!s.ok()) return s;
  return text;
}

Status Client::Reload(const std::string& path) {
  std::string payload;
  AppendLenBytes(&payload, path);
  RDFSUM_RETURN_IF_ERROR(WriteFrame(fd_, kFrameReload, payload));
  return DrainToDone(nullptr, nullptr, nullptr);
}

Status Client::Shutdown() {
  RDFSUM_RETURN_IF_ERROR(WriteFrame(fd_, kFrameShutdown, {}));
  return DrainToDone(nullptr, nullptr, nullptr);
}

}  // namespace rdfsum::server

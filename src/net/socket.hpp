// Thin RAII wrappers over POSIX TCP sockets.  Everything the server and
// client need and nothing more: listen on host:port (port 0 = ephemeral,
// resolved port readable back), accept, connect, nonblocking toggles, and
// EINTR-safe read/write that report would-block distinctly from EOF/error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace obx::net {

/// Bytes the server loop and the client ask for per socket read: a 64-lane
/// batch of responses for a program of a few hundred words arrives in one
/// or two reads instead of dozens.  The server keeps one such buffer for its
/// loop thread, the client one on the reading thread's stack: per thread,
/// never per connection.
inline constexpr std::size_t kReadChunkBytes = std::size_t{64} << 10;

/// Result of a nonblocking read or write attempt.
struct IoResult {
  enum class Kind {
    kOk,          ///< `bytes` transferred (possibly short)
    kWouldBlock,  ///< no progress possible right now; retry after poll
    kClosed,      ///< peer closed (read side only)
    kError,       ///< hard socket error; the connection is dead
  };
  Kind kind = Kind::kOk;
  std::size_t bytes = 0;
};

/// Owns one file descriptor; move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();
  /// Releases ownership without closing.
  int release() { return std::exchange(fd_, -1); }

  bool set_nonblocking(bool on);
  bool set_nodelay(bool on);

  IoResult read_some(void* data, std::size_t bytes);
  IoResult write_some(const void* data, std::size_t bytes);

  /// Blocking connect to an IPv4 host:port.  Returns an invalid Socket and
  /// fills `error` on failure.
  static Socket connect(const std::string& host, std::uint16_t port,
                        std::string* error = nullptr);

 private:
  int fd_ = -1;
};

/// A bound+listening TCP socket.  port() reports the kernel-assigned port
/// when the requested one was 0, which is how tests grab an ephemeral port
/// without races.
class ListenSocket {
 public:
  ListenSocket() = default;

  bool valid() const { return socket_.valid(); }
  int fd() const { return socket_.fd(); }
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return host_; }

  /// Accepts one pending connection; invalid Socket when none is ready or
  /// on transient error (the listener itself stays usable).
  Socket accept();

  static ListenSocket listen(const std::string& host, std::uint16_t port,
                             int backlog, std::string* error = nullptr);

 private:
  Socket socket_;
  std::string host_;
  std::uint16_t port_ = 0;
};

/// A pipe used to wake a poll() loop from another thread; the read end is
/// polled, the write end is signalled.  Nonblocking on both ends.
class WakePipe {
 public:
  WakePipe();
  bool valid() const { return read_.valid() && write_.valid(); }
  int read_fd() const { return read_.fd(); }
  /// Write one byte; coalesces (a full pipe already means "wake up").
  void notify();
  /// Drain all pending wake bytes.
  void drain();

 private:
  Socket read_;
  Socket write_;
};

}  // namespace obx::net

#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

namespace weaver {

namespace {

Status Errno(const char* what) {
  return Status::Unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

}  // namespace

std::unique_ptr<SocketTransport> SocketTransport::Adopt(int fd) {
  // A peer that disappears mid-write must surface as an EPIPE error, not
  // kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  return std::unique_ptr<SocketTransport>(new SocketTransport(fd));
}

Result<std::pair<std::unique_ptr<SocketTransport>,
                 std::unique_ptr<SocketTransport>>>
SocketTransport::CreatePair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Errno("socketpair");
  }
  return std::make_pair(Adopt(fds[0]), Adopt(fds[1]));
}

Result<int> SocketTransport::ListenLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    const Status st = Errno("bind/listen");
    ::close(fd);
    return st;
  }
  return fd;
}

Result<std::uint16_t> SocketTransport::ListenPort(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::AcceptOne(
    int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return Errno("accept");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Adopt(fd);
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::ConnectLoopback(
    std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = Errno("connect");
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Adopt(fd);
}

SocketTransport::~SocketTransport() {
  Stop();
  if (receiver_.joinable()) receiver_.join();
  if (writer_.joinable()) writer_.join();
  ::close(fd_);
}

void SocketTransport::WaitWritable() {
  MutexLock lk(send_mu_);
  while (!closed_.load() && !writer_failed_ &&
         send_queue_bytes_ >= kSendQueueHighWater) {
    send_cv_.wait(lk.native());
  }
}

Status SocketTransport::SendBytes(std::string_view bytes, bool never_block) {
  MutexLock lk(send_mu_);
  if (closed_.load() || writer_failed_) {
    return Status::Unavailable("transport is stopped");
  }
  if (!writer_.joinable()) {
    writer_ = std::thread([this] { WriterLoop(); });
  }
  if (!never_block) {
    // Flow control for bulk producers: wait for the writer to drain the
    // backlog below high water. Never-block traffic skips this so event
    // loops (shard hop forwarding, hub routing) cannot wedge on a
    // congested link. (Senders that hold ordering locks of their own use
    // WaitWritable() before locking + never_block here instead.)
    while (!closed_.load() && !writer_failed_ &&
           send_queue_bytes_ >= kSendQueueHighWater) {
      send_cv_.wait(lk.native());
    }
    if (closed_.load() || writer_failed_) {
      return Status::Unavailable("transport is stopped");
    }
  }
  send_queue_.emplace_back(bytes);
  send_queue_bytes_ += bytes.size();
  send_cv_.notify_all();
  return Status::Ok();
}

void SocketTransport::WriterLoop() {
  MutexLock lk(send_mu_);
  while (true) {
    while (!closed_.load() && send_queue_.empty()) {
      send_cv_.wait(lk.native());
    }
    if (send_queue_.empty()) return;  // closed and drained
    std::string frame = std::move(send_queue_.front());
    send_queue_.pop_front();
    send_queue_bytes_ -= frame.size();
    send_cv_.notify_all();  // space freed: wake blocked senders
    lk.Unlock();
    const char* p = frame.data();
    std::size_t left = frame.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        closed_.store(true);
        lk.Lock();
        writer_failed_ = true;
        send_queue_.clear();
        send_queue_bytes_ = 0;
        send_cv_.notify_all();
        return;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    lk.Lock();
  }
}

void SocketTransport::StartReceiver(
    std::function<void(const char* data, std::size_t n)> on_bytes) {
  receiver_ = std::thread([this, on_bytes = std::move(on_bytes)] {
    char buf[64 * 1024];
    while (true) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF (peer closed / shutdown) or error
      on_bytes(buf, static_cast<std::size_t>(n));
    }
    closed_.store(true);
    {
      // The link is dead in both directions: wake the writer thread (so
      // it can exit and be joined) and any sender parked on flow
      // control. Stop() would do the same, but EOF can arrive first and
      // Stop() no-ops once closed_ is set.
      MutexLock lk(send_mu_);
      send_cv_.notify_all();
    }
    on_bytes(nullptr, 0);  // end-of-stream marker
  });
}

void SocketTransport::Stop() {
  if (closed_.exchange(true)) return;
  // Unblocks both the receiver's read() and any peer blocked writing.
  ::shutdown(fd_, SHUT_RDWR);
  // Wake the writer thread and any sender parked on flow control.
  MutexLock lk(send_mu_);
  send_cv_.notify_all();
}

}  // namespace weaver

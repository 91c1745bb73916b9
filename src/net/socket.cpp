#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "math/check.hpp"

namespace hbrp::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  HBRP_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "socket: cannot set O_NONBLOCK");
}

void set_nodelay(int fd) {
  // Verdict frames are tiny; without TCP_NODELAY Nagle would batch them
  // behind the next chunk and wreck the latency figures for nothing.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

IoResult send_some(int fd, std::span<const unsigned char> bytes) {
  IoResult r;
  if (bytes.empty()) return r;
  const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  if (n > 0) {
    r.n = static_cast<std::size_t>(n);
    return r;
  }
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    r.would_block = true;
    return r;
  }
  r.error = true;
  return r;
}

IoResult recv_some(int fd, std::span<unsigned char> into) {
  IoResult r;
  if (into.empty()) return r;
  const ssize_t n = ::recv(fd, into.data(), into.size(), 0);
  if (n > 0) {
    r.n = static_cast<std::size_t>(n);
    return r;
  }
  if (n == 0) {
    r.eof = true;
    return r;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    r.would_block = true;
    return r;
  }
  r.error = true;
  return r;
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HBRP_REQUIRE(fd >= 0, "socket: cannot create listener");
  listener_ = Socket(fd);
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  HBRP_REQUIRE(
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
      "socket: cannot bind 127.0.0.1:" + std::to_string(port));
  HBRP_REQUIRE(::listen(fd, backlog) == 0, "socket: listen failed");
  set_nonblocking(fd);

  socklen_t len = sizeof(addr);
  HBRP_REQUIRE(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "socket: getsockname failed");
  port_ = ntohs(addr.sin_port);
}

Socket TcpListener::accept() {
  const int fd = ::accept(listener_.fd(), nullptr, nullptr);
  if (fd < 0) return Socket();
  Socket s(fd);
  set_nonblocking(fd);
  set_nodelay(fd);
  return s;
}

Socket connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket();
  Socket s(fd);
  set_nonblocking(fd);
  set_nodelay(fd);
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0)
    return s;  // loopback can complete synchronously
  if (errno == EINPROGRESS || errno == EINTR) return s;
  return Socket();
}

bool connect_finished(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return false;
  return err == 0;
}

EventPoller::EventPoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  HBRP_REQUIRE(epfd_ >= 0, "socket: cannot create epoll instance");
}

EventPoller::~EventPoller() { ::close(epfd_); }

void EventPoller::watch(int fd, bool read, bool write) {
  if (fd < 0) return;
  if (!read && !write) {
    unwatch(fd);
    return;
  }
  const auto it = interest_.find(fd);
  if (it != interest_.end() && it->second.read == read &&
      it->second.write == write)
    return;  // steady state: no syscall, no map churn
  epoll_event ev{};
  ev.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  const int op = it == interest_.end() ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
  if (::epoll_ctl(epfd_, op, fd, &ev) != 0 && errno == ENOENT)
    (void)::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  interest_[fd] = Interest{read, write};
}

void EventPoller::unwatch(int fd) {
  if (fd < 0) return;
  const auto it = interest_.find(fd);
  if (it == interest_.end()) return;
  (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  interest_.erase(it);
}

std::size_t EventPoller::wait(int timeout_ms, std::vector<PollEvent>& out) {
  out.clear();
  // 256 events per wait is plenty: level-triggered epoll re-reports
  // anything not consumed on the next wait, so a burst larger than the
  // batch just takes extra rounds, never loses readiness.
  epoll_event evs[256];
  const int n = ::epoll_wait(epfd_, evs, 256, timeout_ms);
  for (int i = 0; i < n; ++i) {
    PollEvent e;
    e.fd = evs[i].data.fd;
    e.readable = (evs[i].events & EPOLLIN) != 0;
    e.writable = (evs[i].events & EPOLLOUT) != 0;
    e.broken = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(e);
  }
  return out.size();
}

WakePipe::WakePipe() {
  int fds[2] = {-1, -1};
  HBRP_REQUIRE(::pipe(fds) == 0, "socket: cannot create wake pipe");
  read_end_ = Socket(fds[0]);
  write_end_ = Socket(fds[1]);
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
}

void WakePipe::notify() {
  const unsigned char token = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)::write(write_end_.fd(), &token, 1);
}

void WakePipe::consume() {
  unsigned char sink[256];
  while (::read(read_end_.fd(), sink, sizeof sink) > 0) {
  }
}

}  // namespace hbrp::net

#include "serve/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>

namespace urank {
namespace serve {

namespace {

// Writes all of `data` (handling short writes); false on error.
bool WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TcpServer::TcpServer(Server* server) : server_(server) {}

TcpServer::~TcpServer() { Shutdown(); }

bool TcpServer::Start(int port, std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void TcpServer::Shutdown() {
  // Idempotent: after the first call the joinable() check and the emptied
  // connection lists make every step below a no-op.
  stop_.store(true);
  if (accept_thread_.joinable()) {
    // Closing the listen socket wakes the poll in AcceptLoop.
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    accept_thread_.join();
  }
  // Every listed fd is still open: a connection thread unlists its fd
  // and closes it under the same lock.
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conns.splice(conns.end(), conns_);
  }
  for (Connection& conn : conns) {
    if (conn.thread.joinable()) conn.thread.join();
  }
}

void TcpServer::ReapFinished() {
  std::list<Connection> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      const auto next = std::next(it);
      if (it->finished) finished.splice(finished.end(), conns_, it);
      it = next;
    }
  }
  for (Connection& conn : finished) conn.thread.join();
}

void TcpServer::AcceptLoop() {
  while (!stop_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (stop_.load()) return;
    ReapFinished();
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket closed
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.push_back(fd);
    Connection& conn = conns_.emplace_back();
    conn.thread = std::thread([this, fd, &conn] { ConnectionLoop(fd, &conn); });
  }
}

void TcpServer::ConnectionLoop(int fd, Connection* conn) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  for (;;) {
    // Serve every complete line already buffered.
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = nl + 1;
      if (line.empty()) continue;  // blank keep-alive lines are ignored
      std::string response = server_->HandleLine(line);
      response.push_back('\n');
      if (!WriteAll(fd, response)) {
        open = false;
        break;
      }
    }
    if (!open) break;
    buffer.erase(0, start);

    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed (or Shutdown shut the socket down)
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
  ::close(fd);
  conn->finished = true;
}

}  // namespace serve
}  // namespace urank

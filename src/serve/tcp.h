// Loopback TCP transport for urankd.
//
// TcpServer accepts connections on 127.0.0.1 and runs one thread per
// connection, each reading newline-delimited request lines and writing
// back the Server's newline-delimited responses. The transport is a thin
// shell: every protocol decision — parsing, admission, shedding,
// deadlines — lives in serve/server.h, which is exactly what lets the
// --stdin mode and the tests exercise the same code path without a
// socket.
//
// Binding is loopback-only by design: urankd has no authentication, so
// it must not listen on external interfaces. Port 0 requests an
// ephemeral port; port() reports what the kernel assigned (the test and
// benchmark harnesses depend on this).
//
// Each connection thread closes its own fd and marks itself finished
// under the connection lock, and the accept loop joins finished threads as
// it goes, so a long-lived server holds one thread per *open* connection,
// and Shutdown() only ever shuts down fds that are still open (never a
// closed fd whose number the process may have reused).
//
// Shutdown(): stops accepting, shuts down every open connection and
// joins all transport threads. It does NOT drain the Server — callers
// sequence transport shutdown and Server::Drain explicitly (urankd does
// transport first, so no new work arrives while in-flight jobs finish).

#ifndef URANK_SERVE_TCP_H_
#define URANK_SERVE_TCP_H_

#include <atomic>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/server.h"

namespace urank {
namespace serve {

class TcpServer {
 public:
  // Serves `server` (not owned; must outlive this transport).
  explicit TcpServer(Server* server);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept loop.
  // Returns false with a description in `*error` on bind/listen failure.
  bool Start(int port, std::string* error);

  // The bound port; 0 before a successful Start.
  int port() const { return port_; }

  // Stops accepting, closes every connection, joins all threads.
  // Idempotent.
  void Shutdown();

 private:
  // One accepted connection. `finished` is set under conn_mu_ as the
  // connection thread's last locked step, after it closed its fd.
  struct Connection {
    std::thread thread;
    bool finished = false;
  };

  void AcceptLoop();
  void ConnectionLoop(int fd, Connection* conn);
  // Joins (outside the lock) every connection thread that has finished.
  void ReapFinished();

  Server* const server_;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<int> conn_fds_;      // open connection fds
  std::list<Connection> conns_;    // stable addresses: threads hold them
};

}  // namespace serve
}  // namespace urank

#endif  // URANK_SERVE_TCP_H_

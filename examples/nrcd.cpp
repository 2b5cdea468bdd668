// nrcd — collapse-as-a-service: a line-protocol TCP front end over the
// process-global plan cache.
//
//   nrcd [--port=7711] [--snapshot=PATH] [--once]
//
// Clients send newline-framed requests (serve/protocol.hpp):
//
//   describe N=2000\n
//   for (i = 0; i < N - 1; i++)\n
//     for (j = i + 1; j < N; j++) {\n
//     }\n
//   .\n
//
// and receive length-prefixed responses whose header attributes the
// request's cost (outcome=hit|symbolic|cold, build_ns).  Every plan
// flows through nrc::plan_cache(), keyed on the request's text and
// parameters (a hit is never parsed), so concurrent clients share
// builds: the future-based miss path guarantees one build per key with
// hits never queueing behind a cold bind.
//
// --snapshot=PATH warm-starts the cache from PATH at boot (if the file
// exists; one it cannot read is skipped with a note) and rewrites PATH
// on SIGINT/SIGTERM, so a restarted server answers the requests it
// served before as full hits.  The signal stops the accept loop at
// once: the handler is installed without SA_RESTART, connection threads
// block the two signals so the accepting thread is the one interrupted,
// and the handler also shuts the listener down, which fails an accept()
// entered just after the loop checked for the stop.  --once serves a
// single connection then exits (used for smoke testing:
// `nrcd --once & ... | nc localhost 7711`).
//
// Transport is deliberately boring: one POSIX listening socket, one
// detached thread per connection, a streambuf over the fd so the
// protocol module reads the socket like any istream.  Each reply goes
// out whole through one send(MSG_NOSIGNAL) loop, so a large describe
// leaves as few segments as the kernel allows instead of one per 4 KB
// buffer, and a client that hangs up with replies unread fails the
// write on its own connection, which is then dropped, instead of
// raising SIGPIPE and taking the whole server down.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <streambuf>
#include <string>
#include <thread>

#include "nrcollapse.hpp"

using namespace nrc;

namespace {

/// Minimal read-side streambuf over a connected socket fd, so the
/// transport-free protocol functions read it as an istream.
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) { setg(rbuf_, rbuf_, rbuf_); }

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, rbuf_, sizeof(rbuf_));
    if (n <= 0) return traits_type::eof();
    setg(rbuf_, rbuf_, rbuf_ + n);
    return traits_type::to_int_type(rbuf_[0]);
  }

 private:
  int fd_;
  char rbuf_[4096];
};

/// Write all of `reply`; false when the client hung up.
bool send_all(int fd, const std::string& reply) {
  const char* p = reply.data();
  size_t left = reply.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n <= 0) return false;
    p += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

std::atomic<bool> g_stop{false};
std::atomic<int> g_listener{-1};
void on_signal(int) {
  g_stop.store(true);
  if (const int fd = g_listener.load(); fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void serve_connection(int fd) {
  FdStreambuf buf(fd);
  std::istream in(&buf);
  serve::Request req;
  for (;;) {
    try {
      if (!serve::read_request(in, req)) break;  // client closed
    } catch (const Error& e) {
      serve::Response bad{false, std::string(e.what()) + "\n", "-", 0};
      send_all(fd, serve::format_response(bad));
      break;  // framing is gone; drop the connection
    }
    const serve::Response resp = serve::handle_request(plan_cache(), req);
    if (!send_all(fd, serve::format_response(resp)) || req.verb == "quit") break;
  }
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  int port = 7711;
  std::string snapshot_path;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0)
      port = std::atoi(arg.c_str() + 7);
    else if (arg.rfind("--snapshot=", 0) == 0)
      snapshot_path = arg.substr(11);
    else if (arg == "--once")
      once = true;
    else {
      std::fprintf(stderr, "usage: nrcd [--port=N] [--snapshot=PATH] [--once]\n");
      return 2;
    }
  }

  if (!snapshot_path.empty()) {
    std::ifstream snap(snapshot_path);
    if (snap) {
      try {
        const size_t n = plan_cache().warm_start(snap);
        std::fprintf(stderr, "nrcd: warm-started %zu plans from %s\n", n,
                     snapshot_path.c_str());
      } catch (const Error& e) {
        std::fprintf(stderr, "nrcd: warm start failed (%s); starting cold\n", e.what());
      }
    }
    struct sigaction sa {};
    sa.sa_handler = on_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: the signal interrupts accept()
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
  }

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("nrcd: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::perror("nrcd: bind");
    return 1;
  }
  if (::listen(listener, 64) < 0) {
    std::perror("nrcd: listen");
    return 1;
  }
  g_listener.store(listener);
  std::fprintf(stderr, "nrcd: listening on 127.0.0.1:%d\n", port);

  while (!g_stop.load()) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (g_stop.load()) break;
      continue;
    }
    const int nd = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof(nd));
    if (once) {
      serve_connection(fd);
      break;
    }
    // The thread inherits the blocked mask; this thread restores its own.
    sigset_t stop, old;
    sigemptyset(&stop);
    sigaddset(&stop, SIGINT);
    sigaddset(&stop, SIGTERM);
    ::pthread_sigmask(SIG_BLOCK, &stop, &old);
    std::thread(serve_connection, fd).detach();
    ::pthread_sigmask(SIG_SETMASK, &old, nullptr);
  }
  g_listener.store(-1);
  ::close(listener);

  if (!snapshot_path.empty()) {
    std::ofstream snap(snapshot_path, std::ios::trunc);
    const size_t n = plan_cache().snapshot(snap);
    std::fprintf(stderr, "nrcd: snapshotted %zu plans to %s\n", n, snapshot_path.c_str());
  }
  std::fprintf(stderr, "%s\n", plan_cache().stats_line().c_str());
  return 0;
}

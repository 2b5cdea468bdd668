// nrcd must survive a client that hangs up with its replies unread.
//
// The client sends a burst of 400 describe requests for a triangular
// N=300 nest and closes the socket without reading a byte.  nrcd's
// replies to it then fail to write; that must drop only that
// connection (a SIGPIPE killed the whole server, and every other
// client's connection with it).  A fresh connection must still get an
// answer to `stats`.
//
// Usage: nrc_nrcd_hangup_test <path to example_nrcd>
#include <arpa/inet.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

extern char** environ;

namespace {

const char* g_nrcd_path = nullptr;

sockaddr_in loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return addr;
}

/// A loopback port nothing listens on right now (the kernel's pick for
/// a bind to port 0).
int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr = loopback(0);
  socklen_t len = sizeof(addr);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
  ::close(fd);
  return -1;
}

bool send_all(int fd, const std::string& s) {
  for (size_t off = 0; off < s.size();) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// example_nrcd on a free port; killed and reaped on scope exit.
struct Nrcd {
  pid_t pid = -1;
  int port = -1;
  int status = 0;

  /// Start the server, on a new port when the chosen one was taken in
  /// between.  False when no attempt came up listening.
  bool start() {
    for (int attempt = 0; attempt < 5; ++attempt) {
      port = free_port();
      std::string port_arg = "--port=" + std::to_string(port);
      char* argv[] = {const_cast<char*>(g_nrcd_path), port_arg.data(), nullptr};
      if (::posix_spawn(&pid, g_nrcd_path, nullptr, nullptr, argv, environ) != 0) return false;
      for (int wait = 0; wait < 200 && alive(); ++wait) {
        if (const int fd = connect_to(port); fd >= 0) {
          ::close(fd);
          return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
      stop();
    }
    return false;
  }

  bool alive() {
    if (pid > 0 && ::waitpid(pid, &status, WNOHANG) != 0) pid = -1;
    return pid > 0;
  }

  void stop() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  ~Nrcd() { stop(); }
};

TEST(NrcdHangup, ClientClosingWithRepliesUnreadDropsOnlyItsConnection) {
  Nrcd nrcd;
  ASSERT_TRUE(nrcd.start()) << "example_nrcd did not come up on a loopback port";

  std::string burst;
  for (int q = 0; q < 400; ++q)
    burst += "describe N=300\nfor (i = 0; i < N; i++)\n  for (j = i; j < N; j++) {\n  }\n.\n";
  const int hangup = connect_to(nrcd.port);
  ASSERT_GE(hangup, 0);
  ASSERT_TRUE(send_all(hangup, burst));
  ::close(hangup);

  // The server answers the burst into the closed connection within
  // milliseconds; give it a generous second to fail (or not).
  for (int wait = 0; wait < 40 && nrcd.alive(); ++wait)
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  const int sig = WIFSIGNALED(nrcd.status) ? WTERMSIG(nrcd.status) : 0;
  ASSERT_TRUE(nrcd.alive()) << "nrcd ended (wait status " << nrcd.status << ", signal "
                            << sig << ") after a client hung up with replies unread";

  const int fd = connect_to(nrcd.port);
  ASSERT_GE(fd, 0) << "nrcd stopped accepting connections";
  ASSERT_TRUE(send_all(fd, "stats\n"));
  char reply[3] = {};
  EXPECT_EQ(::recv(fd, reply, sizeof(reply), MSG_WAITALL), 3);
  EXPECT_EQ(std::string(reply, 3), "ok ");
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <path to example_nrcd>\n", argv[0]);
    return 2;
  }
  g_nrcd_path = argv[1];
  return RUN_ALL_TESTS();
}

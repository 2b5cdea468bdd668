// nrcd's transport under a client hang-up and a stop signal.
//
// A client sends a burst of 400 describe requests for a triangular
// N=300 nest and closes the socket without reading a byte.  nrcd's
// replies to it then fail to write; that must drop only that
// connection (a SIGPIPE killed the whole server, and every other
// client's connection with it).  A fresh connection must still get an
// answer to `stats`.
//
// Started with --snapshot, nrcd must exit promptly on SIGTERM, with no
// further connection needed to wake its accept(), and leave the
// snapshot of the plans it served.
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
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

  /// Start the server with `extra` arguments, on a new port when the
  /// chosen one was taken in between.  False when no attempt came up
  /// listening.
  bool start(std::vector<std::string> extra = {}) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      port = free_port();
      std::string port_arg = "--port=" + std::to_string(port);
      std::vector<char*> argv = {const_cast<char*>(g_nrcd_path), port_arg.data()};
      for (std::string& a : extra) argv.push_back(a.data());
      argv.push_back(nullptr);
      if (::posix_spawn(&pid, g_nrcd_path, nullptr, nullptr, argv.data(), environ) != 0)
        return false;
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

/// One whole reply ("ok <n> ...\n" plus n payload bytes), or "" when the
/// connection ends first.
std::string read_reply(int fd) {
  std::string header;
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') header += c;
  std::istringstream fields(header);
  std::string status;
  size_t n = 0;
  if (!(fields >> status >> n)) return "";
  std::string payload(n, '\0');
  if (n > 0 && ::recv(fd, payload.data(), n, MSG_WAITALL) != static_cast<ssize_t>(n)) return "";
  return header + "\n" + payload;
}

TEST(NrcdSnapshot, SigtermExitsPromptlyAndKeepsTheSnapshot) {
  const std::filesystem::path snap = std::filesystem::temp_directory_path() /
                                     ("nrcd_snapshot_test_" + std::to_string(::getpid()));
  std::filesystem::remove(snap);
  Nrcd nrcd;
  ASSERT_TRUE(nrcd.start({"--snapshot=" + snap.string()}))
      << "example_nrcd did not come up on a loopback port";

  const int fd = connect_to(nrcd.port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "describe N=300\nfor (i = 0; i < N; i++)\n"
                           "  for (j = i; j < N; j++) { /* body */; }\n.\n"));
  const std::string reply = read_reply(fd);
  ASSERT_EQ(reply.rfind("ok ", 0), 0u) << "describe was not answered: " << reply;
  ::close(fd);

  ASSERT_EQ(::kill(nrcd.pid, SIGTERM), 0);
  for (int wait = 0; wait < 80 && nrcd.alive(); ++wait)
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  ASSERT_FALSE(nrcd.alive()) << "nrcd still running 2 s after SIGTERM";
  EXPECT_TRUE(WIFEXITED(nrcd.status) && WEXITSTATUS(nrcd.status) == 0)
      << "wait status " << nrcd.status;

  std::ifstream in(snap);
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  std::filesystem::remove(snap);
  EXPECT_EQ(text.rfind("nrcsnap 2\n", 0), 0u) << text;
  size_t keys = 0;
  for (size_t at = text.find("\nkey "); at != std::string::npos; at = text.find("\nkey ", at + 1))
    ++keys;
  EXPECT_EQ(keys, 1u) << text;
  EXPECT_NE(text.find("for (j = i; j < N; j++)"), std::string::npos) << text;
  EXPECT_NE(text.find("nrcplan"), std::string::npos) << text;
  EXPECT_NE(text.find("endplan"), std::string::npos) << text;
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

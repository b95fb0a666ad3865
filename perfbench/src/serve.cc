#include "serve.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

ServeConnection::ServeConnection(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw sys_error("socket");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const auto err = sys_error("connect " + path);
    ::close(fd_);
    throw err;
  }
}

ServeConnection::~ServeConnection() { ::close(fd_); }

void ServeConnection::send_line(const std::string& line) {
  const std::string msg = line + "\n";
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw sys_error("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string ServeConnection::read_line() {
  for (;;) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw sys_error("recv");
    }
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

ServeDaemon::ServeDaemon(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) throw sys_error("fork");
  if (pid_ == 0) {
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
}

ServeDaemon::~ServeDaemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

void ServeDaemon::wait_ready(const std::string& socket_path, double timeout_s) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("recon serve exited during start-up");
    }
    try {
      ServeConnection c(socket_path);
      c.send_line("PROBLEMS");
      const std::string reply = c.read_line();
      if (reply.rfind("OK", 0) != 0) {
        throw std::runtime_error("recon serve: unexpected reply '" + reply + "'");
      }
      return;
    } catch (const std::runtime_error&) {
      if (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count() > timeout_s) {
        throw;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double ServeDaemon::shutdown(const std::string& socket_path) {
  {
    ServeConnection c(socket_path);
    c.send_line("SHUTDOWN");
    const std::string reply = c.read_line();
    if (reply != "OK bye") throw std::runtime_error("SHUTDOWN replied '" + reply + "'");
  }
  int status = 0;
  rusage ru{};
  if (::wait4(pid_, &status, 0, &ru) != pid_) throw sys_error("wait4");
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("recon serve exited with status " + std::to_string(status));
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench

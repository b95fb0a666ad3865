// Client side of the `recon serve --socket` line protocol, and the daemon's
// process lifetime (spawn, first reply, shutdown, peak RSS).
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// One protocol connection: lines out, one reply line back per request.
class ServeConnection {
 public:
  /// Connects to the AF_UNIX socket at `path`; throws std::runtime_error.
  explicit ServeConnection(const std::string& path);
  ~ServeConnection();
  ServeConnection(const ServeConnection&) = delete;
  ServeConnection& operator=(const ServeConnection&) = delete;

  void send_line(const std::string& line);
  /// Blocks for the next reply line (without its newline).
  std::string read_line();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A `recon serve` child process. The destructor shuts it down if it still
/// runs, so an exception never leaves the daemon behind.
class ServeDaemon {
 public:
  /// Starts `argv[0]` with `argv`; its stdout goes to this process's stderr.
  explicit ServeDaemon(const std::vector<std::string>& argv);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Polls connect() on `socket_path` until the daemon answers `PROBLEMS`;
  /// throws if it exits or takes longer than `timeout_s`.
  void wait_ready(const std::string& socket_path, double timeout_s);

  /// Sends SHUTDOWN, reaps the process, and returns its peak RSS in MB.
  /// Throws when the daemon does not exit cleanly.
  double shutdown(const std::string& socket_path);

 private:
  pid_t pid_ = -1;
};

}  // namespace perfbench

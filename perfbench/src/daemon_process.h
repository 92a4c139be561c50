// A ziggy_daemon child process: started with a port file, stopped with
// SIGTERM (SIGKILL after a grace period), always waited for. The child
// is also killed if the benchmark itself dies, so no run leaves a daemon
// behind.

#ifndef PERFBENCH_DAEMON_PROCESS_H_
#define PERFBENCH_DAEMON_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { (void)Stop(); }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  DaemonProcess(DaemonProcess&&) = delete;
  DaemonProcess& operator=(DaemonProcess&&) = delete;

  /// Starts `binary` with `args` plus --port 0 --port-file, logging to
  /// `log_path`, and blocks until it is listening.
  ziggy::Status Start(const std::string& binary,
                      const std::vector<std::string>& args,
                      const std::string& work_dir,
                      const std::string& log_path);

  /// SIGTERM, then waits for the exit (SIGKILL after 30 s). Returns an
  /// error when the daemon did not exit cleanly with status 0.
  ziggy::Status Stop();

  bool running() const { return pid_ > 0; }
  uint16_t port() const { return port_; }
  /// Peak resident set size (VmHWM) in KiB; 0 when unavailable.
  uint64_t PeakRssKib() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_PROCESS_H_

#include "daemon_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Waits up to `limit` for `pid`; true once it was reaped.
bool WaitFor(pid_t pid, std::chrono::milliseconds limit, int* status) {
  const auto deadline = Clock::now() + limit;
  for (;;) {
    const pid_t done = waitpid(pid, status, WNOHANG);
    if (done == pid) return true;
    if (done < 0) return true;  // not our child any more
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

ziggy::Status DaemonProcess::Start(const std::string& binary,
                                   const std::vector<std::string>& args,
                                   const std::string& work_dir,
                                   const std::string& log_path) {
  if (running()) return ziggy::Status::Internal("daemon already running");
  const std::string port_file = work_dir + "/daemon.port";
  std::filesystem::remove(port_file);
  std::vector<std::string> argv_strings = {binary, "--port", "0",
                                           "--port-file", port_file};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return ziggy::Status::IOError("cannot open " + log_path);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: die with the benchmark, log to the file, become the daemon.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(log_fd);
  if (pid < 0) return ziggy::Status::IOError("fork failed");
  pid_ = pid;

  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (Clock::now() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return ziggy::Status::IOError("daemon exited during start-up; see " +
                                    log_path);
    }
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0 && port < 65536) {
      port_ = static_cast<uint16_t>(port);
      return ziggy::Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  (void)Stop();
  return ziggy::Status::IOError("daemon did not start listening");
}

ziggy::Status DaemonProcess::Stop() {
  if (!running()) return ziggy::Status::OK();
  const pid_t pid = pid_;
  pid_ = -1;
  int status = 0;
  kill(pid, SIGTERM);
  if (!WaitFor(pid, std::chrono::seconds(30), &status)) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return ziggy::Status::IOError("daemon ignored SIGTERM; killed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return ziggy::Status::IOError("daemon exited uncleanly (status " +
                                  std::to_string(status) + ")");
  }
  return ziggy::Status::OK();
}

uint64_t DaemonProcess::PeakRssKib() const {
  if (!running()) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      uint64_t kib = 0;
      fields >> kib;
      return kib;
    }
  }
  return 0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench

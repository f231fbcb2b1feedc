#include "util/io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/fault_injection.h"

namespace gsb::util::io {

namespace {

/// Injected EINTR storms must terminate even under a hostile schedule:
/// after this many consecutive injected interrupts a wrapper stops
/// consulting the shim for the current call and issues the real syscall.
constexpr int kMaxInjectedRetries = 256;

/// Applies the shim's verdict for one attempt of a byte-count op.
/// Returns true when the caller should retry (injected EINTR), and
/// leaves `n` truncated for short-I/O injection.
bool injected_fault(fault::Op op, std::size_t& n, ssize_t& result,
                    int attempts) noexcept {
  if (!fault::enabled() || attempts >= kMaxInjectedRetries) return false;
  const auto decision = fault::decide(op, n);
  switch (decision.kind) {
    case fault::Decision::Kind::kError:
      errno = decision.injected_errno;
      result = -1;
      return false;
    case fault::Decision::Kind::kEintr:
      return true;
    case fault::Decision::Kind::kShort:
      n = decision.count;
      return false;
    case fault::Decision::Kind::kNone:
      return false;
  }
  return false;
}

struct FsyncHistograms {
  obs::Histogram gsbg;
  obs::Histogram gsbc;
  obs::Histogram gsbci;
  obs::Histogram other;
};

const FsyncHistograms& fsync_histograms() {
  static const FsyncHistograms histograms = [] {
    auto& registry = obs::MetricsRegistry::global();
    const char* name = "gsb_fsync_microseconds";
    const char* help =
        "Commit fsync latency (file + directory) per artifact stage.";
    FsyncHistograms h;
    h.gsbg = registry.histogram(name, help, "stage=\"gsbg\"");
    h.gsbc = registry.histogram(name, help, "stage=\"gsbc\"");
    h.gsbci = registry.histogram(name, help, "stage=\"gsbci\"");
    h.other = registry.histogram(name, help, "stage=\"other\"");
    return h;
  }();
  return histograms;
}

const obs::Histogram& fsync_histogram_for(const std::string& path) {
  const auto& h = fsync_histograms();
  if (path.ends_with(".gsbci")) return h.gsbci;
  if (path.ends_with(".gsbc")) return h.gsbc;
  if (path.ends_with(".gsbg")) return h.gsbg;
  return h.other;
}

std::string parent_dir(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  return parent.empty() ? std::string(".") : parent.string();
}

}  // namespace

ssize_t read_some(int fd, void* buf, std::size_t n) noexcept {
  for (int attempts = 0;; ++attempts) {
    std::size_t want = n;
    ssize_t injected = 0;
    if (injected_fault(fault::Op::kRead, want, injected, attempts)) continue;
    if (injected < 0) return injected;
    const ssize_t got = ::read(fd, buf, want);
    if (got >= 0 || errno != EINTR) return got;
  }
}

ssize_t recv_some(int fd, void* buf, std::size_t n, int flags) noexcept {
  for (int attempts = 0;; ++attempts) {
    std::size_t want = n;
    ssize_t injected = 0;
    if (injected_fault(fault::Op::kRecv, want, injected, attempts)) continue;
    if (injected < 0) return injected;
    const ssize_t got = ::recv(fd, buf, want, flags);
    if (got >= 0 || errno != EINTR) return got;
  }
}

ssize_t send_some(int fd, const void* buf, std::size_t n,
                  int flags) noexcept {
  for (int attempts = 0;; ++attempts) {
    std::size_t want = n;
    ssize_t injected = 0;
    if (injected_fault(fault::Op::kSend, want, injected, attempts)) continue;
    if (injected < 0) return injected;
    const ssize_t sent = ::send(fd, buf, want, flags);
    if (sent >= 0 || errno != EINTR) return sent;
  }
}

bool read_full(int fd, void* buf, std::size_t n) noexcept {
  obs::Span span(obs::TimelineEventKind::kIo, "read", n);
  auto* cursor = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = read_some(fd, cursor, n);
    if (got < 0) return false;
    if (got == 0) {
      errno = EIO;  // premature EOF: the file is shorter than promised
      return false;
    }
    cursor += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t n) noexcept {
  obs::Span span(obs::TimelineEventKind::kIo, "write", n);
  const auto* cursor = static_cast<const char*>(buf);
  while (n > 0) {
    std::size_t want = n;
    ssize_t injected = 0;
    int attempts = 0;
    while (injected_fault(fault::Op::kWrite, want, injected, attempts)) {
      ++attempts;
      want = n;
    }
    if (injected < 0) return false;
    const ssize_t wrote = ::write(fd, cursor, want);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

bool pwrite_full(int fd, const void* buf, std::size_t n,
                 std::uint64_t offset) noexcept {
  const auto* cursor = static_cast<const char*>(buf);
  while (n > 0) {
    std::size_t want = n;
    ssize_t injected = 0;
    int attempts = 0;
    while (injected_fault(fault::Op::kWrite, want, injected, attempts)) {
      ++attempts;
      want = n;
    }
    if (injected < 0) return false;
    const ssize_t wrote =
        ::pwrite(fd, cursor, want, static_cast<off_t>(offset));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += wrote;
    offset += static_cast<std::uint64_t>(wrote);
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

int accept_nonblock(int listen_fd) noexcept {
#if defined(__linux__)
  for (int attempts = 0;; ++attempts) {
    std::size_t unused = 0;
    ssize_t injected = 0;
    if (injected_fault(fault::Op::kAccept, unused, injected, attempts)) {
      continue;
    }
    if (injected < 0) return -1;
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0 || errno != EINTR) return fd;
  }
#else
  (void)listen_fd;
  errno = ENOSYS;
  return -1;
#endif
}

int connect_with_timeout(int fd, const struct sockaddr* addr,
                         socklen_t addr_len,
                         std::size_t timeout_ms) noexcept {
  for (int attempts = 0;; ++attempts) {
    std::size_t unused = 0;
    ssize_t injected = 0;
    if (injected_fault(fault::Op::kConnect, unused, injected, attempts)) {
      continue;
    }
    if (injected < 0) return -1;
    break;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc;
  do {
    rc = ::connect(fd, addr, addr_len);
  } while (rc != 0 && errno == EINTR);
  if (rc == 0) return 0;
  if (errno != EINPROGRESS) return -1;
  struct pollfd poller{fd, POLLOUT, 0};
  const int wait_ms = timeout_ms == 0 ? -1 : static_cast<int>(timeout_ms);
  int ready;
  do {
    ready = ::poll(&poller, 1, wait_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready == 0) {
    errno = ETIMEDOUT;
    return -1;
  }
  if (ready < 0) return -1;
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return -1;
  if (err != 0) {
    errno = err;
    return -1;
  }
  return 0;
}

int open_for_read(const char* path) noexcept {
  for (int attempts = 0;; ++attempts) {
    std::size_t unused = 0;
    ssize_t injected = 0;
    if (injected_fault(fault::Op::kOpen, unused, injected, attempts)) {
      continue;
    }
    if (injected < 0) return -1;
    const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

int fsync_fd(int fd) noexcept {
  obs::Span span(obs::TimelineEventKind::kIo, "fsync");
  for (int attempts = 0;; ++attempts) {
    std::size_t unused = 0;
    ssize_t injected = 0;
    if (injected_fault(fault::Op::kFsync, unused, injected, attempts)) {
      continue;
    }
    if (injected < 0) return -1;
    const int rc = ::fsync(fd);
    if (rc == 0 || errno != EINTR) return rc;
  }
}

int rename_path(const char* from, const char* to) noexcept {
  for (int attempts = 0;; ++attempts) {
    std::size_t unused = 0;
    ssize_t injected = 0;
    if (injected_fault(fault::Op::kRename, unused, injected, attempts)) {
      continue;
    }
    if (injected < 0) return -1;
    const int rc = ::rename(from, to);
    if (rc == 0 || errno != EINTR) return rc;
  }
}

void* mmap_read(std::size_t bytes, int fd) noexcept {
  if (fault::enabled()) {
    const auto decision = fault::decide(fault::Op::kMmap, bytes);
    if (decision.kind == fault::Decision::Kind::kError ||
        decision.kind == fault::Decision::Kind::kEintr) {
      errno = decision.kind == fault::Decision::Kind::kEintr
                  ? EINTR
                  : decision.injected_errno;
      return MAP_FAILED;
    }
  }
  return ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
}

// -- FileWriter --------------------------------------------------------------

namespace {

constexpr std::size_t kWriterBuffer = std::size_t{1} << 18;  // 256 KiB

int open_for_write(const char* path) noexcept {
  for (int attempts = 0;; ++attempts) {
    std::size_t unused = 0;
    ssize_t injected = 0;
    if (injected_fault(fault::Op::kOpen, unused, injected, attempts)) {
      continue;
    }
    if (injected < 0) return -1;
    const int fd =
        ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

}  // namespace

std::string temp_path_for(const std::string& path) {
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
}

FileWriter::FileWriter(std::string path)
    : path_(std::move(path)), temp_(temp_path_for(path_)) {
  buffer_.reserve(kWriterBuffer);
  fd_ = open_for_write(temp_.c_str());
  if (fd_ < 0) {
    throw std::runtime_error("io: cannot open '" + temp_ +
                             "' for writing: " + std::strerror(errno));
  }
}

FileWriter::~FileWriter() {
  if (!committed_) discard();
}

void FileWriter::discard() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!committed_) ::unlink(temp_.c_str());
}

void FileWriter::fail(const std::string& what) {
  const int err = errno;
  discard();
  throw std::runtime_error("io: " + what + " for '" + path_ +
                           "': " + std::strerror(err));
}

void FileWriter::write(const void* data, std::size_t n) {
  if (fd_ < 0) fail("write after close");
  const auto* cursor = static_cast<const char*>(data);
  while (n > 0) {
    const std::size_t room = kWriterBuffer - buffer_.size();
    const std::size_t take = std::min(n, room);
    buffer_.insert(buffer_.end(), cursor, cursor + take);
    cursor += take;
    n -= take;
    position_ += take;
    if (buffer_.size() == kWriterBuffer) flush_buffer();
  }
}

void FileWriter::flush_buffer() {
  if (buffer_.empty()) return;
  if (!write_full(fd_, buffer_.data(), buffer_.size())) fail("write failed");
  buffer_.clear();
}

void FileWriter::write_at(std::uint64_t offset, const void* data,
                          std::size_t n) {
  if (fd_ < 0) fail("write after close");
  flush_buffer();
  if (!pwrite_full(fd_, data, n, offset)) fail("header patch failed");
}

void FileWriter::commit() {
  if (fd_ < 0) fail("commit after close");
  flush_buffer();
  obs::Span span(obs::TimelineEventKind::kIo, "commit", 0,
                 &fsync_histogram_for(path_));
  if (fsync_fd(fd_) != 0) fail("fsync failed");
  if (::close(fd_) != 0) {
    fd_ = -1;
    fail("close failed");
  }
  fd_ = -1;
  // Durability of the rename itself: the directory entry must be on
  // disk before the artifact is considered published.
  const std::string dir = parent_dir(path_);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (dir_fd < 0) fail("cannot open directory '" + dir + "'");
  if (rename_path(temp_.c_str(), path_.c_str()) != 0) {
    ::close(dir_fd);
    fail("rename failed");
  }
  committed_ = true;  // the artifact is in place; temp no longer exists
  const bool dir_synced = fsync_fd(dir_fd) == 0;
  ::close(dir_fd);
  if (!dir_synced) {
    throw std::runtime_error("io: directory fsync failed for '" + path_ +
                             "': " + std::strerror(errno));
  }
}

// -- stale temp scan ---------------------------------------------------------

std::vector<StaleTemp> find_stale_temps(const std::string& dir) {
  std::vector<StaleTemp> stale;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const auto marker = name.rfind(".tmp.");
    if (marker == std::string::npos) continue;
    const std::string digits = name.substr(marker + 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    long pid = 0;
    try {
      pid = std::stol(digits);
    } catch (const std::exception&) {
      continue;
    }
    if (pid <= 0) continue;
    if (::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH) {
      stale.push_back({entry.path().string(), pid});
    }
  }
  std::sort(stale.begin(), stale.end(),
            [](const StaleTemp& a, const StaleTemp& b) {
              return a.path < b.path;
            });
  return stale;
}

}  // namespace gsb::util::io

/// \file serve_probe.cpp
/// The serve probe of every traced run: the shipped `rdns_tool serve` binary
/// (answer cache, guard, always-on introspection, 2 workers) driven over
/// loopback by a single-process open-loop generator — one sender, one
/// receiver — that walks a ZMap-style permutation of the whole announced
/// space, so the 121 MB answer cache is read cold, as under a real
/// full-space scan. A nominal-rate phase is followed by a rate ladder.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <netinet/in.h>
#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <mutex>
#include <regex>
#include <sstream>
#include <thread>

#include "scan/permutation.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr double kNominalRate = 50'000;
constexpr double kNominalS = 2;
constexpr double kRungS = 1.5;
constexpr double kLadderStep = 25'000;
constexpr double kLadderCap = 300'000;
/// A reply later than this after its due time counts as missing. Keeps the
/// 16-bit transaction-id ring unambiguous up to the ladder cap.
constexpr std::int64_t kDeadlineNs = 200'000'000;
/// Service level a ladder rung must meet.
constexpr double kSloP99Us = 1000;
constexpr double kSloFailedFrac = 0.001;
/// A window is on schedule when 99% of its queries leave within this.
constexpr double kGenLateP99Us = 200;
constexpr std::size_t kReferenceSample = 256;
constexpr double kWarmupS = 1.5;
constexpr std::size_t kBatch = 32;

// -- the server subprocess ------------------------------------------------------

/// `rdns_tool serve` as a child process with its stdout on a pipe.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (fd_ >= 0) ::close(fd_);
  }

  /// Fork/exec the server and wait for its banner. Throws on failure.
  void launch(const std::string& tool, const std::vector<std::string>& extra) {
    std::vector<std::string> argv_s{tool, "serve", "--threads", std::to_string(kPoolThreads),
                                    "--port", "0"};
    argv_s.insert(argv_s.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The server runs at its shipped defaults: no RDNS_* overrides leak in.
    std::vector<std::string> env_s;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "RDNS_", 5) != 0) env_s.emplace_back(*e);
    }
    std::vector<char*> envp;
    for (auto& e : env_s) envp.push_back(e.data());
    envp.push_back(nullptr);

    int pipe_fd[2];
    if (::pipe(pipe_fd) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(pipe_fd[1], STDOUT_FILENO);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      ::close(pipe_fd[0]);
      ::close(pipe_fd[1]);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(pipe_fd[1]);
    fd_ = pipe_fd[0];
    for (;;) {
      const auto line = read_line(120'000);
      if (!line) throw std::runtime_error("server exited before its banner");
      static const std::regex banner{R"(^serving on [0-9.]+:([0-9]+) )"};
      std::smatch m;
      if (std::regex_search(*line, m, banner)) {
        port_ = std::stoi(m[1].str());
        break;
      }
    }
    const auto cache_line = read_line(10'000);
    if (!cache_line || cache_line->rfind("answer cache: ", 0) != 0) {
      throw std::runtime_error("server banner lacks the answer cache line");
    }
  }

  /// SIGTERM, then collect everything the server printed until it exits.
  std::string stop() {
    ::kill(pid_, SIGTERM);
    std::string rest;
    while (const auto line = read_line(60'000)) rest += *line + "\n";
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("server did not exit cleanly on SIGTERM (status " +
                               std::to_string(status) + "): " + rest);
    }
    return rest;
  }

  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] int port() const noexcept { return port_; }

 private:
  /// One stdout line, or nullopt at EOF / after `timeout_ms`.
  std::optional<std::string> read_line(int timeout_ms) {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return std::nullopt;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int fd_ = -1;
  int port_ = 0;
  std::string buf_;
};

/// Summed receive-queue drops of every UDP socket bound to `port`.
std::uint64_t kernel_udp_drops(int port) {
  std::ifstream in{"/proc/net/udp"};
  std::string line;
  std::getline(in, line);  // header
  std::uint64_t drops = 0;
  while (std::getline(in, line)) {
    std::istringstream fields{line};
    std::string sl, local, remote, rest;
    fields >> sl >> local;
    const auto colon = local.find(':');
    if (colon == std::string::npos) continue;
    if (std::stoi(local.substr(colon + 1), nullptr, 16) != port) continue;
    std::string last;
    while (fields >> rest) last = rest;
    drops += std::stoull(last);
  }
  return drops;
}

std::uint64_t parse_count(const std::string& text, const std::string& pattern) {
  std::smatch m;
  if (!std::regex_search(text, m, std::regex{pattern})) {
    throw std::runtime_error("server summary lacks \"" + pattern + "\"");
  }
  std::string digits = m[1].str();
  digits.erase(std::remove(digits.begin(), digits.end(), ','), digits.end());
  return std::stoull(digits);
}

int connected_socket(int port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  const int buf = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(0x7f000001u);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  return fd;
}

// -- the open-loop generator ---------------------------------------------------------

/// What the receiver learns about one phase (guarded by Generator::mu_).
struct PhaseReplies {
  std::int64_t t0 = 0;
  std::uint64_t seq0 = 0;
  std::vector<std::uint8_t> answered;  ///< by seq - seq0
  std::vector<std::vector<double>> window_latency_us;
  std::uint64_t mismatched = 0;
};

/// One sender (the calling thread) and one receiver thread. Queries leave
/// from kSockets source ports, as a scanner's would, so the server's
/// SO_REUSEPORT workers share the load. Every query is timed from the
/// instant it was due, not from when it left.
class Generator {
 public:
  Generator(const QueryMix& mix, int port) : mix_(&mix), ring_(65536) {
    for (std::size_t i = 0; i < kSockets; ++i) fds_.push_back(connected_socket(port));
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;
  ~Generator() {
    stop();
    for (const int fd : fds_) ::close(fd);
  }

  void start() { receiver_ = std::thread([this] { receive_loop(); }); }
  void stop() {
    stop_.store(true);
    if (receiver_.joinable()) receiver_.join();
  }

  /// Offer `rate` queries/s for `seconds`, wait out the reply deadline and
  /// return the phase's figures.
  ServePhase run_phase(double rate, double seconds, int server_pid) {
    const std::uint64_t n = static_cast<std::uint64_t>(rate * seconds);
    const double interval_ns = 1e9 / rate;
    const std::int64_t t0 = now_ns() + 1'000'000;
    const auto due_of = [&](std::uint64_t i) {
      return t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    };
    const std::size_t windows =
        std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindowS + 0.5));
    const auto window_of = [&](std::int64_t due) {
      return std::min(windows - 1, static_cast<std::size_t>(static_cast<double>(due - t0) /
                                                            (kWindowS * 1e9)));
    };
    std::uint32_t phase = 0;
    {
      std::lock_guard lock{mu_};
      phase = static_cast<std::uint32_t>(replies_.size());
      PhaseReplies& r = replies_.emplace_back();
      r.t0 = t0;
      r.seq0 = next_seq_;
      r.answered.assign(n, 0);
      r.window_latency_us.resize(windows);
      for (auto& w : r.window_latency_us) w.reserve(static_cast<std::size_t>(rate * kWindowS));
    }
    ServePhase out;
    out.rate = rate;
    out.sent = n;
    const auto cpu0 = per_task_cpu_ns(server_pid);
    std::vector<std::int64_t> window_cpu{task_tree_cpu_ns(server_pid)};
    std::vector<std::vector<double>> late_us(windows);
    Batch batch;
    std::uint64_t i = 0;
    while (i < n) {
      std::int64_t now = now_ns();
      if (due_of(i) > now) {
        // Sleep through long gaps, spin through short ones.
        const std::int64_t wait = due_of(i) - now;
        if (wait > 200'000) {
          timespec ts{0, static_cast<long>(wait - 100'000)};
          ::nanosleep(&ts, nullptr);
        }
        continue;
      }
      while (window_of(due_of(i)) >= window_cpu.size()) {
        window_cpu.push_back(task_tree_cpu_ns(server_pid));
      }
      // Everything due, in runs that share a source socket and a window.
      const std::size_t socket = (next_seq_ / kRun) % kSockets;
      const std::size_t window = window_of(due_of(i));
      std::int64_t dues[kBatch];
      batch.clear();
      while (batch.size() < kBatch && i < n && due_of(i) <= now &&
             (next_seq_ / kRun) % kSockets == socket && window_of(due_of(i)) == window) {
        dues[batch.size()] = due_of(i);
        enqueue(batch, due_of(i), phase);
        ++i;
      }
      now = now_ns();
      send(socket, batch);
      for (std::size_t j = 0; j < batch.size(); ++j) {
        late_us[window].push_back(static_cast<double>(now - dues[j]) / 1e3);
      }
    }
    wait_until(due_of(n) + kDeadlineNs);
    window_cpu.push_back(task_tree_cpu_ns(server_pid));
    const auto cpu1 = per_task_cpu_ns(server_pid);
    out.wall_ns = static_cast<double>(now_ns() - t0);
    for (const auto& [tid, ns] : cpu1) {
      const auto it = cpu0.find(tid);
      out.task_cpu_ns[tid] = ns - (it == cpu0.end() ? 0 : it->second);
    }

    sent_total_ += n;

    // Medians over the windows in which the generator kept to schedule; a
    // window where it fell behind says nothing about the server.
    std::lock_guard lock{mu_};
    const PhaseReplies& r = replies_[phase];
    out.mismatched = r.mismatched;
    std::vector<double> p50s, p99s, lates, cpus, losses;
    std::size_t valid_windows = 0;
    for (std::size_t w = 0; w < windows; ++w) {
      const auto& lat = r.window_latency_us[w];
      const double window_sent = static_cast<double>(late_us[w].size());
      out.latency_samples += lat.size();
      if (window_sent == 0) continue;
      const double late = percentile(late_us[w], 99);
      lates.push_back(late);
      if (late > kGenLateP99Us) continue;
      ++valid_windows;
      p50s.push_back(percentile(lat, 50));
      p99s.push_back(percentile(lat, 99));
      losses.push_back(1.0 - static_cast<double>(lat.size()) / window_sent);
      if (w + 1 < window_cpu.size()) {
        cpus.push_back(static_cast<double>(window_cpu[w + 1] - window_cpu[w]) / window_sent);
      }
    }
    out.gen_late_p99_us = median(lates);
    out.gen_on_schedule = valid_windows * 2 > windows;
    out.p50_us = median(p50s);
    out.p99_us = median(p99s);
    out.cpu_ns_per_query = median(cpus);
    out.loss_frac = median(losses);
    return out;
  }

  [[nodiscard]] std::uint64_t sent_total() const noexcept { return sent_total_; }
  [[nodiscard]] std::uint64_t unmatched() const noexcept { return unmatched_.load(); }

 private:
  static constexpr std::size_t kSockets = 16;
  static constexpr std::uint64_t kRun = 8;  ///< consecutive queries per source socket
  static constexpr double kWindowS = 0.5;

  struct Slot {
    std::atomic<std::uint64_t> seq{~0ULL};  ///< owner of this txid
    std::atomic<std::int64_t> due{0};
    std::atomic<std::uint32_t> phase{0};
    std::atomic<bool> answered{false};
  };

  struct Batch {
    std::vector<std::uint8_t> bufs[kBatch];
    iovec iov[kBatch];
    mmsghdr msgs[kBatch];
    std::size_t count = 0;
    void clear() { count = 0; }
    [[nodiscard]] std::size_t size() const { return count; }
  };

  /// Claim the txid of the next query and add its datagram to `b`.
  void enqueue(Batch& b, std::int64_t due, std::uint32_t phase) {
    const std::uint64_t seq = next_seq_++;
    const auto txid = static_cast<std::uint16_t>(seq & 0xffff);
    Slot& slot = ring_[txid];
    slot.due.store(due, std::memory_order_relaxed);
    slot.phase.store(phase, std::memory_order_relaxed);
    slot.answered.store(false, std::memory_order_relaxed);
    slot.seq.store(seq, std::memory_order_release);
    const std::size_t k = b.count++;
    mix_->make(seq, txid, b.bufs[k]);
    b.iov[k] = iovec{b.bufs[k].data(), b.bufs[k].size()};
    b.msgs[k] = mmsghdr{};
    b.msgs[k].msg_hdr.msg_iov = &b.iov[k];
    b.msgs[k].msg_hdr.msg_iovlen = 1;
  }

  void send(std::size_t socket, Batch& b) {
    std::size_t sent = 0;
    while (sent < b.count) {
      const int r = ::sendmmsg(fds_[socket], b.msgs + sent, static_cast<unsigned>(b.count - sent), 0);
      if (r <= 0) {
        if (errno == EINTR || errno == EAGAIN || errno == ENOBUFS) continue;
        throw std::runtime_error("sendmmsg failed");
      }
      sent += static_cast<std::size_t>(r);
    }
  }

  static void wait_until(std::int64_t t) {
    while (now_ns() < t) {
      timespec ts{0, 10'000'000};
      ::nanosleep(&ts, nullptr);
    }
  }

  /// True when `reply` answers query `seq` sent with `txid`: QR set, txid
  /// and question section echoed.
  bool echoes(std::uint64_t seq, std::uint16_t txid, std::span<const std::uint8_t> reply,
              std::vector<std::uint8_t>& scratch) const {
    mix_->make(seq, txid, scratch);
    const std::size_t question_end = scratch.size() - (QueryMix::is_edns(seq) ? 11 : 0);
    if (reply.size() < question_end || (reply[2] & 0x80) == 0) return false;
    return std::memcmp(reply.data() + 12, scratch.data() + 12, question_end - 12) == 0;
  }

  void on_reply(std::span<const std::uint8_t> reply, std::int64_t now,
                std::vector<std::uint8_t>& scratch) {
    if (reply.size() < 12) {
      unmatched_.fetch_add(1);
      return;
    }
    const auto txid = static_cast<std::uint16_t>(reply[0] << 8 | reply[1]);
    Slot& slot = ring_[txid];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq == ~0ULL || !echoes(seq, txid, reply, scratch)) {
      // Not the current owner of the txid: fine only if it answers the
      // query a full txid cycle older, long past its deadline.
      if (seq == ~0ULL || seq < 65536 || !echoes(seq - 65536, txid, reply, scratch)) {
        unmatched_.fetch_add(1);
      }
      return;
    }
    PhaseReplies& r = replies_[slot.phase.load(std::memory_order_relaxed)];
    if (slot.answered.exchange(true)) {
      ++r.mismatched;  // a second reply to one datagram
      return;
    }
    const std::int64_t due = slot.due.load(std::memory_order_relaxed);
    if (now - due > kDeadlineNs) return;
    const std::uint64_t k = seq - r.seq0;
    if (k >= r.answered.size() || r.answered[k] != 0) return;
    r.answered[k] = 1;
    const auto w = std::min(r.window_latency_us.size() - 1,
                            static_cast<std::size_t>(static_cast<double>(due - r.t0) /
                                                     (kWindowS * 1e9)));
    r.window_latency_us[w].push_back(static_cast<double>(now - due) / 1e3);
  }

  void receive_loop() {
    const int ep = ::epoll_create1(0);
    for (std::size_t s = 0; s < fds_.size(); ++s) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = s;
      ::epoll_ctl(ep, EPOLL_CTL_ADD, fds_[s], &ev);
    }
    constexpr std::size_t kRecvBatch = 64;
    std::vector<std::array<std::uint8_t, 1500>> bufs(kRecvBatch);
    std::vector<iovec> iov(kRecvBatch);
    std::vector<mmsghdr> msgs(kRecvBatch);
    std::vector<std::uint8_t> scratch;
    epoll_event ready[kSockets];
    while (!stop_.load(std::memory_order_relaxed)) {
      const int n = ::epoll_wait(ep, ready, static_cast<int>(kSockets), 50);
      for (int e = 0; e < n; ++e) {
        const int fd = fds_[ready[e].data.u64];
        for (;;) {
          for (std::size_t j = 0; j < kRecvBatch; ++j) {
            iov[j] = iovec{bufs[j].data(), bufs[j].size()};
            msgs[j] = mmsghdr{};
            msgs[j].msg_hdr.msg_iov = &iov[j];
            msgs[j].msg_hdr.msg_iovlen = 1;
          }
          const int got = ::recvmmsg(fd, msgs.data(), kRecvBatch, MSG_DONTWAIT, nullptr);
          if (got <= 0) break;
          const std::int64_t now = now_ns();
          std::lock_guard lock{mu_};
          for (int j = 0; j < got; ++j) {
            const auto u = static_cast<std::size_t>(j);
            on_reply({bufs[u].data(), msgs[u].msg_len}, now, scratch);
          }
          if (static_cast<std::size_t>(got) < kRecvBatch) break;
        }
      }
    }
    ::close(ep);
  }

  const QueryMix* mix_;
  std::vector<int> fds_;
  std::vector<Slot> ring_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sent_total_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> unmatched_{0};
  std::mutex mu_;
  std::vector<PhaseReplies> replies_;  ///< guarded by mu_
  std::thread receiver_;  ///< last: joins before the members it reads die
};

/// Send the reference sample one query at a time on a fresh socket and
/// compare each reply with the in-process FrozenDnsView answer.
void check_reference(const QueryMix& mix, const rdns::sim::World& world, int port,
                     std::uint64_t seed, ServePass& pass) {
  const int fd = connected_socket(port);
  timeval tv{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  rdns::sim::FrozenDnsView view{world};
  std::vector<std::uint8_t> query;
  std::array<std::uint8_t, 1500> reply{};
  for (std::size_t k = 0; k < kReferenceSample; ++k) {
    // Plain PTR queries (no OPT, not CHAOS) spread over the permutation.
    std::uint64_t seq = rdns::util::mix64(seed ^ (k + 1)) % mix.space();
    seq -= seq % 16;
    seq += 2 * (k % 7);
    const auto txid = static_cast<std::uint16_t>(0x8000 | k);
    mix.make(seq, txid, query);
    const auto expected = view.exchange(query, world.now());
    ++pass.reference_checked;
    // Stop-and-wait with one retry: only a wrong reply, or none at all,
    // counts against the server.
    ssize_t n = -1;
    for (int attempt = 0; attempt < 2 && n < 0; ++attempt) {
      ++pass.gen_sent_total;
      if (::send(fd, query.data(), query.size(), 0) == static_cast<ssize_t>(query.size())) {
        n = ::recv(fd, reply.data(), reply.size(), 0);
      }
    }
    if (!expected || n != static_cast<ssize_t>(expected->size()) ||
        std::memcmp(reply.data(), expected->data(), expected->size()) != 0) {
      ++pass.reference_mismatched;
    }
  }
  ::close(fd);
}

}  // namespace

bool ServePhase::meets_slo() const {
  return gen_on_schedule && mismatched == 0 && p99_us <= kSloP99Us && loss_frac <= kSloFailedFrac;
}

QueryMix::QueryMix(const rdns::sim::World& world, std::uint64_t seed) {
  for (const auto& prefix : world.announced_prefixes()) {
    const std::uint64_t size = std::uint64_t{prefix.last().value()} - prefix.first().value() + 1;
    ranges_.emplace_back(prefix.first().value(), size);
    space_ += size;
  }
  rdns::scan::ScanPermutation perm{space_, seed};
  order_.reserve(space_);
  while (const auto v = perm.next()) order_.push_back(static_cast<std::uint32_t>(*v));
}

std::uint32_t QueryMix::address_of(std::uint64_t seq) const {
  std::uint64_t index = order_[seq % space_];
  for (const auto& [first, size] : ranges_) {
    if (index < size) return first + static_cast<std::uint32_t>(index);
    index -= size;
  }
  return 0;
}

void QueryMix::make(std::uint64_t seq, std::uint16_t txid, std::vector<std::uint8_t>& out) const {
  out.clear();
  const bool chaos = is_chaos(seq);
  const bool edns = is_edns(seq);
  const std::uint8_t header[12] = {static_cast<std::uint8_t>(txid >> 8),
                                   static_cast<std::uint8_t>(txid & 0xff),
                                   0x01, 0x00,  // RD
                                   0, 1, 0, 0, 0, 0, 0,
                                   static_cast<std::uint8_t>(edns ? 1 : 0)};
  out.insert(out.end(), header, header + 12);
  const auto label = [&out](std::string_view s) {
    out.push_back(static_cast<std::uint8_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  };
  std::uint16_t qtype = 12, qclass = 1;  // PTR IN
  if (chaos) {
    label("version");
    label("bind");
    qtype = 16;  // TXT
    qclass = 3;  // CH
  } else {
    const std::uint32_t a = address_of(seq);
    char octet[4];
    for (int i = 0; i < 4; ++i) {
      const int len = std::snprintf(octet, sizeof octet, "%u", (a >> (8 * i)) & 0xff);
      label(std::string_view{octet, static_cast<std::size_t>(len)});
    }
    label("in-addr");
    label("arpa");
  }
  out.push_back(0);
  out.push_back(static_cast<std::uint8_t>(qtype >> 8));
  out.push_back(static_cast<std::uint8_t>(qtype & 0xff));
  out.push_back(static_cast<std::uint8_t>(qclass >> 8));
  out.push_back(static_cast<std::uint8_t>(qclass & 0xff));
  if (edns) {
    // OPT RR: root owner, type 41, class = UDP payload size 1232, TTL 0, RDLEN 0.
    const std::uint8_t opt[11] = {0, 0, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 0};
    out.insert(out.end(), opt, opt + 11);
  }
}

ServePass serve_pass(const std::string& tool, const rdns::sim::World& reference,
                     std::uint64_t seed, const std::string& metrics_out) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const QueryMix mix{reference, seed};
  ServePass pass;
  ServerProcess server;
  server.launch(tool, {"--metrics-out", metrics_out});

  {
    Generator gen{mix, server.port()};
    gen.start();
    // Warm-up, not reported: the first second after the banner runs slow
    // while the freshly started server settles.
    (void)gen.run_phase(kNominalRate, kWarmupS, server.pid());
    pass.phases.push_back(gen.run_phase(kNominalRate, kNominalS, server.pid()));
    if (pass.phases.back().meets_slo()) pass.max_qps = kNominalRate;
    if (pass.max_qps > 0) {
      // Coarse ladder in kLadderStep rungs up to the first miss, then two
      // bisection rungs between the last pass and that miss.
      double step = kLadderStep;
      for (double rate = kNominalRate + step; rate <= kLadderCap; rate += step) {
        pass.phases.push_back(gen.run_phase(rate, kRungS, server.pid()));
        if (!pass.phases.back().meets_slo()) break;
        pass.max_qps = rate;
      }
      for (int refine = 0; refine < 2 && pass.max_qps + step <= kLadderCap; ++refine) {
        step /= 2;
        const double rate = pass.max_qps + step;
        pass.phases.push_back(gen.run_phase(rate, kRungS, server.pid()));
        if (pass.phases.back().meets_slo()) pass.max_qps = rate;
      }
    }
    gen.stop();
    pass.gen_sent_total = gen.sent_total();
    if (gen.unmatched() > 0) {
      pass.phases.front().mismatched += gen.unmatched();  // surfaces as a gate failure
    }
  }
  check_reference(mix, reference, server.port(), seed, pass);

  // Worker threads are the two busiest tasks under load; the introspection
  // aggregator is the last thread the server starts.
  {
    std::vector<std::pair<std::int64_t, int>> by_cpu;
    for (const auto& [tid, ns] : pass.phases.front().task_cpu_ns) by_cpu.emplace_back(ns, tid);
    std::sort(by_cpu.rbegin(), by_cpu.rend());
    for (std::size_t i = 0; i < by_cpu.size() && i < kPoolThreads; ++i) {
      pass.worker_tids.push_back(by_cpu[i].second);
    }
    for (const auto& [tid, ns] : pass.phases.front().task_cpu_ns) {
      if (std::find(pass.worker_tids.begin(), pass.worker_tids.end(), tid) ==
          pass.worker_tids.end()) {
        pass.aggregator_tid = std::max(pass.aggregator_tid, tid);
      }
    }
  }

  pass.kernel_drops = kernel_udp_drops(server.port());
  const std::string summary = server.stop();
  pass.received = parse_count(summary, R"(served ([\d,]+) datagrams)");
  pass.answered = parse_count(summary, R"(\(([\d,]+) answered)");
  pass.dropped = parse_count(summary, R"(answered, ([\d,]+) dropped)");
  pass.send_failures = parse_count(summary, R"(dropped, ([\d,]+) send failures)");
  pass.dropped_policy = parse_count(summary, R"(timeout-fault, ([\d,]+) policy)");
  pass.cache_hits = parse_count(summary, R"(cache: ([\d,]+) hits)");
  pass.cache_misses = parse_count(summary, R"(hits, ([\d,]+) misses)");
  {
    std::ifstream in{metrics_out};
    pass.metrics_json.assign(std::istreambuf_iterator<char>{in}, {});
  }

  // Reconcile the server's accounting with the generator's.
  std::ostringstream why;
  if (pass.received + pass.kernel_drops != pass.gen_sent_total) {
    why << "server received " << pass.received << " + " << pass.kernel_drops
        << " kernel drops != " << pass.gen_sent_total << " sent; ";
  }
  if (pass.answered + pass.dropped + pass.send_failures != pass.received) {
    why << "answered " << pass.answered << " + dropped " << pass.dropped << " + send failures "
        << pass.send_failures << " != received " << pass.received << "; ";
  }
  pass.accounting_error = why.str();
  pass.accounting_ok = pass.accounting_error.empty();
  return pass;
}

}  // namespace perfbench

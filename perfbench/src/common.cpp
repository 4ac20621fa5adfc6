#include "common.hpp"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "util/mem.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::map<int, std::int64_t> per_task_cpu_ns(int pid) {
  std::map<int, std::int64_t> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream in{dir + "/" + e->d_name + "/schedstat"};
    long long on_cpu = 0;
    if (in >> on_cpu) out[std::atoi(e->d_name)] = on_cpu;
  }
  closedir(d);
  return out;
}

std::int64_t task_tree_cpu_ns(int pid) {
  std::int64_t total = 0;
  for (const auto& [tid, ns] : per_task_cpu_ns(pid)) total += ns;
  return total;
}

std::uint64_t peak_rss_bytes(int pid) {
  if (pid == 0) return rdns::util::mem::peak_rss_bytes();
  std::ifstream in{"/proc/" + std::to_string(pid) + "/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::uint64_t>(std::strtoull(line.c_str() + 6, nullptr, 10)) * 1024;
    }
  }
  return 0;
}

std::uint64_t take_peak_rss() {
  const std::uint64_t peak = peak_rss_bytes();
  std::ofstream out{"/proc/self/clear_refs"};
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
  return peak;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

void Digest::update(std::string_view s) noexcept {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  bytes += s.size();
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void DigestSink::on_raw_rows(std::string_view bytes, std::uint64_t /*rows*/) {
  digest.update(bytes);
  if (digest.bytes - bytes.size() >= restart_at_bytes) suffix.update(bytes);
}

void DigestSink::on_row(const rdns::util::CivilDate& date, rdns::net::Ipv4Addr address,
                        const rdns::dns::DnsName& ptr) {
  line_.clear();
  rdns::scan::append_snapshot_row(line_, rdns::util::format_date(date), address,
                                  ptr.to_string());
  on_raw_rows(line_, 1);
}

void DigestSink::on_shard_degraded(const rdns::util::CivilDate& date, rdns::net::Ipv4Addr first,
                                   rdns::net::Ipv4Addr /*last*/) {
  ++degraded;
  line_.clear();
  rdns::scan::append_snapshot_row(line_, rdns::util::format_date(date), first,
                                  rdns::scan::kDegradedSentinel);
  on_raw_rows(line_, 1);
}

std::unique_ptr<rdns::sim::World> build_world() {
  rdns::core::WorldScale scale;
  scale.population = kWorldScale;
  return rdns::core::make_internet_world(kWorldSeed, kWorldOrgs, scale);
}

std::unique_ptr<rdns::sim::World> build_frozen_world() {
  auto world = build_world();
  world->start(rdns::util::add_days(kFreezeDate, -1), rdns::util::add_days(kFreezeDate, 1));
  world->run_until(rdns::util::to_sim_time(kFreezeDate) + kFreezeHour * rdns::util::kHour);
  return world;
}

double SpanRecorder::mean_ns(std::string_view name) const {
  double sum = 0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    sum += static_cast<double>(s.end_ns - s.start_ns);
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

double SpanRecorder::mean_self_ns(std::string_view name) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    sum += self[i];
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"query_id\":" << s.query_id << "}\n";
  }
  return static_cast<bool>(out);
}

void Result::fail_gate(const std::string& what) {
  correct = false;
  const auto it = notes.find("gate_failures");
  notes["gate_failures"] = it == notes.end() ? what : it->second + "; " + what;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench

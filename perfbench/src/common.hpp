#pragma once
/// \file common.hpp
/// Shared pieces of the benchmark program: clocks, process accounting,
/// the streaming CSV digest, the in-memory span recorder and the result
/// document every workload fills.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "scan/rdns_snapshot.hpp"
#include "sim/world.hpp"
#include "util/time.hpp"

namespace perfbench {

// -- the pinned input ---------------------------------------------------------

/// The tool's default world: every workload runs against it.
inline constexpr std::uint64_t kWorldSeed = 42;
inline constexpr int kWorldOrgs = 24;
inline constexpr double kWorldScale = 0.4;
/// The instant `rdns_tool serve` freezes at (and the wire sweep's hour).
inline constexpr int kFreezeHour = 14;
inline const rdns::util::CivilDate kFreezeDate{2021, 1, 2};
/// Every workload stays within this many threads of its own.
inline constexpr unsigned kPoolThreads = 2;

// -- clocks and process accounting -------------------------------------------

[[nodiscard]] std::int64_t now_ns() noexcept;          ///< steady clock
[[nodiscard]] std::int64_t process_cpu_ns() noexcept;  ///< this process, all threads
[[nodiscard]] inline double seconds_since(std::int64_t t0_ns) noexcept {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}
/// Summed on-CPU time of every task of `pid` (/proc/<pid>/task/*/schedstat).
[[nodiscard]] std::int64_t task_tree_cpu_ns(int pid);
/// Per-task on-CPU time of `pid`, keyed by tid.
[[nodiscard]] std::map<int, std::int64_t> per_task_cpu_ns(int pid);
/// VmHWM of `pid` (0 = this process) in bytes.
[[nodiscard]] std::uint64_t peak_rss_bytes(int pid = 0);
/// VmHWM of this process in bytes; then resets it to the current RSS
/// (/proc/self/clear_refs), so the next reading covers only what follows.
std::uint64_t take_peak_rss();

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]) of `v`; sorts a copy.
[[nodiscard]] double percentile(std::vector<double> v, double p);

// -- outputs ------------------------------------------------------------------

/// FNV-1a 64 over a byte stream.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t bytes = 0;
  void update(std::string_view s) noexcept;
  [[nodiscard]] std::string hex() const;
};

/// Sweep sink that digests the CSV byte stream instead of storing it; a
/// second digest covers the stream from byte `restart_at_bytes` on.
class DigestSink final : public rdns::scan::SnapshotSink {
 public:
  void on_row(const rdns::util::CivilDate& date, rdns::net::Ipv4Addr address,
              const rdns::dns::DnsName& ptr) override;
  void on_shard_degraded(const rdns::util::CivilDate& date, rdns::net::Ipv4Addr first,
                         rdns::net::Ipv4Addr last) override;
  [[nodiscard]] bool wants_raw_rows() const noexcept override { return true; }
  void on_raw_rows(std::string_view bytes, std::uint64_t rows) override;

  Digest digest;
  Digest suffix;
  std::uint64_t restart_at_bytes = ~0ULL;
  std::uint64_t degraded = 0;

 private:
  std::string line_;
};

/// A world built the way `rdns_tool sweep`/`serve` build theirs.
[[nodiscard]] std::unique_ptr<rdns::sim::World> build_world();
/// build_world() + start() around kFreezeDate + run_until(14:00): the
/// frozen world `rdns_tool serve` answers from.
[[nodiscard]] std::unique_ptr<rdns::sim::World> build_frozen_world();

// -- tracing ------------------------------------------------------------------

/// One recorded span. `parent` indexes the recorder's span vector (-1 =
/// root); spans of one query share `query_id`.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint32_t query_id;
};

/// Spans kept in memory while the traced run works, written out at the end.
class SpanRecorder {
 public:
  std::int32_t open(const char* name, std::int32_t parent, std::uint32_t query_id) {
    spans_.push_back(Span{name, now_ns(), 0, parent, query_id});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  /// Record an already-timed interval.
  std::int32_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int32_t parent, std::uint32_t query_id) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, query_id});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Mean duration (ns) of the spans named `name`; 0 when none.
  [[nodiscard]] double mean_ns(std::string_view name) const;
  /// Mean self time (ns): duration minus the summed durations of its
  /// children. Replayed children run after their parent on the same input
  /// and stand for the parent's inner work.
  [[nodiscard]] double mean_self_ns(std::string_view name) const;
  /// One JSON object per line: name, start_ns, end_ns, parent, query_id.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// -- the result document --------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Extra facts printed beside the result (provenance, sample counts,
  /// gate details); never part of the final line.
  std::map<std::string, std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) { notes[key] = value; }
  /// Record a failed correctness gate.
  void fail_gate(const std::string& what);
};

[[nodiscard]] std::string json_escape(std::string_view s);
[[nodiscard]] std::string fmt_double(double v);

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tool;     ///< path of the rdns_tool binary (the serve probe)
  std::string out_dir;  ///< where traces and per-run documents go
};

}  // namespace perfbench

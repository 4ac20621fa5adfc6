/// \file campaign.cpp
/// `campaign`: `rdns_tool sweep`'s default collection — daily bulk sweeps
/// over 2021-01-02..2021-02-06, each the union of a 14h and a 21h pass —
/// written to a CSV file, then `rdns_tool analyze`'s path over that file.
/// DHCP/DDNS mutate the zones every simulated day while the bulk passes
/// read them; there is no codec and no socket.

#include <cstdio>
#include <fstream>

#include "core/dynamicity.hpp"
#include "core/names.hpp"
#include "core/terms.hpp"
#include "layers.hpp"
#include "scan/csv_replay.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const rdns::util::CivilDate kFrom{2021, 1, 2};
const rdns::util::CivilDate kTo{2021, 2, 6};

// Pinned outputs of the default campaign, byte-identical at any thread
// count; `rdns_tool analyze` reports "dynamic /24s: 5 of 457; identified
// networks: 4".
constexpr std::uint64_t kSweeps = 36;
constexpr std::uint64_t kRows = 1'898'272;
constexpr std::size_t kDynamic = 5;
constexpr std::size_t kSeen = 457;
constexpr std::size_t kIdentified = 4;
constexpr const char* kDigest = "0d7f0d4b0be9a42b";  ///< FNV-1a 64 of the CSV
/// Timed world builds before every pass, besides the pass's own.
constexpr std::size_t kExtraBuildsPerPass = 4;

/// Forwards to the CSV sink and accumulates the time spent inside it.
class TimedSink final : public rdns::scan::SnapshotSink {
 public:
  explicit TimedSink(rdns::scan::SnapshotSink& inner) : inner_(&inner) {}
  void on_row(const rdns::util::CivilDate& d, rdns::net::Ipv4Addr a,
              const rdns::dns::DnsName& n) override {
    const std::int64_t t0 = now_ns();
    inner_->on_row(d, a, n);
    ns += now_ns() - t0;
  }
  void on_sweep_end(const rdns::util::CivilDate& d) override { inner_->on_sweep_end(d); }
  void on_shard_degraded(const rdns::util::CivilDate& d, rdns::net::Ipv4Addr f,
                         rdns::net::Ipv4Addr l) override {
    inner_->on_shard_degraded(d, f, l);
  }
  [[nodiscard]] bool wants_raw_rows() const noexcept override { return inner_->wants_raw_rows(); }
  void on_raw_rows(std::string_view bytes, std::uint64_t rows) override {
    const std::int64_t t0 = now_ns();
    inner_->on_raw_rows(bytes, rows);
    ns += now_ns() - t0;
  }
  std::int64_t ns = 0;

 private:
  rdns::scan::SnapshotSink* inner_;
};

/// The analyze path's two consumers behind one sink.
struct Tee final : rdns::scan::SnapshotSink {
  std::vector<rdns::scan::SnapshotSink*> sinks;
  void on_row(const rdns::util::CivilDate& d, rdns::net::Ipv4Addr a,
              const rdns::dns::DnsName& n) override {
    for (auto* s : sinks) s->on_row(d, a, n);
  }
  void on_sweep_end(const rdns::util::CivilDate& d) override {
    for (auto* s : sinks) s->on_sweep_end(d);
  }
};

std::string file_digest(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  Digest d;
  std::string buf(1 << 20, '\0');
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) || in.gcount() > 0) {
    d.update(std::string_view{buf.data(), static_cast<std::size_t>(in.gcount())});
  }
  return d.hex();
}

}  // namespace

CampaignPass campaign_pass(const rdns::util::CivilDate& from, const rdns::util::CivilDate& to,
                           const std::string& csv_path, rdns::util::ThreadPool& pool,
                           bool time_sink) {
  CampaignPass pass;
  std::int64_t t0 = now_ns();
  auto world = build_world();
  world->start(rdns::util::add_days(from, -1), rdns::util::add_days(to, 1));
  pass.setup_s = seconds_since(t0);

  const std::int64_t cpu0 = process_cpu_ns();
  {
    std::ofstream out{csv_path};
    if (!out) throw std::runtime_error("cannot write " + csv_path);
    rdns::scan::CsvSnapshotSink csv{out};
    TimedSink timed{csv};
    rdns::scan::SnapshotSink& sink = time_sink ? static_cast<rdns::scan::SnapshotSink&>(timed)
                                               : static_cast<rdns::scan::SnapshotSink&>(csv);
    rdns::scan::SweepDriver driver{*world, 14, 1, /*second_hour=*/21};
    t0 = now_ns();
    const auto stats = driver.run(from, to, sink);
    out.flush();
    pass.collect_s = seconds_since(t0);
    pass.sweeps = stats.sweeps;
    pass.rows = stats.total_rows;
    pass.csv_write_s = static_cast<double>(timed.ns) / 1e9;
  }
  world.reset();

  t0 = now_ns();
  {
    std::ifstream in{csv_path};
    rdns::core::DynamicityDetector detector;
    rdns::core::PtrCorpus corpus;
    Tee tee;
    tee.sinks = {&detector, &corpus};
    const auto replay = rdns::scan::replay_csv(in, tee, &pool);
    pass.replay_s = seconds_since(t0);
    pass.replay_rows = replay.rows;
    pass.replay_skipped = replay.skipped;

    std::int64_t t1 = now_ns();
    rdns::core::DynamicityConfig dyn;
    dyn.min_days_over = 5;  // `rdns_tool analyze` defaults
    const auto dynamicity = detector.analyze(dyn, &pool);
    pass.dynamicity_s = seconds_since(t1);

    t1 = now_ns();
    rdns::core::PtrCorpus dynamic_corpus;
    dynamic_corpus.restrict_to(dynamicity.dynamic_blocks());
    for (const auto& [hostname, entry] : corpus.entries()) dynamic_corpus.add_entry(entry);
    rdns::core::LeakConfig leak;
    leak.min_unique_names = 20;
    leak.min_ratio = 0.1;
    const auto leaks = rdns::core::identify_leaking_networks(dynamic_corpus, leak, &pool);
    pass.leaks_s = seconds_since(t1);

    pass.dynamic_blocks = dynamicity.dynamic_count;
    pass.blocks_seen = dynamicity.total_slash24_seen;
    pass.identified = leaks.identified.size();
  }
  pass.analyze_s = seconds_since(t0);
  pass.cpu_s = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
  pass.digest = file_digest(csv_path);
  return pass;
}

Result run_campaign(const RunArgs& args) {
  Result result;
  Observed seen;
  rdns::util::ThreadPool pool{kPoolThreads};
  // SweepDriver's bulk passes run on the global pool: pin it as well.
  rdns::util::ThreadPool::set_global_size(kPoolThreads);
  const std::string csv_path = args.out_dir + "/campaign.csv";
  const auto check = [&](const CampaignPass& p) {
    result.attempted += p.replay_rows + p.replay_skipped;
    result.failed += p.replay_skipped;
    if (p.sweeps != kSweeps || p.rows != kRows || p.replay_rows != kRows) {
      result.fail_gate("campaign wrote " + std::to_string(p.rows) + " rows over " +
                       std::to_string(p.sweeps) + " sweeps, replayed " +
                       std::to_string(p.replay_rows));
    }
    if (p.dynamic_blocks != kDynamic || p.blocks_seen != kSeen || p.identified != kIdentified) {
      result.fail_gate("analysis: " + std::to_string(p.dynamic_blocks) + " dynamic /24s of " +
                       std::to_string(p.blocks_seen) + ", " + std::to_string(p.identified) +
                       " networks");
    }
    if (p.digest != kDigest) result.fail_gate("CSV digest " + p.digest + " != " + kDigest);
  };
  const auto per_row = [](const CampaignPass& p, double seconds) {
    return seconds * 1e9 / static_cast<double>(p.rows);
  };
  // Set-up — world build and start — is timed in every pass and
  // kExtraBuildsPerPass more times before it, so its median spans the
  // whole run as the passes do.
  const auto run_pass = [&](bool traced, std::vector<double>& setups) {
    for (std::size_t i = 0; i < kExtraBuildsPerPass; ++i) {
      const std::int64_t t0 = now_ns();
      auto world = build_world();
      world->start(rdns::util::add_days(kFrom, -1), rdns::util::add_days(kTo, 1));
      setups.push_back(seconds_since(t0));
    }
    CampaignPass p = traced ? observe_campaign(kFrom, kTo, csv_path, pool, seen)
                            : campaign_pass(kFrom, kTo, csv_path, pool, false);
    setups.push_back(p.setup_s);
    check(p);
    return p;
  };

  // A traced run brackets its traced passes with an untraced pass before
  // and after, the baseline its tracing overhead is measured against.
  std::vector<CampaignPass> untraced;
  std::vector<double> untraced_setups;
  std::uint64_t untraced_peak_rss = 0;
  if (args.trace) {
    untraced.push_back(run_pass(false, untraced_setups));
    untraced_peak_rss = take_peak_rss();
    enable_program_tracing();
  }

  std::vector<CampaignPass> passes;
  std::vector<double> setups;
  const std::int64_t begin = now_ns();
  for (;;) {
    passes.push_back(run_pass(args.trace, setups));
    const double elapsed = seconds_since(begin);
    if (elapsed + elapsed / static_cast<double>(passes.size()) > args.seconds) break;
  }
  const std::uint64_t peak_rss = peak_rss_bytes();

  std::vector<double> wall_per_row, cpu_per_row;
  for (const CampaignPass& p : passes) {
    wall_per_row.push_back(per_row(p, p.collect_s + p.analyze_s));
    cpu_per_row.push_back(per_row(p, p.cpu_s));
  }
  const double wall_ns_per_op = median(wall_per_row);
  const double cpu_ns_per_op = median(cpu_per_row);

  if (args.trace) {
    set_program_tracing(false);
    untraced.push_back(run_pass(false, untraced_setups));
    set_program_tracing(true);
    double wall = 0, cpu = 0;
    std::string walls;
    for (const CampaignPass& p : untraced) {
      wall += per_row(p, p.collect_s + p.analyze_s) / 2;
      cpu += per_row(p, p.cpu_s) / 2;
      walls += fmt_double(per_row(p, p.collect_s + p.analyze_s)) + " ";
    }
    result.note("trace.untraced_pass_wall_ns_per_op", walls);
    set_trace_overhead(result, "setup_s", median(setups), median(untraced_setups));
    set_trace_overhead(result, "peak_rss_mb", static_cast<double>(peak_rss),
                       static_cast<double>(untraced_peak_rss));
    set_trace_overhead(result, "wall_ns_per_op", wall_ns_per_op, wall);
    set_trace_overhead(result, "cpu_ns_per_op", cpu_ns_per_op, cpu);
  }
  std::remove(csv_path.c_str());

  result.note("campaign.csv_digest", passes.front().digest);
  std::string per_pass;
  for (const double w : wall_per_row) per_pass += fmt_double(w) + " ";
  result.note("campaign.pass_wall_ns_per_op", per_pass);
  std::string per_setup;
  for (const double s : setups) per_setup += fmt_double(s) + " ";
  result.note("campaign.setup_s", per_setup);

  result.set("setup_s", median(setups), "s");
  result.set("peak_rss_mb", static_cast<double>(peak_rss) / 1048576.0, "MB");
  result.set("wall_ns_per_op", wall_ns_per_op, "ns");
  result.set("cpu_ns_per_op", cpu_ns_per_op, "ns");

  if (args.trace) run_layer_suite(args, seen, result);
  return result;
}

}  // namespace perfbench

#pragma once
/// \file workloads.hpp
/// The two workloads, the serve probe, and the passes they share with the
/// traced layer suite. A workload's untraced run fills the end-to-end
/// metrics; a traced run repeats the workload with the program's own
/// instrumentation on and then measures every layer (layers.cpp), reading a
/// layer from the workload's own pass where the workload exercises it and
/// from a short fixed probe otherwise.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

// -- sweep-wire -----------------------------------------------------------------

struct SweepPass {
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU (all threads) during the sweep
  std::uint64_t queries = 0;
  std::uint64_t rows = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t degraded_shards = 0;
  std::string digest;         ///< FNV-1a of the whole CSV byte stream
  std::string suffix_digest;  ///< of the bytes emitted from shard `suffix_from` on
  std::uint64_t suffix_bytes = 0;
};

/// One in-process wire sweep of the frozen world on `pool`; shards before
/// `skip_shards` are skipped (sweep_wire's resume mechanism), and the CSV
/// suffix from shard `suffix_from` on is digested separately.
[[nodiscard]] SweepPass sweep_pass(rdns::sim::World& world, rdns::util::ThreadPool& pool,
                                   std::size_t skip_shards, std::size_t suffix_from);
[[nodiscard]] std::size_t shard_count(const rdns::sim::World& world);

// -- campaign -------------------------------------------------------------------

struct CampaignPass {
  double setup_s = 0;  ///< world build + start
  double collect_s = 0;
  double analyze_s = 0;
  double replay_s = 0;  ///< replay_csv alone (parse + ingest)
  double dynamicity_s = 0;
  double leaks_s = 0;
  double cpu_s = 0;  ///< process CPU over collection + analysis
  double csv_write_s = 0;  ///< time inside the CSV sink (traced passes only)
  std::uint64_t sweeps = 0;
  std::uint64_t rows = 0;
  std::uint64_t replay_rows = 0;
  std::uint64_t replay_skipped = 0;
  std::size_t dynamic_blocks = 0;
  std::size_t blocks_seen = 0;
  std::size_t identified = 0;
  std::string digest;
};

/// SweepDriver over [from, to] (daily, 14h+21h union) into a CSV file at
/// `csv_path`, then the analyze path over that file. `time_sink` wraps the
/// CSV sink in a timer (traced passes).
[[nodiscard]] CampaignPass campaign_pass(const rdns::util::CivilDate& from,
                                         const rdns::util::CivilDate& to,
                                         const std::string& csv_path,
                                         rdns::util::ThreadPool& pool, bool time_sink);

// -- the serve probe -------------------------------------------------------------

/// One offered rate held for a while. The phase is cut into half-second
/// windows and its headline figures are medians over the windows in which
/// the generator kept to schedule, so a host scheduling stall spoils one
/// window rather than the phase, and a late generator never reads as a
/// slow server.
struct ServePhase {
  double rate = 0;  ///< offered queries/s
  std::uint64_t sent = 0;
  std::uint64_t mismatched = 0;  ///< replies with a wrong txid or question echo
  std::size_t latency_samples = 0;
  // Medians over the valid windows (lateness: over all windows).
  double p50_us = 0;
  double p99_us = 0;
  double gen_late_p99_us = 0;
  double cpu_ns_per_query = 0;  ///< whole server process
  double loss_frac = 0;         ///< queries without a reply in time
  bool gen_on_schedule = true;  ///< in more than half of the windows
  double wall_ns = 0;  ///< sending plus the reply deadline
  std::map<int, std::int64_t> task_cpu_ns;  ///< per server task, whole phase
  [[nodiscard]] bool meets_slo() const;
};

struct ServePass {
  std::vector<ServePhase> phases;  ///< [0] = nominal rate, then the ladder
  double max_qps = 0;
  std::uint64_t reference_checked = 0;
  std::uint64_t reference_mismatched = 0;
  // SIGTERM accounting printed by the server.
  std::uint64_t received = 0, answered = 0, dropped = 0, send_failures = 0;
  std::uint64_t dropped_policy = 0, cache_hits = 0, cache_misses = 0;
  std::uint64_t kernel_drops = 0;  ///< server socket drops (/proc/net/udp)
  std::uint64_t gen_sent_total = 0;
  bool accounting_ok = false;
  std::string accounting_error;
  std::string metrics_json;  ///< the server's --metrics-out document (traced)
  std::vector<int> worker_tids;
  int aggregator_tid = 0;
};

/// Launch `rdns_tool serve --metrics-out metrics_out`, drive it with the
/// open-loop generator (2 s at 50k q/s, then the rate ladder), check a
/// reference sample against `reference` (the in-process frozen world),
/// stop it and reconcile its accounting.
[[nodiscard]] ServePass serve_pass(const std::string& tool, const rdns::sim::World& reference,
                                   std::uint64_t seed, const std::string& metrics_out);

/// The generator's query mix: query `seq` of a ZMap-style permutation over
/// the announced space. 15 of 16 are IN PTR (every other one carrying an
/// EDNS0 OPT advertising 1232), 1 of 16 a CH TXT version.bind.
class QueryMix {
 public:
  QueryMix(const rdns::sim::World& world, std::uint64_t seed);
  /// Datagram for query `seq` with transaction id `txid` into `out`.
  void make(std::uint64_t seq, std::uint16_t txid, std::vector<std::uint8_t>& out) const;
  [[nodiscard]] static bool is_chaos(std::uint64_t seq) { return seq % 16 == 15; }
  [[nodiscard]] static bool is_edns(std::uint64_t seq) { return !is_chaos(seq) && seq % 2 == 1; }
  [[nodiscard]] std::uint64_t space() const noexcept { return space_; }

 private:
  [[nodiscard]] std::uint32_t address_of(std::uint64_t seq) const;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranges_;  ///< (first, size)
  std::uint64_t space_ = 0;
  std::vector<std::uint32_t> order_;  ///< permutation of [0, space)
};

// -- entry points -----------------------------------------------------------------

[[nodiscard]] Result run_sweep_wire(const RunArgs& args);
[[nodiscard]] Result run_campaign(const RunArgs& args);

/// What a traced workload pass observed itself; the layer suite probes
/// whatever is missing.
struct Observed {
  std::unique_ptr<rdns::sim::World> frozen;  ///< frozen world, if the workload built one
  double frozen_build_s = 0;
  std::optional<SweepPass> sweep;
  double pool_busy_ns = 0;  ///< thread_pool.busy_ns over the pool phases
  double pool_wall_ns = 0;
  std::optional<CampaignPass> campaign;
  std::string campaign_spans_json;
  double ddns_updates = 0;
  double ddns_update_p99_us = 0;
  double bulk_rows = 0;
};

/// Fill every per-layer metric into `result`, probing what `seen` lacks.
void run_layer_suite(const RunArgs& args, Observed& seen, Result& result);

}  // namespace perfbench

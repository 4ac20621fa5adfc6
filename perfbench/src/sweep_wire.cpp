/// \file sweep_wire.cpp
/// `sweep-wire`: the in-process wire sweep of the frozen default world, one
/// PTR query per announced address, on a pool of kPoolThreads. No sockets,
/// no answer cache, no zone writes: codec, resolver, zone lookup, routing,
/// shard/merge and the thread pool do the work.

#include <algorithm>

#include "layers.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Pinned outputs of the default world frozen at 2021-01-02 14:00.
constexpr std::uint64_t kQueries = 1'572'864;
constexpr std::uint64_t kRows = 52'543;
constexpr const char* kDigest = "539d10f7da53648b";  ///< FNV-1a 64 of the CSV
/// Timed world builds before every pass; `setup_s` is their median.
constexpr std::size_t kBuildsPerPass = 3;

}  // namespace

std::size_t shard_count(const rdns::sim::World& world) {
  return rdns::scan::shard_address_space(world.announced_prefixes()).size();
}

SweepPass sweep_pass(rdns::sim::World& world, rdns::util::ThreadPool& pool,
                     std::size_t skip_shards, std::size_t suffix_from) {
  DigestSink sink;
  if (suffix_from == 0) sink.restart_at_bytes = 0;
  rdns::scan::WireSweepOptions options;
  options.skip_shards = skip_shards;
  options.on_shard_done = [&](std::size_t shards_done, std::size_t, std::uint64_t) {
    if (shards_done == suffix_from) sink.restart_at_bytes = sink.digest.bytes;
  };
  rdns::dns::ResolverStats stats;
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  SweepPass pass;
  pass.rows = rdns::scan::sweep_wire(world, kFreezeDate, sink, &stats, &pool, options);
  pass.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  pass.cpu_s = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
  pass.queries = stats.queries_sent;
  pass.timeouts = stats.timeout;
  pass.degraded_shards = sink.degraded;
  pass.digest = sink.digest.hex();
  pass.suffix_digest = sink.suffix.hex();
  pass.suffix_bytes = sink.suffix.bytes;
  return pass;
}

Result run_sweep_wire(const RunArgs& args) {
  Result result;
  Observed seen;

  // Set-up — world build, start and simulation up to the frozen instant —
  // is timed kBuildsPerPass times before every pass, so its median spans
  // the whole run as the passes do; each pass sweeps the last world built.
  std::unique_ptr<rdns::sim::World> world;
  std::vector<double> setups;
  const auto build = [&] {
    for (std::size_t i = 0; i < kBuildsPerPass; ++i) {
      world.reset();
      const std::int64_t t0 = now_ns();
      world = build_frozen_world();
      setups.push_back(seconds_since(t0));
    }
  };
  build();

  const std::size_t shards = shard_count(*world);
  // The seed picks where the single-thread reference suffix starts (within
  // the last eighth of the shards) and, when traced, the replay sample.
  const std::size_t suffix_from =
      shards - 1 - static_cast<std::size_t>(rdns::util::mix64(args.seed) % (shards / 8));

  rdns::util::ThreadPool pool{kPoolThreads};
  const auto check = [&](const SweepPass& p) {
    result.attempted += p.queries;
    result.failed += p.timeouts + p.degraded_shards * 256;
    if (p.queries != kQueries) result.fail_gate("queries " + std::to_string(p.queries));
    if (p.rows != kRows) result.fail_gate("rows " + std::to_string(p.rows));
    if (p.digest != kDigest) result.fail_gate("CSV digest " + p.digest + " != " + kDigest);
  };

  // A traced run brackets its traced passes with an untraced pass before
  // and after, the baseline its tracing overhead is measured against; the
  // builds before its first pass are its untraced set-up baseline.
  std::vector<SweepPass> untraced;
  std::uint64_t untraced_peak_rss = 0;
  if (args.trace) {
    untraced.push_back(sweep_pass(*world, pool, 0, suffix_from));
    untraced_peak_rss = take_peak_rss();
    enable_program_tracing();
  }
  const std::vector<double> untraced_setups = setups;

  std::vector<SweepPass> passes;
  const std::int64_t begin = now_ns();
  for (;;) {
    build();
    passes.push_back(args.trace ? observe_sweep(*world, pool, 0, suffix_from, seen)
                                : sweep_pass(*world, pool, 0, suffix_from));
    const double elapsed = seconds_since(begin);
    const double per_pass = elapsed / static_cast<double>(passes.size());
    if (elapsed + per_pass > args.seconds) break;
  }
  const std::uint64_t peak_rss = peak_rss_bytes();

  std::vector<double> qps, cpu_per_query;
  for (const SweepPass& p : passes) {
    qps.push_back(static_cast<double>(p.queries) / p.wall_s);
    cpu_per_query.push_back(p.cpu_s * 1e9 / static_cast<double>(p.queries));
    check(p);
  }
  // A traced run's own set-up figure leaves out its untraced baseline.
  const std::size_t first_setup = args.trace ? untraced_setups.size() : 0;
  const double setup_s = median(std::vector<double>(
      setups.begin() + static_cast<std::ptrdiff_t>(first_setup), setups.end()));
  const double wall_ns_per_op = 1e9 / median(qps);
  const double cpu_ns_per_op = median(cpu_per_query);

  if (args.trace) {
    set_program_tracing(false);
    untraced.push_back(sweep_pass(*world, pool, 0, suffix_from));
    set_program_tracing(true);
    double wall = 0, cpu = 0;
    std::string walls;
    for (const SweepPass& p : untraced) {
      check(p);
      wall += p.wall_s * 1e9 / static_cast<double>(p.queries) / 2;
      cpu += p.cpu_s * 1e9 / static_cast<double>(p.queries) / 2;
      walls += fmt_double(p.wall_s * 1e9 / static_cast<double>(p.queries)) + " ";
    }
    result.note("trace.untraced_pass_wall_ns_per_op", walls);
    set_trace_overhead(result, "setup_s", setup_s, median(untraced_setups));
    set_trace_overhead(result, "peak_rss_mb", static_cast<double>(peak_rss),
                       static_cast<double>(untraced_peak_rss));
    set_trace_overhead(result, "wall_ns_per_op", wall_ns_per_op, wall);
    set_trace_overhead(result, "cpu_ns_per_op", cpu_ns_per_op, cpu);
  }

  // Correctness gate off the timed path: the same suffix swept by a
  // single-thread pool must produce the same bytes.
  {
    rdns::util::ThreadPool one{1};
    const SweepPass ref = sweep_pass(*world, one, suffix_from, 0);
    result.note("sweep.reference_shards", std::to_string(shards - suffix_from));
    if (ref.digest != passes.front().suffix_digest ||
        ref.suffix_bytes != passes.front().suffix_bytes) {
      result.fail_gate("1-thread suffix digest " + ref.digest + " != " +
                       passes.front().suffix_digest);
    }
  }
  result.note("sweep.csv_digest", passes.front().digest);
  std::string per_pass;
  for (const double q : qps) per_pass += fmt_double(1e9 / q) + " ";
  result.note("sweep.pass_wall_ns_per_op", per_pass);
  std::string per_setup;
  for (const double s : setups) per_setup += fmt_double(s) + " ";
  result.note("sweep.setup_s", per_setup);

  result.set("setup_s", setup_s, "s");
  result.set("peak_rss_mb", static_cast<double>(peak_rss) / 1048576.0, "MB");
  result.set("wall_ns_per_op", wall_ns_per_op, "ns");
  result.set("cpu_ns_per_op", cpu_ns_per_op, "ns");

  if (args.trace) {
    seen.frozen = std::move(world);
    seen.frozen_build_s = setup_s;
    run_layer_suite(args, seen, result);
  }
  return result;
}

}  // namespace perfbench

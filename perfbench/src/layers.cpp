/// \file layers.cpp
/// The traced run's layer suite. Every traced run reports every layer:
/// layers the workload exercises are read from its own traced pass, the
/// rest from short fixed probes (a wire-sweep suffix, a one-week campaign,
/// a serve phase at the nominal rate plus the rate ladder). Per-call costs
/// come from in-process replays that time each module's public functions
/// one call at a time; the spans are kept in memory and written out at the
/// end.

#include "layers.hpp"

#include <fstream>

#include "dns/admin.hpp"
#include "dns/answer_cache.hpp"
#include "dns/serve_guard.hpp"
#include "dns/wire.hpp"
#include "net/arpa.hpp"
#include "util/journal.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace metrics = rdns::util::metrics;
using rdns::util::trace::Tracer;

namespace {

/// /24 shards replayed per traced run, and serve datagrams replayed.
constexpr std::size_t kReplayShards = 32;
constexpr std::uint64_t kServeReplay = 16384;

const rdns::util::CivilDate kProbeFrom{2021, 1, 2};
const rdns::util::CivilDate kProbeTo{2021, 1, 8};

/// Sum wall time and count of every span-tree node named `name`.
void sum_spans(const rdns::util::journal::JsonValue& node, std::string_view name, double& wall_ms,
               double& count) {
  if (node.get_string("name") == name) {
    wall_ms += node.get_number("wall_ms");
    count += node.get_number("count");
  }
  if (const auto* children = node.find("children")) {
    for (const auto& child : children->array) sum_spans(child, name, wall_ms, count);
  }
}

/// The DNS read path, one public call at a time, over a seeded sample of
/// /24 shards of the frozen world. First the resolver's lookup_ptr runs
/// shard by shard as the sweep runs it; then its stages are replayed on
/// the same input as child spans of each lookup.
void replay_dns(const rdns::sim::World& world, std::uint64_t seed, SpanRecorder& rec,
                Result& result) {
  const auto shards = rdns::scan::shard_address_space(world.announced_prefixes());
  std::vector<rdns::net::Ipv4Addr> addresses;
  for (std::size_t k = 0; k < kReplayShards; ++k) {
    const auto& shard = shards[rdns::util::mix64(seed + k) % shards.size()];
    for (std::uint64_t v = shard.first; v <= shard.last; ++v) {
      addresses.emplace_back(static_cast<std::uint32_t>(v));
    }
  }
  rdns::sim::FrozenDnsView view{world};
  rdns::dns::StubResolver resolver{view, /*retries=*/1, seed};
  const rdns::util::SimTime now = world.now();
  std::vector<std::int32_t> lookups;
  std::vector<std::string> ptrs;
  for (std::size_t q = 0; q < addresses.size(); ++q) {
    const std::int64_t t = now_ns();
    const auto looked_up = resolver.lookup_ptr(addresses[q], now);
    lookups.push_back(
        rec.add("dns.resolver.lookup_ptr", t, now_ns(), -1, static_cast<std::uint32_t>(q)));
    const bool row = looked_up.status == rdns::dns::LookupStatus::Ok && looked_up.ptr;
    ptrs.push_back(row ? looked_up.ptr->to_string() : std::string{});
  }

  std::vector<rdns::dns::ServerStats> stats(world.orgs().size());
  const std::string date_text = rdns::util::format_date(kFreezeDate);
  std::string row;
  for (std::size_t q = 0; q < addresses.size(); ++q) {
    const rdns::net::Ipv4Addr a = addresses[q];
    const auto qid = static_cast<std::uint32_t>(q);
    const std::int32_t lookup = lookups[q];
    const auto qname = rdns::dns::DnsName::must_parse(rdns::net::to_arpa(a));
    std::int64_t t = now_ns();
    const auto wire = rdns::dns::encode(
        rdns::dns::make_query(static_cast<std::uint16_t>(qid), qname, rdns::dns::RrType::PTR));
    rec.add("dns.wire.encode_query", t, now_ns(), lookup, qid);
    t = now_ns();
    const auto response = view.exchange(wire, now);
    const std::int32_t exchange = rec.add("sim.exchange_readonly", t, now_ns(), lookup, qid);
    if (response) {
      t = now_ns();
      (void)rdns::dns::decode(*response);
      rec.add("dns.wire.decode_response", t, now_ns(), lookup, qid);
    }

    // The exchange's stages; its self time is routing.
    t = now_ns();
    const auto query = rdns::dns::decode(wire);
    rec.add("dns.wire.decode_query", t, now_ns(), exchange, qid);
    const std::size_t org = world.org_index_of(a);
    if (org != rdns::sim::World::npos) {
      const auto& server = world.orgs()[org]->dns();
      t = now_ns();
      const auto answer = server.handle_readonly(query, stats[org]);
      rec.add("dns.server.handle_readonly", t, now_ns(), exchange, qid);
      if (answer) {
        t = now_ns();
        (void)rdns::dns::encode(*answer);
        rec.add("dns.wire.encode_response", t, now_ns(), exchange, qid);
      }
      // Beside handle_readonly, not inside it.
      if (const auto* zone = server.find_zone(qname)) {
        t = now_ns();
        (void)zone->find(qname, rdns::dns::RrType::PTR);
        rec.add("dns.zone.find", t, now_ns(), -1, qid);
      }
    }

    if (!ptrs[q].empty()) {
      row.clear();
      t = now_ns();
      rdns::scan::append_snapshot_row(row, date_text, a, ptrs[q]);
      rec.add("scan.render_row", t, now_ns(), -1, qid);
    }
  }
  result.set("dns.resolver.lookup_ptr_ns", rec.mean_ns("dns.resolver.lookup_ptr"), "ns");
  result.set("dns.wire.encode_query_ns", rec.mean_ns("dns.wire.encode_query"), "ns");
  result.set("sim.exchange_readonly_ns", rec.mean_ns("sim.exchange_readonly"), "ns");
  result.set("dns.wire.decode_query_ns", rec.mean_ns("dns.wire.decode_query"), "ns");
  result.set("dns.server.handle_readonly_ns", rec.mean_ns("dns.server.handle_readonly"), "ns");
  result.set("dns.wire.encode_response_ns", rec.mean_ns("dns.wire.encode_response"), "ns");
  result.set("dns.wire.decode_response_ns", rec.mean_ns("dns.wire.decode_response"), "ns");
  result.set("dns.zone.find_ns", rec.mean_ns("dns.zone.find"), "ns");
  result.set("scan.render_row_ns", rec.mean_ns("scan.render_row"), "ns");
  result.note("replay.dns_queries", std::to_string(addresses.size()));
  result.note("replay.routing_self_ns", fmt_double(rec.mean_self_ns("sim.exchange_readonly")));
  result.note("replay.lookup_self_ns", fmt_double(rec.mean_self_ns("dns.resolver.lookup_ptr")));
}

/// The serve hot path in process: the generator's own datagrams through
/// classify → probe → assemble (hits) or peek_question (misses).
void replay_serve(const rdns::sim::World& world, std::uint64_t seed, SpanRecorder& rec,
                  Result& result) {
  std::int64_t t = now_ns();
  std::vector<rdns::dns::AnswerCache::Source> sources;
  for (const auto& org : world.orgs()) {
    for (const auto& prefix : org->spec().announced) {
      sources.push_back({&org->dns(), prefix.first(), prefix.last()});
    }
  }
  const auto cache = rdns::dns::AnswerCache::build(sources);
  result.set("dns.answer_cache.build_s", seconds_since(t), "s");
  result.set("dns.answer_cache.bytes", static_cast<double>(cache->bytes()), "bytes");

  const QueryMix mix{world, seed};
  std::vector<std::uint8_t> query;
  std::vector<std::uint8_t> reply(2048);
  double in_calls_ns = 0;
  for (std::uint64_t seq = 0; seq < kServeReplay; ++seq) {
    mix.make(seq, static_cast<std::uint16_t>(seq), query);
    const auto qid = static_cast<std::uint32_t>(seq);
    const std::int32_t parent = rec.open("serve.query", -1, qid);
    t = now_ns();
    (void)rdns::dns::classify_query(query, /*restrict_ptr=*/true);
    std::int64_t t1 = now_ns();
    rec.add("dns.guard.classify", t, t1, parent, qid);
    in_calls_ns += static_cast<double>(t1 - t);
    t = now_ns();
    const auto probe = cache->probe(query);
    t1 = now_ns();
    rec.add("dns.answer_cache.probe", t, t1, parent, qid);
    in_calls_ns += static_cast<double>(t1 - t);
    if (probe.hit) {
      t = now_ns();
      (void)rdns::dns::AnswerCache::assemble(probe, query, reply.data());
      t1 = now_ns();
      rec.add("dns.answer_cache.assemble", t, t1, parent, qid);
    } else {
      std::uint16_t qtype = 0, qclass = 0;
      t = now_ns();
      (void)rdns::dns::peek_question(query, &qtype, &qclass, nullptr);
      t1 = now_ns();
      rec.add("dns.admin.peek_question", t, t1, parent, qid);
    }
    in_calls_ns += static_cast<double>(t1 - t);
    rec.close(parent);
  }
  result.set("dns.guard.classify_ns", rec.mean_ns("dns.guard.classify"), "ns");
  result.set("dns.answer_cache.probe_ns", rec.mean_ns("dns.answer_cache.probe"), "ns");
  result.set("dns.answer_cache.assemble_ns", rec.mean_ns("dns.answer_cache.assemble"), "ns");
  result.set("dns.admin.peek_question_ns", rec.mean_ns("dns.admin.peek_question"), "ns");
  result.set("serve.hit_path_ns", in_calls_ns / static_cast<double>(kServeReplay), "ns");
}

}  // namespace

void enable_program_tracing() {
  metrics::Registry::global().reset_values();
  Tracer::global().reset();
  set_program_tracing(true);
}

void set_program_tracing(bool on) {
  metrics::set_collect_timing(on);
  Tracer::global().set_enabled(on);
}

void set_trace_overhead(Result& result, const std::string& metric, double traced,
                        double untraced) {
  result.set("trace.overhead." + metric, traced / untraced, "ratio");
}

SweepPass observe_sweep(rdns::sim::World& world, rdns::util::ThreadPool& pool,
                        std::size_t skip_shards, std::size_t suffix_from, Observed& seen) {
  const auto busy0 = metrics::counter("thread_pool.busy_ns").value();
  SweepPass pass = sweep_pass(world, pool, skip_shards, suffix_from);
  seen.pool_busy_ns += static_cast<double>(metrics::counter("thread_pool.busy_ns").value() - busy0);
  seen.pool_wall_ns += pass.wall_s * 1e9;
  seen.sweep = pass;
  return pass;
}

CampaignPass observe_campaign(const rdns::util::CivilDate& from, const rdns::util::CivilDate& to,
                              const std::string& csv_path, rdns::util::ThreadPool& pool,
                              Observed& seen) {
  auto& added = metrics::counter("dhcp.ddns.ptr_added");
  auto& removed = metrics::counter("dhcp.ddns.ptr_removed");
  const auto& org_rows = metrics::histogram("sweep.org_rows",
                                            metrics::Histogram::exponential_bounds(16, 4, 10));
  const auto ddns0 = added.value() + removed.value();
  const double org_rows0 = org_rows.sum();
  const auto busy0 = metrics::counter("thread_pool.busy_ns").value();
  CampaignPass pass = campaign_pass(from, to, csv_path, pool, /*time_sink=*/true);
  seen.pool_busy_ns += static_cast<double>(metrics::counter("thread_pool.busy_ns").value() - busy0);
  seen.pool_wall_ns += (pass.collect_s + pass.analyze_s) * 1e9;
  seen.ddns_updates += static_cast<double>(added.value() + removed.value() - ddns0);
  seen.bulk_rows += org_rows.sum() - org_rows0;
  seen.ddns_update_p99_us =
      metrics::histogram("dhcp.ddns.update_us", metrics::Histogram::exponential_bounds(1, 4, 10))
          .percentile(99);
  seen.campaign_spans_json = Tracer::global().to_json();
  seen.campaign = pass;
  return pass;
}

void run_layer_suite(const RunArgs& args, Observed& seen, Result& result) {
  const std::int64_t suite_t0 = now_ns();
  if (!seen.frozen) {
    const std::int64_t t0 = now_ns();
    seen.frozen = build_frozen_world();
    seen.frozen_build_s = seconds_since(t0);
  }
  rdns::sim::World& world = *seen.frozen;
  result.set("sim.world_build_s", seen.frozen_build_s, "s");

  SpanRecorder rec;
  replay_dns(world, args.seed, rec, result);
  replay_serve(world, args.seed, rec, result);

  rdns::util::ThreadPool pool{kPoolThreads};
  rdns::util::ThreadPool::set_global_size(kPoolThreads);

  // scan render/merge and util thread pool.
  if (!seen.sweep) {
    const std::size_t shards = shard_count(world);
    const std::size_t from = shards - shards / 16;
    (void)observe_sweep(world, pool, from, from, seen);
    result.note("probe.sweep_shards", std::to_string(shards - from));
  }
  const double sweep_cpu_per_query =
      seen.sweep->cpu_s * 1e9 / static_cast<double>(seen.sweep->queries);
  result.set("sweep.queries_per_s", static_cast<double>(seen.sweep->queries) / seen.sweep->wall_s,
             "1/s");
  result.set("sweep.cpu_ns_per_query", sweep_cpu_per_query, "ns");
  const double answered =
      static_cast<double>(seen.sweep->rows) / static_cast<double>(seen.sweep->queries);
  result.set("scan.answered_frac", answered, "ratio");
  result.set("scan.unattributed_ns_per_query",
             sweep_cpu_per_query - result.metrics["dns.resolver.lookup_ptr_ns"].value -
                 answered * result.metrics["scan.render_row_ns"].value,
             "ns");

  // sim + dhcp zone writes, scan bulk read and CSV write, replay and core.
  if (!seen.campaign) {
    (void)observe_campaign(kProbeFrom, kProbeTo, args.out_dir + "/probe-campaign.csv", pool, seen);
    std::remove((args.out_dir + "/probe-campaign.csv").c_str());
    result.note("probe.campaign_days", "7");
  }
  result.set("util.thread_pool.parallelism", seen.pool_busy_ns / seen.pool_wall_ns, "ratio");
  result.set("util.thread_pool.chunk_us.p99",
             metrics::histogram("thread_pool.chunk_us",
                                metrics::Histogram::exponential_bounds(10, 4, 12))
                 .percentile(99),
             "us");
  const CampaignPass& c = *seen.campaign;
  double day_ms = 0, days = 0, bulk_ms = 0, bulk_passes = 0;
  if (const auto tree = rdns::util::journal::parse_json(seen.campaign_spans_json)) {
    sum_spans(*tree, "day", day_ms, days);
    sum_spans(*tree, "bulk_pass", bulk_ms, bulk_passes);
  }
  result.set("sim.day_advance_ms", days > 0 ? (day_ms - bulk_ms) / days : 0, "ms");
  result.set("dhcp.ddns.updates_per_day", days > 0 ? seen.ddns_updates / days : 0, "count");
  result.set("dhcp.ddns.update_us.p99", seen.ddns_update_p99_us, "us");
  result.set("scan.bulk_pass_ms", bulk_passes > 0 ? bulk_ms / bulk_passes : 0, "ms");
  result.set("scan.bulk_rows_per_s", bulk_ms > 0 ? seen.bulk_rows / (bulk_ms / 1e3) : 0, "1/s");
  result.set("scan.csv_write_ns_per_row", c.csv_write_s * 1e9 / static_cast<double>(c.rows), "ns");
  result.set("scan.csv_replay_ns_per_row", c.replay_s * 1e9 / static_cast<double>(c.replay_rows),
             "ns");
  result.set("core.dynamicity_ms", c.dynamicity_s * 1e3, "ms");
  result.set("core.leaks_ms", c.leaks_s * 1e3, "ms");
  result.set("campaign.collect_rows_per_s", static_cast<double>(c.rows) / c.collect_s, "1/s");
  result.set("campaign.analyze_rows_per_s", static_cast<double>(c.replay_rows) / c.analyze_s,
             "1/s");

  // dns serve path: live server counters, read after it stopped.
  const ServePass s =
      serve_pass(args.tool, world, args.seed, args.out_dir + "/serve-metrics.json");
  const ServePhase& nominal = s.phases.front();
  std::uint64_t mismatched = 0;
  for (const ServePhase& p : s.phases) mismatched += p.mismatched;
  if (mismatched > 0) result.fail_gate("serve: replies with a wrong txid or question echo");
  if (s.reference_mismatched > 0) result.fail_gate("serve: reference replies differ");
  if (!s.accounting_ok) result.fail_gate("serve accounting: " + s.accounting_error);
  double worker_ns = 0;
  for (const int tid : s.worker_tids) worker_ns += static_cast<double>(nominal.task_cpu_ns.at(tid));
  const double worker_per_query = worker_ns / static_cast<double>(nominal.sent);
  const auto agg = nominal.task_cpu_ns.find(s.aggregator_tid);
  const double agg_ns = agg == nominal.task_cpu_ns.end() ? 0 : static_cast<double>(agg->second);
  result.set("dns.udp.worker_cpu_ns_per_query", worker_per_query, "ns");
  result.set("dns.admin.aggregator_cpu_pct", 100.0 * agg_ns / nominal.wall_ns, "%");
  result.set("net.udp.kernel_ns_per_query",
             worker_per_query - result.metrics["serve.hit_path_ns"].value, "ns");
  double batch_mean = 0;
  if (const auto doc = rdns::util::journal::parse_json(s.metrics_json)) {
    if (const auto* h = doc->find("histograms")) {
      if (const auto* b = h->find("serve.recv_batch_size")) {
        const double count = b->get_number("count");
        batch_mean = count > 0 ? b->get_number("sum") / count : 0;
      }
    }
  }
  result.set("dns.udp.recv_batch_mean", batch_mean, "count");
  result.set("dns.udp.cache_hit_frac",
             static_cast<double>(s.cache_hits) / static_cast<double>(s.cache_hits + s.cache_misses),
             "ratio");
  result.set("dns.udp.dropped_policy", static_cast<double>(s.dropped_policy), "count");
  result.set("dns.udp.send_failures", static_cast<double>(s.send_failures), "count");
  result.set("serve.gen_late_p99_us", nominal.gen_late_p99_us, "us");
  result.set("serve.p50_us", nominal.p50_us, "us");
  result.set("serve.p99_us", nominal.p99_us, "us");
  result.set("serve.cpu_ns_per_query", nominal.cpu_ns_per_query, "ns");
  result.set("serve.max_qps", s.max_qps, "1/s");
  std::string ladder;
  for (const ServePhase& p : s.phases) {
    ladder += fmt_double(p.rate) + (p.meets_slo() ? ":ok " : p.gen_on_schedule ? ":miss " : ":invalid ");
  }
  result.note("serve.ladder_rungs", ladder);
  result.note("serve.latency_samples", std::to_string(nominal.latency_samples));
  result.note("serve.reference_checked", std::to_string(s.reference_checked));

  const std::string base = args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  rec.write_jsonl(base + ".spans.jsonl");
  {
    std::ofstream out{base + ".program.json"};
    rdns::util::trace::write_snapshot_json(out, metrics::Registry::global(), Tracer::global());
  }
  result.note("trace.spans", base + ".spans.jsonl");
  result.note("trace.suite_s", fmt_double(seconds_since(suite_t0)));
}

}  // namespace perfbench

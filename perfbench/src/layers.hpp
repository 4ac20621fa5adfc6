#pragma once
/// \file layers.hpp
/// Traced passes: the workload passes with the program's own timing
/// instrumentation on, recording what the layer suite needs.

#include "workloads.hpp"

namespace perfbench {

/// Zero the program's metrics and spans, then turn on its clock-based
/// metrics and span tree. Traced runs only: end-to-end runs measure the
/// shipped defaults.
void enable_program_tracing();
/// Pause (false) or resume (true) the program's tracing, keeping what it
/// recorded: a traced run's untraced baseline pass runs paused.
void set_program_tracing(bool on);
/// Record per-layer metric `trace.overhead.<metric>`: the end-to-end
/// metric's traced value ÷ its untraced value in the same process.
void set_trace_overhead(Result& result, const std::string& metric, double traced,
                        double untraced);

[[nodiscard]] SweepPass observe_sweep(rdns::sim::World& world, rdns::util::ThreadPool& pool,
                                      std::size_t skip_shards, std::size_t suffix_from,
                                      Observed& seen);
[[nodiscard]] CampaignPass observe_campaign(const rdns::util::CivilDate& from,
                                            const rdns::util::CivilDate& to,
                                            const std::string& csv_path,
                                            rdns::util::ThreadPool& pool, Observed& seen);

}  // namespace perfbench

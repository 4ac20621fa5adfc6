/// \file main.cpp
/// perfbench: the repository benchmark's measuring program. Usually run
/// through perfbench/run.py, which builds it and checks its output against
/// BENCHMARK.json:
///
///   perfbench --workload sweep-wire|campaign --seed N
///             --seconds S --trace 0|1 --tool PATH/rdns_tool --out-dir DIR
///
/// Prints notes and one JSON result document as its last stdout line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>

#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void print_result(const Result& r) {
  for (const auto& [key, value] : r.notes) std::printf("note %s: %s\n", key.c_str(), value.c_str());
  std::ostringstream line;
  line << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    line << sep << '"' << json_escape(name) << "\": {\"value\": " << fmt_double(m.value)
         << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
    sep = ", ";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to measure a debug or sanitizer build\n");
  return 2;
#endif
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--tool") args.tool = value;
    else if (key == "--out-dir") args.out_dir = value;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (args.out_dir.empty() || args.tool.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --tool, --out-dir and --seconds > 0 are required\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  // Explicit pool sizes everywhere: RDNS_THREADS and auto sizing never apply.
  rdns::util::ThreadPool::set_global_size(kPoolThreads);

  try {
    Result result;
    if (args.workload == "sweep-wire") {
      result = run_sweep_wire(args);
    } else if (args.workload == "campaign") {
      result = run_campaign(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n", args.workload.c_str());
      return 2;
    }
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

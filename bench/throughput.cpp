// Kernel-throughput bench: simulated-events/sec and tokens/sec across three
// workload shapes, persisted as BENCH_throughput.json so the perf trajectory
// of the DES kernel is visible across PRs.
//
//   * single_stream — one producer -> FIFO -> consumer pipe pushing 3 KB
//     payloads with no application work; CRC-stamping each fresh payload
//     outweighs the kernel churn (schedule/dispatch, channel wakes).
//   * table2_mix   — one fault-free duplicated run per paper application
//     (ADPCM, MJPEG, H.264) through the full experiment harness, transform
//     caches pre-warmed so codec work is memoized and the simulator dominates.
//   * chaos_storm  — chaos::run_storm over a seed range of default storms:
//     the fault-injection soak path (supervisor, flight recorder, oracles'
//     observation capture) that the 500-run soak lanes hammer hardest.
//
// Wall time is the min over --reps repetitions; event and token counts are
// deterministic and asserted identical across reps. The JSON snapshot uses a
// fixed key order with one workload per line, so the --compare mode (and the
// CI bench lane) can parse it without a JSON library.
//
// --compare FILE re-runs the bench and prints a GitHub `::warning::` line for
// every workload whose events/sec fell more than 10% below the committed
// snapshot. It always exits 0: the lane warns, it does not gate — wall-clock
// numbers are machine-dependent.
#include <algorithm>
#include <chrono>
#include <memory>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/adpcm/app.hpp"
#include "apps/common/experiment.hpp"
#include "apps/h264/app.hpp"
#include "apps/mjpeg/app.hpp"
#include "chaos/runner.hpp"
#include "chaos/storm.hpp"
#include "kpn/channel.hpp"
#include "kpn/network.hpp"
#include "kpn/token.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"

namespace {

using sccft::rtc::TimeNs;

struct WorkloadSample {
  std::uint64_t events = 0;  ///< simulator events dispatched (deterministic)
  std::uint64_t tokens = 0;  ///< tokens delivered to consumers (deterministic)
};

struct WorkloadResult {
  std::string name;
  std::uint64_t events = 0;
  std::uint64_t tokens = 0;
  double wall_ms = 0.0;  ///< best-of-reps
};

/// Runs `body` --reps times, checks the deterministic counts agree, and
/// returns the best wall time.
template <typename Body>
WorkloadResult measure(const std::string& name, int reps, Body&& body) {
  WorkloadResult result;
  result.name = name;
  double best = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const WorkloadSample sample = body();
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - start;
    if (rep == 0) {
      result.events = sample.events;
      result.tokens = sample.tokens;
    } else {
      // The kernel contract: identical inputs give identical schedules.
      SCCFT_ASSERT(sample.events == result.events);
      SCCFT_ASSERT(sample.tokens == result.tokens);
    }
    if (best < 0.0 || wall.count() < best) best = wall.count();
  }
  result.wall_ms = best;
  return result;
}

// --- workload 1: single stream ---------------------------------------------

WorkloadSample run_single_stream(std::uint64_t token_count) {
  sccft::sim::Simulator sim;
  sccft::kpn::Network net(sim);
  auto& fifo = net.add_fifo("pipe", 8);
  constexpr TimeNs kPeriod = 1'000;
  net.add_process("producer", sccft::scc::CoreId{0}, 1,
                  [&](sccft::kpn::ProcessContext& ctx) -> sccft::sim::Task {
                    for (std::uint64_t k = 0; k < token_count; ++k) {
                      std::vector<std::uint8_t> payload(3 * 1024,
                                                        static_cast<std::uint8_t>(k));
                      co_await sccft::kpn::write(
                          fifo, sccft::kpn::Token(std::move(payload), k, ctx.now()));
                      co_await ctx.delay(kPeriod);
                    }
                  });
  std::uint64_t consumed = 0;
  net.add_process("consumer", sccft::scc::CoreId{1}, 2,
                  [&](sccft::kpn::ProcessContext& ctx) -> sccft::sim::Task {
                    while (true) {
                      (void)co_await sccft::kpn::read(fifo);
                      ++consumed;
                      co_await ctx.delay(kPeriod - 200);
                    }
                  });
  net.run_until(static_cast<TimeNs>(token_count + 16) * kPeriod);
  SCCFT_ASSERT(consumed == token_count);
  return {sim.events_processed(), consumed};
}

// --- workload 2: table2 application mix -------------------------------------

WorkloadSample run_table2_mix(
    std::vector<std::unique_ptr<sccft::apps::ExperimentRunner>>& runners,
    int runs_per_app) {
  WorkloadSample sample;
  for (auto& runner_ptr : runners) {
    auto& runner = *runner_ptr;
    for (int run = 1; run <= runs_per_app; ++run) {
      sccft::apps::ExperimentOptions options;
      options.seed = static_cast<std::uint64_t>(run);
      options.run_periods = 240;
      const auto result = runner.run(options);
      sample.events += result.events_processed;
      sample.tokens += result.consumer_tokens;
    }
  }
  return sample;
}

// --- workload 3: chaos storm ------------------------------------------------

WorkloadSample run_chaos_storms(const std::vector<sccft::chaos::StormPlan>& plans) {
  WorkloadSample sample;
  for (const auto& plan : plans) {
    const auto obs = sccft::chaos::run_storm(plan);
    SCCFT_ASSERT(!obs.contract_violation.has_value());
    sample.events += obs.events_processed;
    sample.tokens += obs.consumed_seqs.size();
  }
  return sample;
}

// --- snapshot I/O -----------------------------------------------------------

double events_per_sec(const WorkloadResult& r) {
  return static_cast<double>(r.events) / (r.wall_ms / 1000.0);
}
double tokens_per_sec(const WorkloadResult& r) {
  return static_cast<double>(r.tokens) / (r.wall_ms / 1000.0);
}

std::string render_json(const std::vector<WorkloadResult>& results) {
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "    {\"name\": \"%s\", \"events\": %llu, \"tokens\": %llu, "
                  "\"wall_ms\": %.3f, \"events_per_sec\": %.0f, "
                  "\"tokens_per_sec\": %.0f}%s\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.tokens), r.wall_ms,
                  events_per_sec(r), tokens_per_sec(r),
                  i + 1 < results.size() ? "," : "");
    os << line;
  }
  os << "  ]\n}\n";
  return os.str();
}

/// Pulls (name, events_per_sec) pairs back out of a snapshot written by
/// render_json: one workload object per line, fixed key order.
std::vector<std::pair<std::string, double>> parse_snapshot(const std::string& path) {
  std::vector<std::pair<std::string, double>> parsed;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto name_key = line.find("\"name\": \"");
    const auto rate_key = line.find("\"events_per_sec\": ");
    if (name_key == std::string::npos || rate_key == std::string::npos) continue;
    const auto name_start = name_key + 9;
    const auto name_end = line.find('"', name_start);
    if (name_end == std::string::npos) continue;
    parsed.emplace_back(line.substr(name_start, name_end - name_start),
                        std::strtod(line.c_str() + rate_key + 18, nullptr));
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  sccft::util::CliParser cli(
      "throughput",
      "DES-kernel throughput over three workload shapes; writes a "
      "BENCH_throughput.json snapshot of simulated-events/sec and tokens/sec");
  cli.add_int_flag("reps", 3, "repetitions per workload (wall time = best-of)",
                   /*min=*/1);
  cli.add_flag("out", "BENCH_throughput.json",
               "snapshot path (empty = don't write)");
  cli.add_flag("compare", "",
               "committed snapshot to compare against: warn (::warning::, "
               "exit 0) when events/sec regresses > 10%");
  cli.add_flag("quick", "false",
               "shrink every workload for a smoke-test run (ctest)");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 2;
  }
  if (cli.help_requested()) {
    std::fprintf(stdout, "%s", cli.usage().c_str());
    return 0;
  }
  const bool quick = cli.get_bool("quick");
  const int reps = quick ? 1 : static_cast<int>(cli.get_int("reps"));
  SCCFT_EXPECTS(reps >= 1);

  const std::uint64_t stream_tokens = quick ? 5'000 : 50'000;
  const int runs_per_app = quick ? 1 : 4;
  const int storm_count = quick ? 5 : 60;

  // Pre-warm the per-app transform caches (outside the timed region) so the
  // table2 workload measures the simulator, not first-touch codec encodes.
  std::vector<std::unique_ptr<sccft::apps::ExperimentRunner>> runners;
  runners.push_back(std::make_unique<sccft::apps::ExperimentRunner>(
      sccft::apps::adpcm::make_application()));
  runners.push_back(std::make_unique<sccft::apps::ExperimentRunner>(
      sccft::apps::mjpeg::make_application()));
  runners.push_back(std::make_unique<sccft::apps::ExperimentRunner>(
      sccft::apps::h264::make_application()));
  (void)run_table2_mix(runners, runs_per_app);

  // Plan generation is seeded-random but not kernel work: keep it untimed.
  sccft::chaos::StormGenerator generator;
  std::vector<sccft::chaos::StormPlan> plans;
  plans.reserve(static_cast<std::size_t>(storm_count));
  for (int seed = 1; seed <= storm_count; ++seed) {
    plans.push_back(generator.generate(static_cast<std::uint64_t>(seed)));
  }

  std::vector<WorkloadResult> results;
  results.push_back(measure("single_stream", reps,
                            [&] { return run_single_stream(stream_tokens); }));
  results.push_back(measure("table2_mix", reps,
                            [&] { return run_table2_mix(runners, runs_per_app); }));
  results.push_back(
      measure("chaos_storm", reps, [&] { return run_chaos_storms(plans); }));

  std::printf("%-14s %12s %10s %9s %14s %14s\n", "workload", "events", "tokens",
              "wall_ms", "events/sec", "tokens/sec");
  for (const auto& r : results) {
    std::printf("%-14s %12llu %10llu %9.3f %14.0f %14.0f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.tokens), r.wall_ms,
                events_per_sec(r), tokens_per_sec(r));
  }

  const std::string json = render_json(results);
  const std::string out_path = cli.get("out");
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out || !(out << json)) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("snapshot written to %s\n", out_path.c_str());
  }

  const std::string compare_path = cli.get("compare");
  if (!compare_path.empty()) {
    const auto committed = parse_snapshot(compare_path);
    if (committed.empty()) {
      std::printf("::warning::%s has no parsable workloads; skipping comparison\n",
                  compare_path.c_str());
      return 0;
    }
    for (const auto& [name, committed_rate] : committed) {
      const auto it = std::find_if(results.begin(), results.end(),
                                   [&](const auto& r) { return r.name == name; });
      if (it == results.end()) {
        std::printf("::warning::workload %s in %s no longer exists\n", name.c_str(),
                    compare_path.c_str());
        continue;
      }
      const double fresh_rate = events_per_sec(*it);
      if (fresh_rate < 0.9 * committed_rate) {
        std::printf("::warning::throughput regression on %s: %.0f events/sec vs "
                    "committed %.0f (-%.1f%%)\n",
                    name.c_str(), fresh_rate, committed_rate,
                    100.0 * (1.0 - fresh_rate / committed_rate));
      } else {
        std::printf("%s: %.0f events/sec vs committed %.0f — ok\n", name.c_str(),
                    fresh_rate, committed_rate);
      }
    }
  }
  return 0;
}

// Expanded fault-model campaign: sweeps every FaultKind of ft/fault_plan.hpp
// (transient / intermittent silence, payload corruption, rate degradation,
// NoC link faults) across rates and durations, with the Supervisor
// (ft/supervisor.hpp) closing the detect -> restart -> reintegrate loop.
//
// Reported per scenario, aggregated over the seed sweep:
//   * detection coverage  — runs in which the injected replica was convicted;
//   * false convictions   — runs in which the *healthy* replica was blamed;
//   * detection latency   — measured against the Eq. (6)-(8) analytic bound;
//   * restarts/degraded   — supervisor activity and terminal degradations;
//   * stream integrity    — sequence gaps, duplicates, corrupted deliveries;
//   * recovered throughput— consumer tokens/s in the final 500 ms window.
//
// Output: ASCII tables plus /tmp/sccft_fault_campaign.csv (override with
// --csv PATH); every run's RNG seed appears in the table titles and the CSV
// header for reproducibility.
//
// The scenario x seed grid is embarrassingly parallel: each run owns an
// isolated Simulator. With --jobs N the grid fans out onto N workers and the
// per-scenario statistics are folded in (scenario, seed) order, so the table
// and the CSV are byte-identical at any job count. Wall clock is reported on
// stderr (stdout stays diffable across job counts).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/campaign.hpp"
#include "ft/fault_plan.hpp"
#include "ft/framework.hpp"
#include "ft/supervisor.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "scc/platform.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace sccft::bench {
namespace {

constexpr int kCampaignRuns = 5;            // seeds 1..kCampaignRuns per scenario
constexpr rtc::TimeNs kRunLength = rtc::from_sec(2.4);
constexpr rtc::TimeNs kThroughputWindow = rtc::from_ms(500.0);

struct Scenario {
  std::string mode;
  std::string param;
  ft::FaultKind kind = ft::FaultKind::kPermanentSilence;
  ft::ReplicaIndex target = ft::ReplicaIndex::kReplica1;
  rtc::TimeNs at = rtc::from_ms(300.0);
  rtc::TimeNs duration = 0;
  double probability = 0;   // corruption per-token / NoC per-chunk drop chance
  double rate_factor = 0;
  rtc::TimeNs burst_on = 0, burst_off = 0;
  bool targets_replica = true;  // false for NoC faults (they hit the mesh)
};

struct RunOutcome {
  bool target_convicted = false;
  bool peer_convicted = false;
  bool degraded = false;
  int restarts = 0;
  std::optional<rtc::TimeNs> detection_latency;
  bool gap = false;
  bool duplicate = false;
  std::uint64_t corrupt_delivered = 0;
  std::uint64_t consumed = 0;
  double recovered_throughput_hz = 0;
  rtc::TimeNs bound = 0;
};

RunOutcome run_once(const Scenario& scenario, std::uint64_t seed) {
  sim::Simulator simulator;
  kpn::Network net(simulator);
  const bool with_noc = scenario.kind == ft::FaultKind::kNocLink;
  std::optional<scc::Platform> platform;
  if (with_noc) platform.emplace(simulator);

  ft::AppTimingSpec timing;
  timing.producer = rtc::PJD::from_ms(10, 1, 10);
  timing.replica1_in = timing.replica1_out = rtc::PJD::from_ms(10, 2, 10);
  timing.replica2_in = timing.replica2_out = rtc::PJD::from_ms(10, 6, 10);
  timing.consumer = rtc::PJD::from_ms(10, 1, 10);

  ft::FaultTolerantHarness::Config config{.timing = timing};
  if (with_noc) {
    config.platform = &*platform;
    config.producer_core = scc::CoreId{0};
    config.replica1_in_core = config.replica1_out_core = scc::CoreId{2};
    config.replica2_in_core = config.replica2_out_core = scc::CoreId{4};
    config.consumer_core = scc::CoreId{6};
  }
  ft::FaultTolerantHarness harness(net, config);

  RunOutcome outcome;
  outcome.bound = std::min(harness.sizing().replicator_overflow_bound,
                           harness.sizing().selector_latency_bound);

  std::vector<std::uint64_t> consumed_seqs;
  std::vector<rtc::TimeNs> consumed_times;

  net.add_process("producer", scc::CoreId{0}, seed * 10 + 1,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(timing.producer, 0, ctx.rng());
                    for (std::uint64_t k = 0;; ++k) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      std::vector<std::uint8_t> payload(4, static_cast<std::uint8_t>(k));
                      co_await kpn::write(harness.replicator(),
                                          kpn::Token(std::move(payload), k, ctx.now()));
                      shaper.commit(ctx.now());
                    }
                  });

  auto replica_body = [&](ft::ReplicaIndex which, rtc::PJD model) {
    return [&harness, which, model](kpn::ProcessContext& ctx) -> sim::Task {
      kpn::TimingShaper emit(model, ctx.now(), ctx.rng());
      rtc::TimeNs last_emit = -1;
      while (true) {
        SCCFT_FAULT_GATE(ctx);
        kpn::Token token =
            co_await kpn::read(harness.replicator().read_interface(which));
        SCCFT_FAULT_GATE(ctx);
        rtc::TimeNs target = emit.next_emission(ctx.now());
        // A rate-degraded replica emits at least factor * period apart (the
        // paper's "does so at a rate lower than expected").
        if (ctx.fault().rate_factor > 1.0 && last_emit >= 0) {
          target = std::max(target,
                            last_emit + static_cast<rtc::TimeNs>(
                                            ctx.fault().rate_factor *
                                            static_cast<double>(model.period)));
        }
        if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
        SCCFT_FAULT_GATE(ctx);
        co_await kpn::write(harness.selector().write_interface(which), token);
        emit.commit(ctx.now());
        last_emit = ctx.now();
      }
    };
  };
  std::vector<kpn::Process*> replicas;
  replicas.push_back(&net.add_process(
      "r1", scc::CoreId{2}, seed * 10 + 2,
      replica_body(ft::ReplicaIndex::kReplica1, timing.replica1_out)));
  replicas.push_back(&net.add_process(
      "r2", scc::CoreId{4}, seed * 10 + 3,
      replica_body(ft::ReplicaIndex::kReplica2, timing.replica2_out)));

  net.add_process("consumer", scc::CoreId{6}, seed * 10 + 4,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(timing.consumer, 0, ctx.rng());
                    std::uint64_t expected = 0;
                    while (true) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      kpn::Token token = co_await kpn::read(harness.selector());
                      shaper.commit(ctx.now());
                      if (token.seq() > expected) outcome.gap = true;
                      if (token.seq() < expected) outcome.duplicate = true;
                      if (!token.verify_checksum()) ++outcome.corrupt_delivered;
                      expected = token.seq() + 1;
                      consumed_seqs.push_back(token.seq());
                      consumed_times.push_back(ctx.now());
                    }
                  });

  std::array<ft::ReplicaAssets, 2> assets{
      ft::ReplicaAssets{ft::ReplicaIndex::kReplica1, {replicas[0]}, {}},
      ft::ReplicaAssets{ft::ReplicaIndex::kReplica2, {replicas[1]}, {}}};
  ft::Supervisor::Config supervisor_config;
  supervisor_config.restart_budget = 3;
  supervisor_config.initial_backoff = rtc::from_ms(20.0);
  supervisor_config.detection_latency_bound = outcome.bound;
  ft::Supervisor supervisor(simulator, harness.replicator(), harness.selector(),
                            assets, supervisor_config);

  ft::FaultCampaign::Wiring wiring;
  wiring.replicator = &harness.replicator();
  wiring.selector = &harness.selector();
  wiring.processes = {{replicas[0]}, {replicas[1]}};
  if (with_noc) wiring.noc = &platform->noc();
  ft::FaultCampaign campaign(simulator, wiring);

  ft::FaultSpec spec;
  spec.kind = scenario.kind;
  spec.replica = scenario.target;
  spec.at = scenario.at;
  spec.duration = scenario.duration;
  spec.seed = seed;
  switch (scenario.kind) {
    case ft::FaultKind::kPayloadCorruption:
      spec.corrupt_probability = scenario.probability;
      break;
    case ft::FaultKind::kRateDegradation:
      spec.rate_factor = scenario.rate_factor;
      break;
    case ft::FaultKind::kIntermittentSilence:
      spec.burst_on_mean = scenario.burst_on;
      spec.burst_off_mean = scenario.burst_off;
      break;
    case ft::FaultKind::kNocLink:
      spec.noc.chunk_drop_probability = scenario.probability;
      spec.noc.seed = seed;
      break;
    default:
      break;
  }
  campaign.add(spec);
  campaign.arm();

  net.run_until(kRunLength);

  const auto& target_report = supervisor.report(scenario.target);
  const auto& peer_report = supervisor.report(ft::other(scenario.target));
  outcome.target_convicted = target_report.faults_seen > 0;
  outcome.peer_convicted = peer_report.faults_seen > 0;
  outcome.degraded = target_report.health == ft::ReplicaHealth::kDegraded ||
                     peer_report.health == ft::ReplicaHealth::kDegraded;
  outcome.restarts = target_report.restarts + peer_report.restarts;
  if (!target_report.detection_latencies.empty()) {
    outcome.detection_latency = target_report.detection_latencies.front();
  }
  outcome.consumed = consumed_seqs.size();
  std::uint64_t tail = 0;
  for (rtc::TimeNs t : consumed_times) {
    if (t >= kRunLength - kThroughputWindow) ++tail;
  }
  outcome.recovered_throughput_hz =
      static_cast<double>(tail) / (rtc::to_ms(kThroughputWindow) / 1000.0);
  return outcome;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> list;
  for (double ms : {50.0, 200.0, 500.0}) {
    list.push_back({.mode = "transient-silence",
                    .param = util::format_double(ms, 0) + " ms outage",
                    .kind = ft::FaultKind::kTransientSilence,
                    .duration = rtc::from_ms(ms)});
  }
  list.push_back({.mode = "intermittent",
                  .param = "30/150 ms bursts",
                  .kind = ft::FaultKind::kIntermittentSilence,
                  .duration = rtc::from_ms(1'200.0),
                  .burst_on = rtc::from_ms(30.0),
                  .burst_off = rtc::from_ms(150.0)});
  for (double p : {0.05, 0.5, 1.0}) {
    list.push_back({.mode = "corruption",
                    .param = "p = " + util::format_double(p, 2),
                    .kind = ft::FaultKind::kPayloadCorruption,
                    .target = ft::ReplicaIndex::kReplica2,
                    .probability = p});
  }
  for (double f : {2.0, 4.0}) {
    list.push_back({.mode = "rate-degradation",
                    .param = "x" + util::format_double(f, 0) + " slowdown",
                    .kind = ft::FaultKind::kRateDegradation,
                    .rate_factor = f});
  }
  for (double p : {0.01, 0.1, 0.5}) {
    list.push_back({.mode = "noc-drop",
                    .param = "p = " + util::format_double(p, 2),
                    .kind = ft::FaultKind::kNocLink,
                    .duration = rtc::from_ms(1'200.0),
                    .probability = p,
                    .targets_replica = false});
  }
  return list;
}

int run(int jobs, const std::string& csv_path) {
  std::vector<std::uint64_t> seeds;
  for (int s = 1; s <= kCampaignRuns; ++s) seeds.push_back(static_cast<std::uint64_t>(s));

  // Fan the whole scenario x seed grid out onto the worker pool; collect into
  // index-addressed slots so the fold below runs in (scenario, seed) order
  // regardless of completion order.
  const std::vector<Scenario> scenario_list = scenarios();
  const int grid = static_cast<int>(scenario_list.size()) * kCampaignRuns;
  struct GridCell {
    RunOutcome outcome;
    std::string log;
  };
  std::vector<GridCell> cells(static_cast<std::size_t>(grid));
  const auto wall_start = std::chrono::steady_clock::now();
  util::parallel_for_ordered(grid, jobs, [&](int i) {
    util::ScopedLogCapture capture;
    const auto scenario_index = static_cast<std::size_t>(i / kCampaignRuns);
    const std::uint64_t seed = seeds[static_cast<std::size_t>(i % kCampaignRuns)];
    cells[static_cast<std::size_t>(i)].outcome =
        run_once(scenario_list[scenario_index], seed);
    cells[static_cast<std::size_t>(i)].log = capture.take();
  });
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  std::cerr << "fault campaign: " << grid << " runs in "
            << static_cast<long long>(wall.count() * 1000.0) << " ms with --jobs "
            << jobs << "\n";
  for (const GridCell& cell : cells) util::flush_captured(cell.log);

  util::Table table("Fault campaign: expanded fault model under supervision (" +
                    std::to_string(kCampaignRuns) + " runs per scenario, " +
                    seed_list(seeds) + ")");
  table.set_header({"Mode", "Parameter", "Coverage", "False conv.", "Latency mean/max",
                    "Bound", "Restarts", "Degraded", "Corrupt out", "Gap", "Thr (tok/s)"});
  util::CsvWriter csv({"mode", "param", "runs", "detected", "false_convictions",
                       "latency_mean_ms", "latency_max_ms", "bound_ms", "restarts",
                       "degraded", "corrupt_delivered", "gap_runs", "dup_runs",
                       "recovered_throughput_hz"});
  csv.add_comment("fault campaign, " + std::to_string(kCampaignRuns) +
                  " runs per scenario, " + seed_list(seeds));

  for (std::size_t s = 0; s < scenario_list.size(); ++s) {
    const Scenario& scenario = scenario_list[s];
    int detected = 0, false_conv = 0, restarts = 0, degraded = 0;
    int gap_runs = 0, dup_runs = 0;
    std::uint64_t corrupt = 0;
    util::SampleSet latency_ms, throughput;
    rtc::TimeNs bound = 0;
    for (int run = 0; run < kCampaignRuns; ++run) {
      const RunOutcome& r =
          cells[s * static_cast<std::size_t>(kCampaignRuns) +
                static_cast<std::size_t>(run)]
              .outcome;
      bound = r.bound;
      if (scenario.targets_replica) {
        if (r.target_convicted) ++detected;
        if (r.peer_convicted) ++false_conv;
      } else if (r.target_convicted || r.peer_convicted) {
        // NoC faults hit the mesh, not a replica: any conviction blames a
        // healthy core for the network's sins.
        ++false_conv;
      }
      if (r.detection_latency) latency_ms.add(rtc::to_ms(*r.detection_latency));
      restarts += r.restarts;
      if (r.degraded) ++degraded;
      corrupt += r.corrupt_delivered;
      if (r.gap) ++gap_runs;
      if (r.duplicate) ++dup_runs;
      throughput.add(r.recovered_throughput_hz);
    }
    const std::string coverage =
        scenario.targets_replica
            ? std::to_string(detected) + "/" + std::to_string(kCampaignRuns)
            : "n/a";
    table.add_row({scenario.mode, scenario.param, coverage,
                   std::to_string(false_conv),
                   latency_ms.empty() ? "-"
                                      : ms(latency_ms.mean()) + " / " + ms(latency_ms.max()),
                   ms(rtc::to_ms(bound)), std::to_string(restarts),
                   std::to_string(degraded), std::to_string(corrupt),
                   std::to_string(gap_runs),
                   util::format_double(throughput.mean(), 1)});
    csv.add_row({scenario.mode, scenario.param, std::to_string(kCampaignRuns),
                 std::to_string(detected), std::to_string(false_conv),
                 latency_ms.empty() ? "" : util::format_double(latency_ms.mean(), 3),
                 latency_ms.empty() ? "" : util::format_double(latency_ms.max(), 3),
                 util::format_double(rtc::to_ms(bound), 3), std::to_string(restarts),
                 std::to_string(degraded), std::to_string(corrupt),
                 std::to_string(gap_runs), std::to_string(dup_runs),
                 util::format_double(throughput.mean(), 1)});
  }

  std::cout << table << "\n";
  std::cout << "Nominal consumer throughput is 100 tok/s (10 ms period); the\n"
               "throughput column is measured over the final 500 ms, i.e. after\n"
               "recovery (or degradation to single-replica pass-through).\n\n";
  if (csv.write_file(csv_path)) {
    // stderr, like the wall clock: the path varies across invocations while
    // stdout must stay byte-diffable between job counts.
    std::cerr << "Series written to " << csv_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace sccft::bench

int main(int argc, char** argv) {
  sccft::util::CliParser cli("fault_campaign",
                             "Expanded fault-model campaign under supervision");
  sccft::util::add_jobs_flag(cli);
  cli.add_flag("csv", "/tmp/sccft_fault_campaign.csv", "output CSV path");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  return sccft::bench::run(sccft::util::get_jobs(cli), cli.get("csv"));
}

// Supervisor tests: detections auto-trigger restart + reintegration with
// backoff, detection latency stays within the analytic Eq. (6)-(8) bound,
// exhausted restart budgets degrade gracefully (network keeps draining), and
// the health state machine leaves a faithful transition trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "ft/fault_plan.hpp"
#include "ft/framework.hpp"
#include "ft/supervisor.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "scc/watchdog.hpp"
#include "trace/bus.hpp"

namespace sccft::ft {
namespace {

struct Rig {
  sim::Simulator simulator;
  kpn::Network net{simulator};
  ft::AppTimingSpec timing;
  std::optional<FaultTolerantHarness> harness;
  std::vector<kpn::Process*> replicas;
  std::vector<std::uint64_t> consumed;
  bool gap = false;
  bool duplicate = false;
  std::uint64_t corrupt_delivered = 0;

  Rig() {
    timing.producer = rtc::PJD::from_ms(10, 1, 10);
    timing.replica1_in = timing.replica1_out = rtc::PJD::from_ms(10, 2, 10);
    timing.replica2_in = timing.replica2_out = rtc::PJD::from_ms(10, 6, 10);
    timing.consumer = rtc::PJD::from_ms(10, 1, 10);
    harness.emplace(net, FaultTolerantHarness::Config{.timing = timing});

    net.add_process("producer", scc::CoreId{0}, 1,
                    [this](kpn::ProcessContext& ctx) -> sim::Task {
                      kpn::TimingShaper shaper(timing.producer, 0, ctx.rng());
                      for (std::uint64_t k = 0;; ++k) {
                        const rtc::TimeNs t = shaper.next_emission(ctx.now());
                        if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                        std::vector<std::uint8_t> payload(4, static_cast<std::uint8_t>(k));
                        co_await kpn::write(harness->replicator(),
                                            kpn::Token(std::move(payload), k, ctx.now()));
                        shaper.commit(ctx.now());
                      }
                    });

    auto replica_body = [this](ReplicaIndex which, rtc::PJD model) {
      return [this, which, model](kpn::ProcessContext& ctx) -> sim::Task {
        kpn::TimingShaper emit(model, ctx.now(), ctx.rng());
        while (true) {
          SCCFT_FAULT_GATE(ctx);
          kpn::Token token =
              co_await kpn::read(harness->replicator().read_interface(which));
          SCCFT_FAULT_GATE(ctx);
          const rtc::TimeNs t = emit.next_emission(ctx.now());
          if (t > ctx.now()) co_await ctx.compute(t - ctx.now());
          SCCFT_FAULT_GATE(ctx);
          co_await kpn::write(harness->selector().write_interface(which), token);
          emit.commit(ctx.now());
        }
      };
    };
    replicas.push_back(&net.add_process(
        "r1", scc::CoreId{2}, 2, replica_body(ReplicaIndex::kReplica1, timing.replica1_out)));
    replicas.push_back(&net.add_process(
        "r2", scc::CoreId{4}, 3, replica_body(ReplicaIndex::kReplica2, timing.replica2_out)));

    net.add_process("consumer", scc::CoreId{6}, 4,
                    [this](kpn::ProcessContext& ctx) -> sim::Task {
                      kpn::TimingShaper shaper(timing.consumer, 0, ctx.rng());
                      std::uint64_t expected = 0;
                      while (true) {
                        const rtc::TimeNs t = shaper.next_emission(ctx.now());
                        if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                        kpn::Token token = co_await kpn::read(harness->selector());
                        shaper.commit(ctx.now());
                        if (token.seq() > expected) gap = true;
                        if (token.seq() < expected) duplicate = true;
                        if (!token.verify_checksum()) ++corrupt_delivered;
                        expected = token.seq() + 1;
                        consumed.push_back(token.seq());
                      }
                    });
  }

  [[nodiscard]] std::array<ReplicaAssets, 2> assets() {
    return {ReplicaAssets{ReplicaIndex::kReplica1, {replicas[0]}, {}},
            ReplicaAssets{ReplicaIndex::kReplica2, {replicas[1]}, {}}};
  }

  [[nodiscard]] FaultCampaign::Wiring wiring() {
    FaultCampaign::Wiring w;
    w.replicator = &harness->replicator();
    w.selector = &harness->selector();
    w.processes = {{replicas[0]}, {replicas[1]}};
    return w;
  }

  /// The tightest analytic detection bound applicable to a silence fault.
  [[nodiscard]] rtc::TimeNs detection_bound() const {
    return std::min(harness->sizing().replicator_overflow_bound,
                    harness->sizing().selector_latency_bound);
  }
};

TEST(Supervisor, SilenceFaultIsAutoRecoveredWithinTheAnalyticBound) {
  Rig rig;
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), rig.assets(),
                        {.restart_budget = 3,
                         .initial_backoff = rtc::from_ms(20.0),
                         .detection_latency_bound = rig.detection_bound()});
  FaultCampaign campaign(rig.simulator, rig.wiring());
  campaign.add({.kind = FaultKind::kPermanentSilence,
                .replica = ReplicaIndex::kReplica1,
                .at = rtc::from_ms(300.0)});
  campaign.arm();
  rig.net.run_until(rtc::from_sec(2.0));

  // The fault was detected, the replica restarted, and it is healthy again.
  const auto& report = supervisor.report(ReplicaIndex::kReplica1);
  EXPECT_EQ(report.health, ReplicaHealth::kHealthy);
  EXPECT_EQ(report.faults_seen, 1u);
  EXPECT_EQ(report.restarts, 1);
  ASSERT_EQ(report.detection_latencies.size(), 1u);
  EXPECT_LE(report.detection_latencies[0], rig.detection_bound());
  EXPECT_EQ(report.detections_within_bound, 1u);
  ASSERT_TRUE(report.mean_time_to_repair().has_value());
  EXPECT_GE(*report.mean_time_to_repair(), rtc::from_ms(20.0));  // backoff floor

  // Stream integrity across fault + automatic repair.
  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 180u);
  // The repaired replica participates again.
  EXPECT_FALSE(rig.harness->selector().fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(rig.harness->replicator().fault(ReplicaIndex::kReplica1));
  // The untouched replica was never suspected.
  EXPECT_EQ(supervisor.report(ReplicaIndex::kReplica2).faults_seen, 0u);

  // Transition trace: healthy -> convicted -> restarting -> healthy.
  std::vector<ReplicaHealth> seen;
  for (const auto& t : supervisor.transitions()) {
    ASSERT_EQ(t.replica, ReplicaIndex::kReplica1);
    seen.push_back(t.to);
  }
  EXPECT_EQ(seen, (std::vector<ReplicaHealth>{ReplicaHealth::kConvicted,
                                              ReplicaHealth::kRestarting,
                                              ReplicaHealth::kHealthy}));

  // The report is a view of the metrics registry — the registry's raw
  // counters/series must agree with it field for field.
  const auto& metrics = rig.simulator.trace().metrics();
  EXPECT_EQ(metrics.counter("supervisor.R1.faults_seen"), report.faults_seen);
  EXPECT_EQ(metrics.counter("supervisor.R1.restarts"),
            static_cast<std::uint64_t>(report.restarts));
  EXPECT_EQ(metrics.counter("supervisor.R1.detections_within_bound"),
            report.detections_within_bound);
  const auto* latencies = metrics.find_series("supervisor.R1.detection_latency_ns");
  ASSERT_NE(latencies, nullptr);
  EXPECT_EQ(latencies->samples(), report.detection_latencies);
  const auto* repairs = metrics.find_series("supervisor.R1.repair_time_ns");
  ASSERT_NE(repairs, nullptr);
  EXPECT_EQ(repairs->samples(), report.repair_times);
  // The never-suspected replica has no registry footprint beyond zeros.
  EXPECT_EQ(metrics.counter("supervisor.R2.faults_seen"), 0u);
  EXPECT_EQ(metrics.counter("supervisor.R2.restarts"), 0u);
}

TEST(Supervisor, RepeatedFaultsAreEachRecoveredUntilBudgetLasts) {
  Rig rig;
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), rig.assets(),
                        {.restart_budget = 3,
                         .initial_backoff = rtc::from_ms(20.0)});
  FaultCampaign campaign(rig.simulator, rig.wiring());
  campaign.add({.kind = FaultKind::kPermanentSilence,
                .replica = ReplicaIndex::kReplica1,
                .at = rtc::from_ms(300.0)});
  campaign.add({.kind = FaultKind::kPermanentSilence,
                .replica = ReplicaIndex::kReplica1,
                .at = rtc::from_ms(1'000.0)});
  campaign.arm();
  rig.net.run_until(rtc::from_sec(2.0));

  const auto& report = supervisor.report(ReplicaIndex::kReplica1);
  EXPECT_EQ(report.health, ReplicaHealth::kHealthy);
  EXPECT_EQ(report.faults_seen, 2u);
  EXPECT_EQ(report.restarts, 2);
  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 180u);
  // Backoff grew: the second repair waited at least factor x initial.
  ASSERT_EQ(report.repair_times.size(), 2u);
  EXPECT_GE(report.repair_times[1], rtc::from_ms(40.0));
}

TEST(Supervisor, ExhaustedBudgetDegradesGracefullyAndNetworkKeepsDraining) {
  Rig rig;
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), rig.assets(),
                        {.restart_budget = 1,
                         .initial_backoff = rtc::from_ms(20.0)});
  FaultCampaign campaign(rig.simulator, rig.wiring());
  campaign.add({.kind = FaultKind::kPermanentSilence,
                .replica = ReplicaIndex::kReplica1,
                .at = rtc::from_ms(300.0)});
  campaign.add({.kind = FaultKind::kPermanentSilence,
                .replica = ReplicaIndex::kReplica1,
                .at = rtc::from_ms(800.0)});
  campaign.arm();

  std::size_t consumed_at_degradation = 0;
  rig.simulator.schedule_at(rtc::from_sec(1.2), [&] {
    consumed_at_degradation = rig.consumed.size();
  });
  rig.net.run_until(rtc::from_sec(2.0));

  // Budget spent on the first fault; the second one degrades the replica.
  const auto& report = supervisor.report(ReplicaIndex::kReplica1);
  EXPECT_EQ(report.health, ReplicaHealth::kDegraded);
  EXPECT_EQ(report.restarts, 1);
  EXPECT_EQ(report.faults_seen, 2u);
  EXPECT_TRUE(supervisor.any_replica_serviceable());
  EXPECT_EQ(supervisor.health(ReplicaIndex::kReplica2), ReplicaHealth::kHealthy);

  // Graceful degradation: no deadlock — the network kept draining on the
  // remaining replica long after the budget ran out, with no token lost.
  EXPECT_GT(rig.consumed.size(), consumed_at_degradation + 50);
  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 180u);

  // The trace ends in the terminal degraded state.
  ASSERT_FALSE(supervisor.transitions().empty());
  EXPECT_EQ(supervisor.transitions().back().to, ReplicaHealth::kDegraded);
}

TEST(Supervisor, PersistentCorruptionFlapsUntilDegradedWithZeroFalseConvictions) {
  Rig rig;
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), rig.assets(),
                        {.restart_budget = 2,
                         .initial_backoff = rtc::from_ms(20.0)});
  FaultCampaign campaign(rig.simulator, rig.wiring());
  // Corruption with no end time: the tamper survives restarts (the "repair"
  // does not fix the broken core), so the replica flaps until its budget is
  // gone and it is retired.
  campaign.add({.kind = FaultKind::kPayloadCorruption,
                .replica = ReplicaIndex::kReplica2,
                .at = rtc::from_ms(300.0),
                .corrupt_probability = 1.0,
                .seed = 11});
  campaign.arm();
  rig.net.run_until(rtc::from_sec(3.0));

  const auto& report = supervisor.report(ReplicaIndex::kReplica2);
  EXPECT_EQ(report.health, ReplicaHealth::kDegraded);
  EXPECT_EQ(report.restarts, 2);
  EXPECT_EQ(report.faults_seen, 3u);  // convicted once per restart cycle

  // Detection quality: the consumer never saw a corrupted payload, never
  // missed a token, and the healthy replica was never falsely convicted.
  EXPECT_EQ(rig.corrupt_delivered, 0u);
  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 280u);
  EXPECT_EQ(supervisor.report(ReplicaIndex::kReplica1).faults_seen, 0u);
  EXPECT_EQ(supervisor.health(ReplicaIndex::kReplica1), ReplicaHealth::kHealthy);
}

TEST(Supervisor, TransientFaultBelowDetectionRadarNeedsNoRestart) {
  Rig rig;
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), rig.assets(),
                        {.restart_budget = 3,
                         .initial_backoff = rtc::from_ms(20.0)});
  FaultCampaign campaign(rig.simulator, rig.wiring());
  // A 15 ms hiccup is absorbed by the queues sized per Eq. (3)-(5): no
  // detection rule fires, so the supervisor must stay entirely quiet.
  campaign.add({.kind = FaultKind::kTransientSilence,
                .replica = ReplicaIndex::kReplica1,
                .at = rtc::from_ms(300.0),
                .duration = rtc::from_ms(15.0)});
  campaign.arm();
  rig.net.run_until(rtc::from_sec(1.0));

  EXPECT_EQ(supervisor.report(ReplicaIndex::kReplica1).restarts, 0);
  EXPECT_TRUE(supervisor.transitions().empty());
  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 80u);
}

// --- heartbeat beacon + hang / watchdog interplay --------------------------

struct HeartbeatLog : trace::Sink {
  std::vector<trace::Event> events;
  void on_event(const trace::Event& event) override { events.push_back(event); }
};

TEST(Supervisor, HeartbeatBeaconIsStrictlyMonotoneAndMatchesTheCounter) {
  Rig rig;
  HeartbeatLog log;
  rig.simulator.trace().subscribe(&log,
                                  trace::bit(trace::EventKind::kHeartbeat));
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), rig.assets(),
                        {.restart_budget = 3,
                         .initial_backoff = rtc::from_ms(20.0),
                         .heartbeat_period = rtc::from_ms(25.0)});
  rig.net.run_until(rtc::from_sec(1.0));

  // ~40 beats in a second; every beat strictly later than the previous one
  // and carrying a strictly increasing beat count.
  EXPECT_EQ(supervisor.heartbeats(), log.events.size());
  EXPECT_GE(log.events.size(), 39u);
  for (std::size_t i = 1; i < log.events.size(); ++i) {
    EXPECT_GT(log.events[i].time, log.events[i - 1].time);
    EXPECT_EQ(log.events[i].a, log.events[i - 1].a + 1);
  }
  // Bus-observer view and registry view agree (the spine oracle's check).
  EXPECT_EQ(rig.simulator.trace().metrics().counter("supervisor.heartbeats"),
            supervisor.heartbeats());
  rig.simulator.trace().unsubscribe(&log);
}

TEST(Supervisor, DisabledHeartbeatKeepsTheSupervisorSilent) {
  Rig rig;
  HeartbeatLog log;
  rig.simulator.trace().subscribe(&log,
                                  trace::bit(trace::EventKind::kHeartbeat));
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), rig.assets(),
                        {.restart_budget = 3,
                         .initial_backoff = rtc::from_ms(20.0)});
  rig.net.run_until(rtc::from_ms(500.0));
  EXPECT_EQ(supervisor.heartbeats(), 0u);
  EXPECT_TRUE(log.events.empty());
  rig.simulator.trace().unsubscribe(&log);
}

TEST(Supervisor, HangSwallowsTheDetectionUntilTheWatchdogResets) {
  Rig rig;
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), rig.assets(),
                        {.restart_budget = 3,
                         .initial_backoff = rtc::from_ms(20.0),
                         .heartbeat_period = rtc::from_ms(25.0)});
  scc::WatchdogTimer watchdog(rig.simulator,
                              {.deadline = rtc::from_ms(120.0), .name = "wd"});
  const int channel = watchdog.add_channel(
      "supervisor", scc::TileId{1}, [&] { supervisor.on_self_watchdog_reset(); });
  supervisor.attach_watchdog(&watchdog, channel);
  watchdog.arm_all();

  FaultCampaign::Wiring wiring = rig.wiring();
  wiring.supervisor = &supervisor;
  FaultCampaign campaign(rig.simulator, wiring);
  // The supervisor hangs permanently (duration 0: software never clears it)
  // just before R1 falls silent. The detection fires into a deaf supervisor;
  // only the watchdog reset can revive it and re-drive the standing verdict.
  campaign.add({.kind = FaultKind::kSupervisorHang, .at = rtc::from_ms(300.0)});
  campaign.add({.kind = FaultKind::kPermanentSilence,
                .replica = ReplicaIndex::kReplica1,
                .at = rtc::from_ms(350.0)});
  campaign.arm();
  rig.net.run_until(rtc::from_sec(2.0));

  EXPECT_FALSE(supervisor.hung());
  const auto& metrics = rig.simulator.trace().metrics();
  EXPECT_EQ(metrics.counter("supervisor.hangs"), 1u);
  EXPECT_GE(metrics.counter("supervisor.watchdog_resets"), 1u);
  EXPECT_GE(watchdog.resets(channel), 1u);
  // The fault was still recovered end to end, and no token was lost.
  const auto& report = supervisor.report(ReplicaIndex::kReplica1);
  EXPECT_EQ(report.health, ReplicaHealth::kHealthy);
  EXPECT_EQ(report.restarts, 1);
  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  // Heartbeats resumed after the reset: the beacon outlived the hang window.
  EXPECT_GT(supervisor.heartbeats(),
            static_cast<std::uint64_t>(300 / 25));  // more than the pre-hang count
}

TEST(Supervisor, BackToBackCoreWatchdogResetsConsumeTheRestartBudget) {
  Rig rig;
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), rig.assets(),
                        {.restart_budget = 1,
                         .initial_backoff = rtc::from_ms(20.0)});
  // Two hardware reset-line firings against R2, far enough apart that the
  // first recovery completes. Budget 1: the first reset restarts, the second
  // must degrade — the watchdog feeds the same budget as every other rule.
  rig.simulator.schedule_at(rtc::from_ms(300.0), [&] {
    supervisor.on_core_watchdog_reset(ReplicaIndex::kReplica2);
  });
  rig.simulator.schedule_at(rtc::from_ms(900.0), [&] {
    supervisor.on_core_watchdog_reset(ReplicaIndex::kReplica2);
  });
  rig.net.run_until(rtc::from_sec(2.0));

  const auto& report = supervisor.report(ReplicaIndex::kReplica2);
  EXPECT_EQ(report.health, ReplicaHealth::kDegraded);
  EXPECT_EQ(report.restarts, 1);
  EXPECT_EQ(report.faults_seen, 2u);
  // The stream kept draining on the surviving replica.
  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 180u);
  EXPECT_EQ(supervisor.health(ReplicaIndex::kReplica1), ReplicaHealth::kHealthy);
}

// --- backoff_duration ------------------------------------------------------
// Regression: the old O(restarts) multiply loop overflowed the double to inf
// for large restart counts, and the final cast of an out-of-range double to
// TimeNs is undefined behavior. The closed form must saturate exactly.

TEST(BackoffDuration, SmallCountsFollowTheExponential) {
  const Supervisor::Config config{.initial_backoff = rtc::from_ms(20.0),
                                  .backoff_factor = 2.0,
                                  .max_backoff = rtc::from_ms(500.0)};
  EXPECT_EQ(backoff_duration(config, 0), rtc::from_ms(20.0));
  EXPECT_EQ(backoff_duration(config, 1), rtc::from_ms(40.0));
  EXPECT_EQ(backoff_duration(config, 2), rtc::from_ms(80.0));
  EXPECT_EQ(backoff_duration(config, 3), rtc::from_ms(160.0));
  EXPECT_EQ(backoff_duration(config, 4), rtc::from_ms(320.0));
  EXPECT_EQ(backoff_duration(config, 5), rtc::from_ms(500.0));  // clamped
}

TEST(BackoffDuration, HugeRestartCountsSaturateToMax) {
  const Supervisor::Config config{.initial_backoff = rtc::from_ms(20.0),
                                  .backoff_factor = 2.0,
                                  .max_backoff = rtc::from_ms(500.0)};
  // Anything past the saturation point — including counts whose naive
  // factor^n is far beyond double range — returns max_backoff exactly.
  for (const std::uint64_t restarts :
       {std::uint64_t{64}, std::uint64_t{1'000}, std::uint64_t{1'000'000},
        std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    EXPECT_EQ(backoff_duration(config, restarts), config.max_backoff)
        << "restarts=" << restarts;
  }
}

TEST(BackoffDuration, MonotoneNonDecreasingInRestarts) {
  const Supervisor::Config config{.initial_backoff = rtc::from_ms(20.0),
                                  .backoff_factor = 1.7,
                                  .max_backoff = rtc::from_ms(500.0)};
  rtc::TimeNs prev = 0;
  for (std::uint64_t restarts = 0; restarts <= 100; ++restarts) {
    const rtc::TimeNs backoff = backoff_duration(config, restarts);
    EXPECT_GE(backoff, prev) << "restarts=" << restarts;
    EXPECT_LE(backoff, config.max_backoff);
    prev = backoff;
  }
  EXPECT_EQ(prev, config.max_backoff);
}

TEST(BackoffDuration, DegenerateConfigsStayClamped) {
  // factor 1.0: constant backoff.
  EXPECT_EQ(backoff_duration({.initial_backoff = rtc::from_ms(20.0),
                              .backoff_factor = 1.0,
                              .max_backoff = rtc::from_ms(500.0)},
                             1'000'000),
            rtc::from_ms(20.0));
  // initial 0: stays 0 forever.
  EXPECT_EQ(backoff_duration({.initial_backoff = 0,
                              .backoff_factor = 2.0,
                              .max_backoff = rtc::from_ms(500.0)},
                             1'000'000),
            0);
  // initial == max: clamped from the first restart.
  EXPECT_EQ(backoff_duration({.initial_backoff = rtc::from_ms(500.0),
                              .backoff_factor = 2.0,
                              .max_backoff = rtc::from_ms(500.0)},
                             1),
            rtc::from_ms(500.0));
}

}  // namespace
}  // namespace sccft::ft

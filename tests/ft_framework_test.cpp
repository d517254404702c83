// FaultTolerantHarness + FaultInjector tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/mjpeg/app.hpp"
#include "ft/framework.hpp"
#include "kpn/network.hpp"
#include "util/assert.hpp"

namespace sccft::ft {
namespace {

AppTimingSpec mjpeg_timing() { return apps::mjpeg::make_application().timing; }

TEST(Harness, BuildsDimensionedChannels) {
  sim::Simulator sim;
  kpn::Network net(sim);
  FaultTolerantHarness harness(net, {.timing = mjpeg_timing()});
  EXPECT_EQ(harness.sizing().replicator_capacity1, 2);
  EXPECT_EQ(harness.sizing().replicator_capacity2, 3);
  EXPECT_EQ(harness.selector().space(ReplicaIndex::kReplica1), 4 - 2);
  EXPECT_EQ(harness.selector().space(ReplicaIndex::kReplica2), 6 - 3);
  EXPECT_NE(net.find_channel("ft.replicator"), nullptr);
  EXPECT_NE(net.find_channel("ft.selector"), nullptr);
}

TEST(Harness, PrecomputedReportBuildsTheSameChannels) {
  // Size-once callers (fleet, ExperimentRunner) hand the harness a report
  // computed earlier; the channels must come out exactly as if the harness
  // had run the analysis itself.
  const AppTimingSpec timing = mjpeg_timing();
  sim::Simulator sim;
  kpn::Network net(sim);
  FaultTolerantHarness own(net, {.timing = timing, .name_prefix = "own"});
  FaultTolerantHarness given(net, {.timing = timing, .name_prefix = "given"},
                             timing.analyze());
  EXPECT_EQ(given.sizing(), own.sizing());
  for (const ReplicaIndex r : {ReplicaIndex::kReplica1, ReplicaIndex::kReplica2}) {
    EXPECT_EQ(given.replicator().capacity(r), own.replicator().capacity(r));
    EXPECT_EQ(given.selector().space(ReplicaIndex{r}), own.selector().space(ReplicaIndex{r}));
  }
  EXPECT_EQ(given.selector().divergence_threshold(),
            own.selector().divergence_threshold());
}

TEST(Harness, NReplicaPrecomputedReportBuildsTheSameChannels) {
  for (const bool vote : {false, true}) {
    NReplicaHarness::Config config;
    config.producer = rtc::PJD::from_ms(30, 2, 30);
    config.consumer = rtc::PJD::from_ms(30, 2, 30);
    config.replica_in = {rtc::PJD::from_ms(30, 10, 30), rtc::PJD::from_ms(30, 20, 30),
                         rtc::PJD::from_ms(30, 30, 30)};
    config.replica_out = config.replica_in;
    config.enable_payload_vote = vote;
    sim::Simulator sim;
    kpn::Network net(sim);
    config.name_prefix = "own";
    NReplicaHarness own(net, config);
    config.name_prefix = "given";
    NReplicaHarness given(net, config, config.analyze());
    SCOPED_TRACE(vote ? "payload vote" : "no vote");
    EXPECT_EQ(given.sizing(), own.sizing());
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(given.selector().space(ReplicaIndex{r}), own.selector().space(ReplicaIndex{r})) << "replica " << r;
    }
    // Replicator capacities: the overflow rule fires on the same write.
    auto writes_until_overflow = [](NReplicaHarness& harness) {
      int writes = 0;
      while (!harness.replicator().fault(ReplicaIndex{2})) {
        (void)harness.replicator().try_write(
            kpn::Token(std::vector<std::uint8_t>{1}, static_cast<std::uint64_t>(writes), 0));
        ++writes;
      }
      return writes;
    };
    const int own_writes = writes_until_overflow(own);
    EXPECT_EQ(writes_until_overflow(given), own_writes);
    EXPECT_EQ(own_writes, own.sizing().replicator_capacity[2] + 1);
  }
}

TEST(Harness, DivergenceOverrideApplies) {
  sim::Simulator sim;
  kpn::Network net(sim);
  FaultTolerantHarness harness(
      net, {.timing = mjpeg_timing(), .divergence_threshold_override = 9});
  // Detections only via observer; verify override by driving the selector.
  auto& w2 = harness.selector().write_interface(ReplicaIndex::kReplica2);
  for (std::uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(w2.try_write(kpn::Token(std::vector<std::uint8_t>{1}, k, 0)));
    (void)harness.selector().try_read();
  }
  // W2-W1 = 8 < 9: no divergence fault; and stall rule may fire instead, so
  // disable comparison there — only check divergence did not trigger.
  const auto detection = harness.selector().detection(ReplicaIndex::kReplica1);
  if (detection) {
    EXPECT_NE(detection->rule, DetectionRule::kSelectorDivergence);
  }
}

TEST(Harness, CapacityOverrideApplies) {
  sim::Simulator sim;
  kpn::Network net(sim);
  FaultTolerantHarness harness(
      net, {.timing = mjpeg_timing(), .replicator_capacity_override = 7});
  EXPECT_EQ(harness.replicator().space(ReplicaIndex::kReplica1), 7);
  EXPECT_EQ(harness.replicator().space(ReplicaIndex::kReplica2), 7);
}

TEST(Harness, NegativeOverridesAreRejectedWithTheOffendingValue) {
  // 0 means "use the analyzed size"; a negative override is neither unset
  // nor legal, and silently falling back to the analysis would hide the
  // caller's bug. The diagnostic must carry the value that was passed.
  sim::Simulator sim;
  kpn::Network net(sim);
  try {
    FaultTolerantHarness harness(
        net, {.timing = mjpeg_timing(), .divergence_threshold_override = -3});
    FAIL() << "negative divergence override accepted";
  } catch (const util::ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("divergence_threshold_override"),
              std::string::npos);
    EXPECT_NE(std::string(violation.what()).find("-3"), std::string::npos);
  }
  try {
    FaultTolerantHarness harness(
        net, {.timing = mjpeg_timing(), .replicator_capacity_override = -7});
    FAIL() << "negative capacity override accepted";
  } catch (const util::ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("replicator_capacity_override"),
              std::string::npos);
    EXPECT_NE(std::string(violation.what()).find("-7"), std::string::npos);
  }
}

TEST(Harness, DetectionLogAggregatesBothChannels) {
  sim::Simulator sim;
  kpn::Network net(sim);
  FaultTolerantHarness harness(net, {.timing = mjpeg_timing()});
  // Force a replicator overflow (3 writes into |R1|=2 with nobody reading).
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(harness.replicator().try_write(kpn::Token({1}, k, 0)));
  }
  EXPECT_TRUE(harness.detections().first_replicator().has_value());
  EXPECT_TRUE(harness.detections().first().has_value());
  EXPECT_FALSE(harness.detections().first_selector().has_value());
}

TEST(Injector, SilenceParksProcessAtGate) {
  sim::Simulator sim;
  kpn::Network net(sim);
  int iterations = 0;
  auto& victim = net.add_process(
      "victim", scc::CoreId{0}, 1, [&](kpn::ProcessContext& ctx) -> sim::Task {
        while (true) {
          SCCFT_FAULT_GATE(ctx);
          ++iterations;
          co_await ctx.delay(100);
        }
      });
  FaultInjector injector(sim);
  injector.schedule({&victim}, 1'000, FaultMode::kSilence);
  net.run_until(10'000);
  EXPECT_TRUE(injector.fired());
  // ~10 iterations before the fault at t=1000, none after (one gate pass).
  EXPECT_LE(iterations, 12);
  EXPECT_GE(iterations, 9);
}

TEST(Injector, RateDegradationSlowsCompute) {
  sim::Simulator sim;
  kpn::Network net(sim);
  std::vector<rtc::TimeNs> ticks;
  auto& victim = net.add_process(
      "victim", scc::CoreId{0}, 1, [&](kpn::ProcessContext& ctx) -> sim::Task {
        while (true) {
          co_await ctx.compute(100);
          ticks.push_back(ctx.now());
        }
      });
  FaultInjector injector(sim);
  injector.schedule({&victim}, 1'000, FaultMode::kRateDegradation, 4.0);
  net.run_until(3'000);
  // Before t=1000: ticks every 100. After: every 400.
  ASSERT_GT(ticks.size(), 12u);
  EXPECT_EQ(ticks[9], 1'000);
  EXPECT_EQ(ticks[10], 1'400);
  EXPECT_EQ(ticks[11], 1'800);
}

TEST(Injector, SingleFaultHypothesisEnforced) {
  sim::Simulator sim;
  kpn::Network net(sim);
  auto& p = net.add_process("p", scc::CoreId{0}, 1,
                            [](kpn::ProcessContext&) -> sim::Task { co_return; });
  FaultInjector injector(sim);
  injector.schedule({&p}, 100);
  EXPECT_THROW(injector.schedule({&p}, 200), util::ContractViolation);
}

TEST(Injector, RateFactorMustExceedOne) {
  sim::Simulator sim;
  kpn::Network net(sim);
  auto& p = net.add_process("p", scc::CoreId{0}, 1,
                            [](kpn::ProcessContext&) -> sim::Task { co_return; });
  FaultInjector injector(sim);
  EXPECT_THROW(injector.schedule({&p}, 100, FaultMode::kRateDegradation, 1.0),
               util::ContractViolation);
}

TEST(TimingSpec, HorizonCoversLargestModel) {
  const auto spec = mjpeg_timing();
  EXPECT_GE(spec.default_horizon(), 100 * spec.producer.period);
}

}  // namespace
}  // namespace sccft::ft

// Adaptation-policy tests (src/adapt/policy.hpp) and the weakly-hard (m,K)
// window it acts on (rtc/online/weakly_hard.hpp).
//
// The window is tested as a pure data structure: breach exactly above m
// misses in the last K checks, sliding forgiveness, and a lossless
// state round-trip (the rtc/serialize "mk-window" line rides on from_state).
//
// The policy is tested against a real simulator + channel pair + controller,
// with the monitor's stimuli synthesized directly on the trace bus: the
// graduated ladder (widen D at `widen_at` misses, grow FIFOs at
// `resize_at`), both hysteresis guards (deadband, cooldown), and the urgent
// live-occupancy floor that bypasses both.
#include <gtest/gtest.h>

#include <optional>

#include "adapt/policy.hpp"
#include "adapt/reconfig.hpp"
#include "ft/replicator.hpp"
#include "ft/selector.hpp"
#include "rtc/online/dimensioner.hpp"
#include "rtc/online/weakly_hard.hpp"
#include "sim/simulator.hpp"
#include "trace/event.hpp"
#include "util/assert.hpp"

namespace sccft::adapt {
namespace {

using ft::ReplicaIndex;
using rtc::online::AdaptationConfig;
using rtc::online::OnlineMargins;
using rtc::online::WeaklyHardParams;
using rtc::online::WeaklyHardWindow;

// --- the (m,K) window -------------------------------------------------------

TEST(WeaklyHardWindow, BreachesOnlyAboveMMissesInWindow) {
  WeaklyHardWindow window(WeaklyHardParams{.m = 2, .K = 5});
  EXPECT_FALSE(window.record(true));
  EXPECT_FALSE(window.record(true));
  EXPECT_EQ(window.misses(), 2);
  EXPECT_FALSE(window.breached());
  EXPECT_TRUE(window.record(true));  // third miss in 5 > m = 2
  EXPECT_TRUE(window.breached());
}

TEST(WeaklyHardWindow, SlidingWindowForgetsOldMisses) {
  WeaklyHardWindow window(WeaklyHardParams{.m = 1, .K = 3});
  EXPECT_FALSE(window.record(true));
  EXPECT_FALSE(window.record(false));
  EXPECT_FALSE(window.record(false));
  // The original miss has slid out: a fresh miss is again the only one.
  EXPECT_FALSE(window.record(true));
  EXPECT_EQ(window.misses(), 1);
}

TEST(WeaklyHardWindow, HitsNeverBreach) {
  WeaklyHardWindow window(WeaklyHardParams{.m = 0, .K = 8});
  for (int i = 0; i < 40; ++i) EXPECT_FALSE(window.record(false));
  EXPECT_TRUE(window.record(true));  // m = 0: first miss escalates
}

TEST(WeaklyHardWindow, StateRoundTripIsLossless) {
  WeaklyHardWindow window(WeaklyHardParams{.m = 3, .K = 7});
  const bool pattern[] = {true, false, true, true, false, false, true, false, true};
  for (const bool miss : pattern) window.record(miss);

  const WeaklyHardWindow restored = WeaklyHardWindow::from_state(
      window.params(), window.mask(), window.filled(), window.cursor());
  EXPECT_EQ(restored, window);
  EXPECT_EQ(restored.misses(), window.misses());

  // The restored window continues exactly where the original left off.
  WeaklyHardWindow a = window;
  WeaklyHardWindow b = restored;
  for (const bool miss : {true, true, false, true}) {
    EXPECT_EQ(a.record(miss), b.record(miss));
  }
  EXPECT_EQ(a, b);
}

TEST(WeaklyHardWindow, FromStateRejectsGarbage) {
  const WeaklyHardParams params{.m = 2, .K = 10};
  EXPECT_THROW(WeaklyHardWindow::from_state(params, 0, 0, 10),
               util::ContractViolation);  // cursor out of ring
  EXPECT_THROW(WeaklyHardWindow::from_state(params, 0, 11, 0),
               util::ContractViolation);  // filled > K
  EXPECT_THROW(WeaklyHardWindow::from_state(params, std::uint64_t{1} << 10, 0, 0),
               util::ContractViolation);  // mask bits beyond K
  EXPECT_THROW(WeaklyHardWindow::from_state(params, 0x3, 1, 2),
               util::ContractViolation);  // more misses than checks seen
  EXPECT_THROW(WeaklyHardWindow(WeaklyHardParams{.m = 5, .K = 5}),
               util::ContractViolation);  // m must be < K
}

// --- the policy -------------------------------------------------------------

struct PolicyRig {
  sim::Simulator sim;
  ft::ReplicatorChannel rep;
  ft::SelectorChannel sel;
  ReconfigurationController rc;

  PolicyRig(rtc::Tokens fifo1, rtc::Tokens fifo2, rtc::Tokens divergence)
      : rep(sim, "rep", {.capacities = {fifo1, fifo2}}),
        sel(sim, "sel",
            {.capacities = {12, 12}, .divergence_threshold = divergence}),
        rc(sim, sim.trace(), rep, sel, {.quiesce_window = 1'000'000}) {}

  /// Synthesizes the OnlineMonitor's weakly-hard miss event.
  void miss(rtc::TimeNs at, int misses_in_window) {
    sim.trace().emit(trace::EventKind::kAcceptanceMiss, 0, at, /*replica=*/0,
                     misses_in_window, /*K=*/10);
  }
};

AdaptationConfig reactive_config() {
  AdaptationConfig config;
  config.enabled = true;
  config.deadband = 1;
  config.cooldown = 0;
  config.redimension_period = 0;  // reactive ladder only
  config.widen_at = 1;
  config.resize_at = 2;
  return config;
}

TEST(AdaptationPolicy, FirstRungWidensDivergenceOnly) {
  PolicyRig rig(2, 4, 4);
  AdaptationPolicy policy(rig.sim, rig.sim.trace(), rig.rc, reactive_config(),
                          MeasureFn{});
  rig.miss(1000, /*misses_in_window=*/1);
  EXPECT_EQ(policy.stats().widen_requests, 1u);
  EXPECT_EQ(policy.stats().resize_requests, 0u);
  rig.sim.run_until(2'000'000);
  EXPECT_EQ(rig.rc.divergence(), 6);  // 4 + 50%
  EXPECT_EQ(rig.rc.fifo1(), 2);       // FIFOs untouched at this rung
  EXPECT_EQ(rig.rc.fifo2(), 4);
}

TEST(AdaptationPolicy, SecondRungGrowsTheFifosToo) {
  PolicyRig rig(2, 4, 4);
  AdaptationPolicy policy(rig.sim, rig.sim.trace(), rig.rc, reactive_config(),
                          MeasureFn{});
  rig.miss(1000, /*misses_in_window=*/2);
  EXPECT_EQ(policy.stats().resize_requests, 1u);
  rig.sim.run_until(2'000'000);
  EXPECT_EQ(rig.rc.divergence(), 6);
  EXPECT_EQ(rig.rc.fifo1(), 3);  // 2 + max(1, 50%)
  EXPECT_EQ(rig.rc.fifo2(), 6);  // 4 + 50%
}

TEST(AdaptationPolicy, SubThresholdMissesDoNotActuate) {
  PolicyRig rig(2, 4, 4);
  AdaptationConfig config = reactive_config();
  config.widen_at = 3;
  config.resize_at = 3;
  AdaptationPolicy policy(rig.sim, rig.sim.trace(), rig.rc, config, MeasureFn{});
  rig.miss(1000, 1);
  rig.miss(2000, 2);
  EXPECT_EQ(policy.stats().misses_seen, 2u);
  EXPECT_EQ(rig.rc.stats().windows_opened, 0u);
}

TEST(AdaptationPolicy, CooldownBoundsTheActuationRate) {
  PolicyRig rig(2, 4, 4);
  AdaptationConfig config = reactive_config();
  config.cooldown = rtc::from_ms(10.0);
  AdaptationPolicy policy(rig.sim, rig.sim.trace(), rig.rc, config, MeasureFn{});

  rig.miss(0, 1);
  rig.sim.run_until(2'000'000);  // close the first window
  rig.miss(2'000'000, 1);        // inside the cooldown: suppressed
  EXPECT_EQ(rig.rc.stats().windows_opened, 1u);
  EXPECT_GE(policy.stats().suppressed_cooldown, 1u);

  rig.miss(rtc::from_ms(11.0), 1);  // cooldown expired: acts again
  EXPECT_EQ(rig.rc.stats().windows_opened, 2u);
}

TEST(AdaptationPolicy, MissesDuringAnOpenWindowAreDropped) {
  PolicyRig rig(2, 4, 4);
  AdaptationPolicy policy(rig.sim, rig.sim.trace(), rig.rc, reactive_config(),
                          MeasureFn{});
  rig.miss(0, 1);
  EXPECT_TRUE(rig.rc.window_open());
  rig.miss(500, 1);  // window still open: no second request, no busy bump
  EXPECT_EQ(policy.stats().widen_requests, 1u);
  EXPECT_EQ(rig.rc.stats().rejected_busy, 0u);
}

TEST(AdaptationPolicy, BreachesAreWitnessedNotActedOn) {
  PolicyRig rig(2, 4, 4);
  AdaptationPolicy policy(rig.sim, rig.sim.trace(), rig.rc, reactive_config(),
                          MeasureFn{});
  rig.sim.trace().emit(trace::EventKind::kCurveViolation, 0, 1000, 0, 0, 0);
  EXPECT_EQ(policy.stats().breaches_seen, 1u);
  EXPECT_EQ(rig.rc.stats().windows_opened, 0u);  // conviction is rung 3's job
}

TEST(AdaptationPolicy, ProactiveTickTracksMeasuredDemand) {
  PolicyRig rig(2, 4, 4);
  AdaptationConfig config = reactive_config();
  config.redimension_period = rtc::from_ms(20.0);
  MeasureFn measure = [](rtc::TimeNs) -> std::optional<OnlineMargins> {
    OnlineMargins margins;
    margins.measured_fifo1 = 8;
    margins.measured_fifo2 = 8;
    margins.measured_divergence = 10;
    return margins;
  };
  AdaptationPolicy policy(rig.sim, rig.sim.trace(), rig.rc, config,
                          std::move(measure));
  policy.start();
  rig.sim.run_until(rtc::from_ms(22.0));
  EXPECT_EQ(policy.stats().proactive_requests, 1u);
  // measured + headroom (4), above the empty-channel floors.
  EXPECT_EQ(rig.rc.fifo1(), 12);
  EXPECT_EQ(rig.rc.fifo2(), 12);
  EXPECT_EQ(rig.rc.divergence(), 14);
}

TEST(AdaptationPolicy, DeadbandHoldsSmallCorrections) {
  // Installed sizes sit one token off the measured demand + headroom; the
  // deadband (2) must swallow the whole request.
  PolicyRig rig(13, 12, 9);
  AdaptationConfig config = reactive_config();
  config.deadband = 2;
  config.redimension_period = rtc::from_ms(20.0);
  MeasureFn measure = [](rtc::TimeNs) -> std::optional<OnlineMargins> {
    OnlineMargins margins;
    margins.measured_fifo1 = 8;   // target 12, installed 13
    margins.measured_fifo2 = 8;   // target 12, installed 12
    margins.measured_divergence = 4;  // target 8, installed 9
    return margins;
  };
  AdaptationPolicy policy(rig.sim, rig.sim.trace(), rig.rc, config,
                          std::move(measure));
  policy.start();
  rig.sim.run_until(rtc::from_ms(22.0));
  EXPECT_EQ(rig.rc.stats().windows_opened, 0u);
  EXPECT_EQ(policy.stats().suppressed_deadband, 2u);
  EXPECT_EQ(rig.rc.fifo1(), 13);
  EXPECT_EQ(rig.rc.divergence(), 9);
}

TEST(AdaptationPolicy, OccupancyFloorOverridesEveryHysteresisGuard) {
  // The installed |F1| has decayed inside the live-occupancy floor
  // (fill + 1 + headroom). Even under a cooldown that would otherwise gate
  // actuation for seconds, the repair must go out on the next tick —
  // delaying it is what lets the next token convict.
  PolicyRig rig(2, 8, 9);
  AdaptationConfig config = reactive_config();
  config.cooldown = rtc::from_sec(10.0);
  config.redimension_period = rtc::from_ms(20.0);
  MeasureFn measure = [](rtc::TimeNs) -> std::optional<OnlineMargins> {
    OnlineMargins margins;
    margins.measured_fifo1 = 1;  // the curves see low demand...
    return margins;
  };
  AdaptationPolicy policy(rig.sim, rig.sim.trace(), rig.rc, config,
                          std::move(measure));

  rig.miss(0, 1);  // an action at t=0 arms the cooldown
  ASSERT_EQ(rig.rc.stats().windows_opened, 1u);

  // ...but the queue is physically full: floor = 2 + 1 + 4 = 7.
  for (std::uint64_t seq = 0; seq < 2; ++seq) {
    ASSERT_TRUE(rig.rep.try_write(kpn::Token(
        std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq)}, seq, 0)));
  }
  policy.start();
  rig.sim.run_until(rtc::from_ms(22.0));
  EXPECT_GE(policy.stats().floor_overrides, 1u);
  EXPECT_EQ(policy.stats().proactive_requests, 1u);
  EXPECT_EQ(rig.rc.fifo1(), 7);
  EXPECT_FALSE(rig.rep.fault(ReplicaIndex::kReplica1));
}

TEST(AdaptationPolicy, ConstructorValidatesTheLadder) {
  PolicyRig rig(2, 4, 4);
  AdaptationConfig bad = reactive_config();
  bad.widen_at = 0;
  EXPECT_THROW(AdaptationPolicy(rig.sim, rig.sim.trace(), rig.rc, bad, MeasureFn{}),
               util::ContractViolation);
  bad = reactive_config();
  bad.resize_at = 1;
  bad.widen_at = 2;  // resize rung below the widen rung
  EXPECT_THROW(AdaptationPolicy(rig.sim, rig.sim.trace(), rig.rc, bad, MeasureFn{}),
               util::ContractViolation);
  bad = reactive_config();
  bad.window.K = 65;  // ring no longer fits one word
  EXPECT_THROW(AdaptationPolicy(rig.sim, rig.sim.trace(), rig.rc, bad, MeasureFn{}),
               util::ContractViolation);
}

}  // namespace
}  // namespace sccft::adapt

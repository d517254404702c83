// Fault taxonomy tests: injector campaign contracts, transient silence with
// self-resume, intermittent bursts, payload corruption quarantine/conviction,
// and NoC link faults with bounded retransmission.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "ft/fault_injector.hpp"
#include "ft/fault_plan.hpp"
#include "ft/framework.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "scc/noc.hpp"
#include "util/assert.hpp"

namespace sccft::ft {
namespace {

// ---- duplicated-network rig (same shape as ft_recovery_test) --------------

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

  [[nodiscard]] FaultCampaign::Wiring wiring() {
    FaultCampaign::Wiring w;
    w.replicator = &harness->replicator();
    w.selector = &harness->selector();
    w.processes = {{replicas[0]}, {replicas[1]}};
    return w;
  }
};

// ---- FaultInjector cancel()/reset() contracts -----------------------------

struct InjectorRig {
  sim::Simulator simulator;
  kpn::Network net{simulator};
  kpn::Process* victim = nullptr;

  InjectorRig() {
    victim = &net.add_process("victim", scc::CoreId{0}, 1,
                              [](kpn::ProcessContext& ctx) -> sim::Task {
                                while (true) {
                                  SCCFT_FAULT_GATE(ctx);
                                  co_await ctx.delay(1'000'000);
                                }
                              });
  }
};

TEST(FaultInjector, CancelRevokesAPendingFault) {
  InjectorRig rig;
  FaultInjector injector(rig.simulator);
  injector.schedule({rig.victim}, rtc::from_ms(5.0));
  injector.cancel();
  rig.net.run_until(rtc::from_ms(20.0));

  EXPECT_FALSE(injector.fired());
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(rig.victim->context().fault().faulty());
  // After a cancel the injector is re-armable.
  injector.schedule({rig.victim}, rtc::from_ms(30.0));
  rig.net.run_until(rtc::from_ms(40.0));
  EXPECT_TRUE(injector.fired());
  EXPECT_TRUE(rig.victim->context().fault().silenced);
}

TEST(FaultInjector, CancelWithoutPendingFaultViolatesContract) {
  InjectorRig rig;
  FaultInjector injector(rig.simulator);
  EXPECT_THROW(injector.cancel(), util::ContractViolation);  // never armed

  injector.schedule({rig.victim}, rtc::from_ms(5.0));
  rig.net.run_until(rtc::from_ms(10.0));
  ASSERT_TRUE(injector.fired());
  EXPECT_THROW(injector.cancel(), util::ContractViolation);  // already fired
}

TEST(FaultInjector, ResetReArmsAfterAFiredFault) {
  InjectorRig rig;
  FaultInjector injector(rig.simulator);
  injector.reset();  // legal: nothing scheduled yet
  injector.schedule({rig.victim}, rtc::from_ms(5.0));
  rig.net.run_until(rtc::from_ms(10.0));
  ASSERT_TRUE(injector.fired());

  injector.reset();
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.fired());
  EXPECT_EQ(injector.injected_at(), -1);
  // The single-fault precondition holds again: a second schedule is legal.
  injector.schedule({rig.victim}, rtc::from_ms(20.0), FaultMode::kRateDegradation, 2.0);
  rig.net.run_until(rtc::from_ms(25.0));
  EXPECT_TRUE(injector.fired());
}

TEST(FaultInjector, ResetOverAPendingFaultViolatesContract) {
  InjectorRig rig;
  FaultInjector injector(rig.simulator);
  injector.schedule({rig.victim}, rtc::from_ms(5.0));
  EXPECT_THROW(injector.reset(), util::ContractViolation);  // armed, not fired
  injector.cancel();  // the legal way out
  injector.reset();   // now a no-op
}

// ---- transient silence ----------------------------------------------------

TEST(FaultCampaign, TransientSilenceSelfResumes) {
  Rig rig;
  FaultCampaign campaign(rig.simulator, rig.wiring());
  campaign.add({.kind = FaultKind::kTransientSilence,
                .replica = ReplicaIndex::kReplica1,
                .at = rtc::from_ms(300.0),
                .duration = rtc::from_ms(15.0)});
  campaign.arm();

  std::uint64_t received_at_outage_end = 0;
  rig.simulator.schedule_at(rtc::from_ms(320.0), [&] {
    received_at_outage_end =
        rig.harness->selector().tokens_received(ReplicaIndex::kReplica1);
  });
  rig.net.run_until(rtc::from_sec(1.0));

  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 80u);
  // The halt ended by itself: the fault state is clear and the replica kept
  // delivering tokens after the outage window.
  EXPECT_FALSE(rig.replicas[0]->context().fault().silenced);
  EXPECT_GT(rig.harness->selector().tokens_received(ReplicaIndex::kReplica1),
            received_at_outage_end);
  ASSERT_EQ(campaign.injections().size(), 1u);
  EXPECT_EQ(campaign.injections()[0].kind, FaultKind::kTransientSilence);
  EXPECT_EQ(campaign.injections()[0].at, rtc::from_ms(300.0));
}

// ---- intermittent bursts --------------------------------------------------

TEST(FaultCampaign, IntermittentBurstsFollowTheSeededSchedule) {
  Rig rig;
  FaultCampaign campaign(rig.simulator, rig.wiring());
  campaign.add({.kind = FaultKind::kIntermittentSilence,
                .replica = ReplicaIndex::kReplica2,
                .at = rtc::from_ms(200.0),
                .duration = rtc::from_ms(300.0),
                .burst_on_mean = rtc::from_ms(10.0),
                .burst_off_mean = rtc::from_ms(40.0),
                .seed = 42});
  campaign.arm();
  rig.net.run_until(rtc::from_sec(1.0));

  // Several distinct bursts were injected, all inside the window.
  EXPECT_GE(campaign.injections().size(), 3u);
  for (const auto& burst : campaign.injections()) {
    EXPECT_EQ(burst.kind, FaultKind::kIntermittentSilence);
    EXPECT_EQ(burst.replica, ReplicaIndex::kReplica2);
    EXPECT_GE(burst.at, rtc::from_ms(200.0));
    EXPECT_LT(burst.at, rtc::from_ms(500.0));
  }
  // Short bursts against a large off-time never lose data.
  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 80u);
  // After the window the replica runs clean again.
  EXPECT_FALSE(rig.replicas[1]->context().fault().silenced);
}

TEST(FaultCampaign, IntermittentScheduleIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Rig rig;
    FaultCampaign campaign(rig.simulator, rig.wiring());
    campaign.add({.kind = FaultKind::kIntermittentSilence,
                  .replica = ReplicaIndex::kReplica2,
                  .at = rtc::from_ms(200.0),
                  .duration = rtc::from_ms(300.0),
                  .burst_on_mean = rtc::from_ms(10.0),
                  .burst_off_mean = rtc::from_ms(40.0),
                  .seed = seed});
    campaign.arm();
    rig.net.run_until(rtc::from_sec(0.6));
    std::vector<rtc::TimeNs> times;
    for (const auto& burst : campaign.injections()) times.push_back(burst.at);
    return times;
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---- payload corruption ---------------------------------------------------

TEST(FaultCampaign, CorruptionIsQuarantinedAndConvicted) {
  Rig rig;
  FaultCampaign campaign(rig.simulator, rig.wiring());
  campaign.add({.kind = FaultKind::kPayloadCorruption,
                .replica = ReplicaIndex::kReplica1,
                .at = rtc::from_ms(300.0),
                .corrupt_probability = 1.0,
                .seed = 3});
  campaign.arm();
  rig.net.run_until(rtc::from_sec(1.0));

  // Not a single corrupted token reached the consumer, and the stream shows
  // neither gaps nor duplicates: every quarantined write was covered by the
  // peer's healthy copy.
  EXPECT_EQ(rig.corrupt_delivered, 0u);
  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 80u);

  // Repeated mismatches convicted the corrupting replica — and only it.
  EXPECT_GE(rig.harness->selector().crc_mismatches(ReplicaIndex::kReplica1), 3u);
  ASSERT_TRUE(rig.harness->selector().fault(ReplicaIndex::kReplica1));
  EXPECT_EQ(rig.harness->selector().detection(ReplicaIndex::kReplica1)->rule,
            DetectionRule::kSelectorCorruption);
  EXPECT_FALSE(rig.harness->selector().fault(ReplicaIndex::kReplica2));
  EXPECT_FALSE(rig.harness->replicator().fault(ReplicaIndex::kReplica2));
  EXPECT_EQ(rig.harness->selector().crc_mismatches(ReplicaIndex::kReplica2), 0u);
}

TEST(Selector, QuarantineBelowThresholdDoesNotConvict) {
  sim::Simulator simulator;
  SelectorChannel selector(simulator, "sel",
                           {.capacities = {4, 4},
                            .divergence_threshold = 0,
                            .enable_stall_rule = false,
                            .corruption_conviction_threshold = 3});
  auto& w1 = selector.write_interface(ReplicaIndex::kReplica1);
  auto& w2 = selector.write_interface(ReplicaIndex::kReplica2);
  auto make = [](std::uint64_t seq) {
    return kpn::Token(std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq), 7}, seq, 0);
  };

  // Two corrupted tokens: quarantined, no conviction yet.
  ASSERT_TRUE(w1.try_write(make(0).corrupted(0)));
  ASSERT_TRUE(w1.try_write(make(1).corrupted(5)));
  EXPECT_EQ(selector.crc_mismatches(ReplicaIndex::kReplica1), 2u);
  EXPECT_FALSE(selector.fault(ReplicaIndex::kReplica1));

  // The peer's healthy copies are delivered as first-of-pair: no token lost.
  ASSERT_TRUE(w2.try_write(make(0)));
  ASSERT_TRUE(w2.try_write(make(1)));
  auto t0 = selector.try_read();
  auto t1 = selector.try_read();
  ASSERT_TRUE(t0 && t1);
  EXPECT_EQ(t0->seq(), 0u);
  EXPECT_EQ(t1->seq(), 1u);
  EXPECT_TRUE(t0->verify_checksum());
  EXPECT_TRUE(t1->verify_checksum());

  // A healthy write from the offender is accepted normally afterwards.
  ASSERT_TRUE(w1.try_write(make(2)));
  ASSERT_TRUE(w2.try_write(make(2)));
  auto t2 = selector.try_read();
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->seq(), 2u);
  EXPECT_FALSE(selector.fault(ReplicaIndex::kReplica1));
}

TEST(Selector, ThirdMismatchConvictsViaCorruptionRule) {
  sim::Simulator simulator;
  SelectorChannel selector(simulator, "sel",
                           {.capacities = {8, 8},
                            .divergence_threshold = 0,
                            .enable_stall_rule = false,
                            .corruption_conviction_threshold = 3});
  auto& w1 = selector.write_interface(ReplicaIndex::kReplica1);
  auto make = [](std::uint64_t seq) {
    return kpn::Token(std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq)}, seq, 0);
  };
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(w1.try_write(make(k).corrupted(k)));
  }
  ASSERT_TRUE(selector.fault(ReplicaIndex::kReplica1));
  EXPECT_EQ(selector.detection(ReplicaIndex::kReplica1)->rule,
            DetectionRule::kSelectorCorruption);
  EXPECT_FALSE(selector.fault(ReplicaIndex::kReplica2));
}

TEST(Selector, ChecksumVerificationCanBeDisabled) {
  sim::Simulator simulator;
  SelectorChannel selector(simulator, "sel",
                           {.capacities = {8, 8},
                            .enable_stall_rule = false,
                            .verify_checksums = false});
  auto& w1 = selector.write_interface(ReplicaIndex::kReplica1);
  const kpn::Token bad =
      kpn::Token(std::vector<std::uint8_t>{1, 2}, 0, 0).corrupted(3);
  ASSERT_TRUE(w1.try_write(bad));
  EXPECT_EQ(selector.crc_mismatches(ReplicaIndex::kReplica1), 0u);
  auto out = selector.try_read();
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->verify_checksum());  // delivered unchecked, as configured
}

// ---- NoC link faults ------------------------------------------------------

TEST(NocFaults, DropsCauseBoundedRetransmission) {
  scc::NocModel clean;
  const auto baseline =
      clean.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 1024, 0);
  ASSERT_TRUE(baseline.delivered);

  scc::NocModel noc;
  noc.inject_faults({.chunk_drop_probability = 0.5, .max_retries = 64, .seed = 5});
  // With a generous retry budget every message still gets through, at the
  // cost of retransmission latency.
  int total_retransmissions = 0;
  for (int i = 0; i < 32; ++i) {
    const auto outcome =
        noc.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 1024, 0);
    EXPECT_TRUE(outcome.delivered);
    EXPECT_GE(outcome.arrival, baseline.arrival);
    total_retransmissions += outcome.retransmissions;
  }
  EXPECT_GT(total_retransmissions, 0);
  EXPECT_EQ(noc.messages_lost(), 0u);
  EXPECT_EQ(noc.chunks_dropped(), static_cast<std::uint64_t>(total_retransmissions));
}

TEST(NocFaults, ExhaustedRetriesLoseTheMessage) {
  scc::NocModel noc;
  noc.inject_faults({.chunk_drop_probability = 1.0, .max_retries = 2});
  const auto outcome = noc.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 64, 0);
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.retransmissions, 2);
  EXPECT_EQ(noc.messages_lost(), 1u);
  EXPECT_EQ(noc.chunks_dropped(), 3u);  // initial try + 2 retries
}

TEST(NocFaults, WindowGatesFaultActivity) {
  scc::NocModel noc;
  noc.inject_faults({.chunk_drop_probability = 1.0,
                     .window_start = 1'000'000,
                     .window_end = 2'000'000,
                     .max_retries = 0});
  EXPECT_TRUE(noc.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 64, 0).delivered);
  EXPECT_FALSE(
      noc.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 64, 1'500'000).delivered);
  EXPECT_TRUE(
      noc.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 64, 2'500'000).delivered);
}

TEST(NocFaults, DelayFaultAddsBoundedLatency) {
  scc::NocModel clean;
  const auto baseline = clean.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 64, 0);

  scc::NocModel noc;
  noc.inject_faults({.chunk_delay_probability = 1.0,
                     .delay_min_ns = 10'000,
                     .delay_max_ns = 20'000});
  const auto outcome = noc.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 64, 0);
  ASSERT_TRUE(outcome.delivered);
  EXPECT_GE(outcome.arrival, baseline.arrival + 10'000);
  EXPECT_LE(outcome.arrival, baseline.arrival + 20'000);
  EXPECT_EQ(noc.chunks_delayed(), 1u);
}

TEST(NocFaults, ClearFaultsRestoresCleanTransfers) {
  scc::NocModel noc;
  noc.inject_faults({.chunk_drop_probability = 1.0, .max_retries = 0});
  ASSERT_FALSE(noc.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 64, 0).delivered);
  noc.clear_faults();
  EXPECT_TRUE(noc.transfer_ex(scc::CoreId{0}, scc::CoreId{10}, 64, 0).delivered);
  EXPECT_FALSE(noc.faults_active(0));
}

TEST(NocFaults, InvalidPlanViolatesContract) {
  scc::NocModel noc;
  EXPECT_THROW(noc.inject_faults({.chunk_drop_probability = 1.5}),
               util::ContractViolation);
  EXPECT_THROW(noc.inject_faults({.max_retries = -1}), util::ContractViolation);
  EXPECT_THROW(noc.inject_faults({.window_start = 10, .window_end = 5}),
               util::ContractViolation);
}

TEST(NocFaults, LostTokensAreDroppedNotDeliveredLate) {
  // A FifoChannel with a faulty link drops lost tokens instead of handing
  // the reader a token that never arrived.
  sim::Simulator simulator;
  scc::NocModel noc;
  noc.inject_faults({.chunk_drop_probability = 1.0, .max_retries = 1});
  kpn::FifoChannel channel(
      simulator, "lossy", 8,
      kpn::FifoChannel::LinkModel{&noc, scc::CoreId{0}, scc::CoreId{10}});
  ASSERT_TRUE(channel.try_write(kpn::Token(std::vector<std::uint8_t>{1}, 0, 0)));
  EXPECT_FALSE(channel.try_read().has_value());
  EXPECT_EQ(channel.stats().tokens_dropped, 1u);
  EXPECT_EQ(channel.stats().tokens_written, 1u);
}

// ---- campaign contracts ---------------------------------------------------

TEST(FaultCampaign, AddAfterArmViolatesContract) {
  Rig rig;
  FaultCampaign campaign(rig.simulator, rig.wiring());
  campaign.arm();
  EXPECT_THROW(campaign.add({.kind = FaultKind::kPermanentSilence}),
               util::ContractViolation);
}

TEST(FaultCampaign, SpecValidationRejectsNonsense) {
  Rig rig;
  FaultCampaign campaign(rig.simulator, rig.wiring());
  EXPECT_THROW(campaign.add({.kind = FaultKind::kTransientSilence, .duration = 0}),
               util::ContractViolation);
  EXPECT_THROW(campaign.add({.kind = FaultKind::kIntermittentSilence,
                             .duration = rtc::from_ms(100.0),
                             .burst_on_mean = 0}),
               util::ContractViolation);
  EXPECT_THROW(campaign.add({.kind = FaultKind::kRateDegradation, .rate_factor = 1.0}),
               util::ContractViolation);
  EXPECT_THROW(campaign.add({.kind = FaultKind::kPayloadCorruption,
                             .corrupt_probability = 0.0}),
               util::ContractViolation);
  EXPECT_THROW(campaign.add({.kind = FaultKind::kNocLink}),  // no NoC wired
               util::ContractViolation);
  // Control-plane kinds need their targets wired.
  EXPECT_THROW(campaign.add({.kind = FaultKind::kSupervisorHang}),
               util::ContractViolation);
  EXPECT_THROW(campaign.add({.kind = FaultKind::kCounterCorruption}),
               util::ContractViolation);
  EXPECT_THROW(campaign.add({.kind = FaultKind::kTraceSinkStuck}),
               util::ContractViolation);
}

// ---- text serialization (the chaos artifact / replay format) --------------

FaultSpec sample_spec(FaultKind kind) {
  FaultSpec spec;
  spec.kind = kind;
  spec.replica = ReplicaIndex::kReplica2;
  spec.at = rtc::from_ms(312.5);
  spec.duration = rtc::from_ms(87.25);
  spec.rate_factor = 3.6180339887498949;
  spec.corrupt_probability = 0.33333333333333331;
  spec.burst_on_mean = rtc::from_ms(31.0);
  spec.burst_off_mean = rtc::from_ms(153.0);
  spec.seed = 0xDEADBEEFCAFEBABEull;
  spec.noc.chunk_drop_probability = 0.125;
  spec.noc.chunk_delay_probability = 0.0625;
  spec.noc.delay_min_ns = 1'000;
  spec.noc.delay_max_ns = 9'000;
  spec.noc.max_retries = 5;
  spec.noc.retry_timeout_ns = 75'000;
  spec.tile = 5;
  return spec;
}

void expect_specs_equal(const FaultSpec& a, const FaultSpec& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.replica, b.replica);
  EXPECT_EQ(a.at, b.at);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.rate_factor, b.rate_factor);
  EXPECT_EQ(a.corrupt_probability, b.corrupt_probability);
  EXPECT_EQ(a.burst_on_mean, b.burst_on_mean);
  EXPECT_EQ(a.burst_off_mean, b.burst_off_mean);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.noc.chunk_drop_probability, b.noc.chunk_drop_probability);
  EXPECT_EQ(a.noc.chunk_delay_probability, b.noc.chunk_delay_probability);
  EXPECT_EQ(a.noc.delay_min_ns, b.noc.delay_min_ns);
  EXPECT_EQ(a.noc.delay_max_ns, b.noc.delay_max_ns);
  EXPECT_EQ(a.noc.max_retries, b.noc.max_retries);
  EXPECT_EQ(a.noc.retry_timeout_ns, b.noc.retry_timeout_ns);
  EXPECT_EQ(a.tile, b.tile);
}

TEST(FaultPlanText, SpecRoundTripsEveryKindFieldByField) {
  for (const FaultKind kind :
       {FaultKind::kPermanentSilence, FaultKind::kTransientSilence,
        FaultKind::kIntermittentSilence, FaultKind::kRateDegradation,
        FaultKind::kPayloadCorruption, FaultKind::kNocLink,
        FaultKind::kSupervisorHang, FaultKind::kCounterCorruption,
        FaultKind::kTraceSinkStuck}) {
    const FaultSpec spec = sample_spec(kind);
    expect_specs_equal(spec, parse_fault_spec(serialize(spec)));
  }
}

TEST(FaultPlanText, PlanRoundTripsWithCommentsAndBlanksSkipped) {
  std::vector<FaultSpec> plan;
  plan.push_back(sample_spec(FaultKind::kTransientSilence));
  plan.push_back(sample_spec(FaultKind::kPayloadCorruption));
  plan.push_back(sample_spec(FaultKind::kNocLink));
  const std::string text =
      "# a comment\n\n" + serialize(plan) + "   \n# trailing comment\n";
  const std::vector<FaultSpec> parsed = parse_fault_plan(text);
  ASSERT_EQ(parsed.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    expect_specs_equal(plan[i], parsed[i]);
  }
}

TEST(FaultPlanText, KindTagRoundTripsAndRejectsUnknown) {
  for (const FaultKind kind :
       {FaultKind::kPermanentSilence, FaultKind::kTransientSilence,
        FaultKind::kIntermittentSilence, FaultKind::kRateDegradation,
        FaultKind::kPayloadCorruption, FaultKind::kNocLink,
        FaultKind::kSupervisorHang, FaultKind::kCounterCorruption,
        FaultKind::kTraceSinkStuck}) {
    EXPECT_EQ(fault_kind_from_text(to_string(kind)), kind);
  }
  EXPECT_THROW((void)fault_kind_from_text("meteor-strike"), util::ContractViolation);
  EXPECT_THROW((void)fault_kind_from_text(""), util::ContractViolation);
  // Near-miss tags for the control-plane kinds must not fuzzy-match.
  EXPECT_THROW((void)fault_kind_from_text("supervisor-hung"), util::ContractViolation);
  EXPECT_THROW((void)fault_kind_from_text("counter-corrupt"), util::ContractViolation);
  EXPECT_THROW((void)fault_kind_from_text("trace-sink"), util::ContractViolation);
}

TEST(FaultPlanText, MalformedLinesThrowNeverCrash) {
  const std::string good = serialize(sample_spec(FaultKind::kTransientSilence));
  // Dropping the trailing tile field leaves a legacy 16-token line, which
  // stays parseable (tile defaults to 0); dropping one more field must throw.
  const std::string legacy = good.substr(0, good.rfind(' '));
  EXPECT_EQ(parse_fault_spec(legacy).tile, 0);
  // An 18th token is the N-replica victim selector: accepted in range,
  // round-tripped, and omitted from the serialized form when zero.
  EXPECT_EQ(parse_fault_spec(good).victim, 0);
  EXPECT_EQ(parse_fault_spec(good + " 3").victim, 3);
  {
    FaultSpec with_victim = sample_spec(FaultKind::kTransientSilence);
    with_victim.victim = 3;
    EXPECT_EQ(parse_fault_spec(serialize(with_victim)).victim, 3);
  }
  // Fuzz-style line mutations: truncations, extra fields, garbage tokens.
  const std::vector<std::string> bad = {
      "",                                  // empty
      "fault",                             // tag only
      good + " 3 3",                       // extra field past the victim
      good + " -1",                        // victim negative
      good + " 17",                        // victim past the sanity bound
      good + " x",                         // victim garbage
      legacy.substr(0, legacy.rfind(' ')), // two fields short
      "tluaf" + good.substr(5),            // wrong tag
      "fault bogus-kind 1 0 0 1 1 0 0 1 0 0 0 0 3 50000",  // unknown kind
      "fault transient-silence 3 0 1 1 1 0 0 1 0 0 0 0 3 50000",  // replica 3
      "fault transient-silence 1 -5 1 1 1 0 0 1 0 0 0 0 3 50000",  // at < 0
      "fault transient-silence 1 0 0 1 1 0 0 1 0 0 0 0 3 50000",   // dur = 0
      "fault rate-degradation 1 0 0 1.0 1 0 0 1 0 0 0 0 3 50000",  // rate <= 1
      "fault payload-corruption 1 0 0 1 1.5 0 0 1 0 0 0 0 3 50000",  // p > 1
      "fault payload-corruption 1 0 0 1 nan 0 0 1 0 0 0 0 3 50000",  // not finite
      "fault intermittent-silence 1 0 9 1 1 0 0 1 0 0 0 0 3 50000",  // no bursts
      "fault transient-silence 1 0 1e99x 1 1 0 0 1 0 0 0 0 3 50000",  // garbage int
      "fault transient-silence 1 0 1 1 1 0 0 -1 0 0 0 0 3 50000",   // negative seed
      "fault noc-link 1 0 0 1 1 0 0 1 0.5 0 9000 1000 3 50000",     // max < min
      // Control-plane fuzz: unknown tags and out-of-range tile ids.
      "fault watchdog-reset 1 0 0 1 1 0 0 1 0 0 0 0 3 50000 0",     // unknown kind
      "fault supervisor-hang 1 0 0 1 1 0 0 1 0 0 0 0 3 50000 24",   // tile >= 24
      "fault supervisor-hang 1 0 0 1 1 0 0 1 0 0 0 0 3 50000 -1",   // tile < 0
      "fault trace-sink-stuck 1 0 0 1 1 0 0 1 0 0 0 0 3 50000 999", // tile absurd
      "fault counter-corruption 1 0 0 1 1 0 0 1 0 0 0 0 3 50000 x", // garbage tile
  };
  for (const std::string& line : bad) {
    EXPECT_THROW((void)parse_fault_spec(line), util::ContractViolation) << line;
  }
  // A malformed line poisons the whole plan.
  EXPECT_THROW((void)parse_fault_plan(good + "\nfault junk\n"), util::ContractViolation);
}

TEST(FaultPlanText, AbsurdLineCountsAreRejected) {
  std::string text;
  for (int i = 0; i < 10'001; ++i) text += "\n";
  EXPECT_THROW((void)parse_fault_plan(text), util::ContractViolation);
}

}  // namespace
}  // namespace sccft::ft

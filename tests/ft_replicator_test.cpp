// ReplicatorChannel unit tests: rules 1-3 of Section 3.1 and the overflow
// fault detection of Section 3.3.
#include <gtest/gtest.h>

#include <vector>

#include "ft/framework.hpp"
#include "ft/replicator.hpp"
#include "kpn/network.hpp"
#include "kpn/process.hpp"

namespace sccft::ft {
namespace {

using kpn::Token;

Token make_token(std::uint64_t seq) {
  return Token(std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq)}, seq, 0);
}

struct Fixture {
  sim::Simulator sim;
  kpn::Network net{sim};
  ReplicatorChannel* replicator = nullptr;

  explicit Fixture(rtc::Tokens cap1 = 2, rtc::Tokens cap2 = 3) {
    replicator = &net.adopt_channel(std::make_unique<ReplicatorChannel>(
        sim, "rep", ReplicatorChannel::Config{{cap1, cap2}}));
  }
};

TEST(Replicator, DuplicatesEveryTokenToBothQueues) {
  Fixture fx;
  std::vector<std::uint64_t> got1, got2;
  fx.net.add_process("w", scc::CoreId{0}, 1, [&](kpn::ProcessContext& ctx) -> sim::Task {
    for (std::uint64_t k = 0; k < 6; ++k) {
      co_await kpn::write(*fx.replicator, make_token(k));
      co_await ctx.delay(100);
    }
  });
  fx.net.add_process("r1", scc::CoreId{2}, 2, [&](kpn::ProcessContext& ctx) -> sim::Task {
    while (true) {
      Token t = co_await kpn::read(fx.replicator->read_interface(ReplicaIndex::kReplica1));
      got1.push_back(t.seq());
      co_await ctx.delay(50);
    }
  });
  fx.net.add_process("r2", scc::CoreId{4}, 3, [&](kpn::ProcessContext& ctx) -> sim::Task {
    while (true) {
      Token t = co_await kpn::read(fx.replicator->read_interface(ReplicaIndex::kReplica2));
      got2.push_back(t.seq());
      co_await ctx.delay(70);
    }
  });
  fx.net.run_until(100'000);
  EXPECT_EQ(got1, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(got2, got1);
  EXPECT_FALSE(fx.replicator->fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(fx.replicator->fault(ReplicaIndex::kReplica2));
}

TEST(Replicator, SpaceFillAccounting) {
  Fixture fx(2, 3);
  EXPECT_EQ(fx.replicator->space(ReplicaIndex::kReplica1), 2);
  EXPECT_EQ(fx.replicator->space(ReplicaIndex::kReplica2), 3);
  EXPECT_TRUE(fx.replicator->try_write(make_token(0)));
  EXPECT_EQ(fx.replicator->fill(ReplicaIndex::kReplica1), 1);
  EXPECT_EQ(fx.replicator->fill(ReplicaIndex::kReplica2), 1);
  EXPECT_EQ(fx.replicator->space(ReplicaIndex::kReplica1), 1);
  EXPECT_EQ(fx.replicator->space(ReplicaIndex::kReplica2), 2);
}

TEST(Replicator, OverflowDeclaresFaultAndStopsInsertion) {
  Fixture fx(2, 3);
  const DetectionRecorder recorder(fx.sim.trace(), {fx.replicator->trace_subject()});
  const std::vector<DetectionRecord>& records = recorder.log().records;

  // Nobody reads queue 1. Writes 1..2 fill it; write 3 finds space_1 == 0.
  EXPECT_TRUE(fx.replicator->try_write(make_token(0)));
  EXPECT_TRUE(fx.replicator->try_write(make_token(1)));
  EXPECT_FALSE(fx.replicator->fault(ReplicaIndex::kReplica1));
  EXPECT_TRUE(fx.replicator->try_write(make_token(2)));  // never blocks
  EXPECT_TRUE(fx.replicator->fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(fx.replicator->fault(ReplicaIndex::kReplica2));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].replica, ReplicaIndex::kReplica1);
  EXPECT_EQ(records[0].rule, DetectionRule::kReplicatorOverflow);

  // Queue 1 frozen at capacity; queue 2 keeps receiving.
  EXPECT_EQ(fx.replicator->fill(ReplicaIndex::kReplica1), 2);
  EXPECT_EQ(fx.replicator->fill(ReplicaIndex::kReplica2), 3);
}

TEST(Replicator, HealthyReplicaUnaffectedByFault) {
  // The Section 1.1 "deadlocked non-faulty replica" scenario must not occur:
  // after queue 1 faults, the producer continues and queue 2 sees every token.
  Fixture fx(1, 2);
  std::vector<std::uint64_t> got2;
  fx.net.add_process("w", scc::CoreId{0}, 1, [&](kpn::ProcessContext& ctx) -> sim::Task {
    for (std::uint64_t k = 0; k < 20; ++k) {
      co_await kpn::write(*fx.replicator, make_token(k));
      co_await ctx.delay(100);
    }
  });
  // Replica 1 never reads (dead from the start). Replica 2 reads everything.
  fx.net.add_process("r2", scc::CoreId{2}, 2, [&](kpn::ProcessContext& ctx) -> sim::Task {
    while (true) {
      Token t = co_await kpn::read(fx.replicator->read_interface(ReplicaIndex::kReplica2));
      got2.push_back(t.seq());
      co_await ctx.delay(10);
    }
  });
  fx.net.run_until(100'000);
  EXPECT_TRUE(fx.replicator->fault(ReplicaIndex::kReplica1));
  ASSERT_EQ(got2.size(), 20u);
  for (std::uint64_t k = 0; k < 20; ++k) EXPECT_EQ(got2[k], k);
}

TEST(Replicator, DetectionTimestampIsWriteAttemptTime) {
  Fixture fx(1, 3);
  fx.net.add_process("w", scc::CoreId{0}, 1, [&](kpn::ProcessContext& ctx) -> sim::Task {
    co_await ctx.delay(1'000);
    co_await kpn::write(*fx.replicator, make_token(0));  // fills queue 1
    co_await ctx.delay(1'000);
    co_await kpn::write(*fx.replicator, make_token(1));  // detects at t=2000
  });
  fx.net.add_process("r2", scc::CoreId{2}, 2, [&](kpn::ProcessContext&) -> sim::Task {
    while (true) {
      (void)co_await kpn::read(fx.replicator->read_interface(ReplicaIndex::kReplica2));
    }
  });
  fx.net.run_until(10'000);
  const auto detection = fx.replicator->detection(ReplicaIndex::kReplica1);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->detected_at, 2'000);
}

TEST(Replicator, PerQueueMaxFillTracked) {
  Fixture fx(2, 3);
  (void)fx.replicator->try_write(make_token(0));
  (void)fx.replicator->try_write(make_token(1));
  EXPECT_EQ(fx.replicator->queue_stats(ReplicaIndex::kReplica1).max_fill, 2);
  EXPECT_EQ(fx.replicator->queue_stats(ReplicaIndex::kReplica2).max_fill, 2);
}

TEST(Replicator, SlowConsumptionRateEventuallyFlagged) {
  // Section 3.3: "a timing fault wherein the rate at which a replica consumes
  // tokens from the producer is lower than predicted" is also detected.
  Fixture fx(2, 2);
  fx.net.add_process("w", scc::CoreId{0}, 1, [&](kpn::ProcessContext& ctx) -> sim::Task {
    for (std::uint64_t k = 0;; ++k) {
      co_await kpn::write(*fx.replicator, make_token(k));
      co_await ctx.delay(100);
    }
  });
  // Replica 1 consumes at 1/4 the producer rate; replica 2 keeps up.
  fx.net.add_process("r1", scc::CoreId{2}, 2, [&](kpn::ProcessContext& ctx) -> sim::Task {
    while (true) {
      (void)co_await kpn::read(fx.replicator->read_interface(ReplicaIndex::kReplica1));
      co_await ctx.delay(400);
    }
  });
  fx.net.add_process("r2", scc::CoreId{4}, 3, [&](kpn::ProcessContext& ctx) -> sim::Task {
    while (true) {
      (void)co_await kpn::read(fx.replicator->read_interface(ReplicaIndex::kReplica2));
      co_await ctx.delay(90);
    }
  });
  fx.net.run_until(100'000);
  EXPECT_TRUE(fx.replicator->fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(fx.replicator->fault(ReplicaIndex::kReplica2));
}

TEST(Replicator, InvalidCapacitiesRejected) {
  sim::Simulator sim;
  EXPECT_THROW(ReplicatorChannel(sim, "rep", {{0, 1}}),
               util::ContractViolation);
}

TEST(Replicator, ControlMemorySmall) {
  Fixture fx;
  // Paper Table 2: ~1.5 KB of control structures at the replicator.
  EXPECT_LT(fx.replicator->control_memory_bytes(), 2'048u);
}

}  // namespace
}  // namespace sccft::ft

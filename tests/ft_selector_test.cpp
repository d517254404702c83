// SelectorChannel unit tests: rules 1-3 of Section 3.1, Lemma 1 isolation,
// the stall and divergence detectors of Section 3.3, and failover integrity.
#include <gtest/gtest.h>

#include <vector>

#include "ft/framework.hpp"
#include "ft/selector.hpp"
#include "kpn/network.hpp"
#include "kpn/process.hpp"

namespace sccft::ft {
namespace {

using kpn::Token;

Token make_token(std::uint64_t seq) {
  return Token(std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq & 0xFF),
                                         static_cast<std::uint8_t>(seq >> 8)},
               seq, 0);
}

struct Fixture {
  sim::Simulator sim;
  kpn::Network net{sim};
  SelectorChannel* selector = nullptr;

  explicit Fixture(SelectorChannel::Config config) {
    selector = &net.adopt_channel(
        std::make_unique<SelectorChannel>(sim, "sel", std::move(config)));
  }
};

SelectorChannel::Config basic_config() {
  return SelectorChannel::Config{.capacities = {4, 6},
                                 .initials = {2, 3},
                                 .divergence_threshold = 4};
}

TEST(Selector, InitialSpacePerRule1WithInitialTokens) {
  Fixture fx(basic_config());
  EXPECT_EQ(fx.selector->space(ReplicaIndex::kReplica1), 2);  // |S1| - |S1|_0
  EXPECT_EQ(fx.selector->space(ReplicaIndex::kReplica2), 3);
  EXPECT_EQ(fx.selector->fill(), 0);
}

TEST(Selector, FirstOfPairEnqueuedDuplicateDropped) {
  Fixture fx(basic_config());
  auto& w1 = fx.selector->write_interface(ReplicaIndex::kReplica1);
  auto& w2 = fx.selector->write_interface(ReplicaIndex::kReplica2);

  EXPECT_TRUE(w1.try_write(make_token(0)));  // first of pair 0 -> enqueued
  EXPECT_EQ(fx.selector->fill(), 1);
  EXPECT_TRUE(w2.try_write(make_token(0)));  // late duplicate -> dropped
  EXPECT_EQ(fx.selector->fill(), 1);
  EXPECT_EQ(fx.selector->stats().tokens_dropped, 1u);

  // Replica 2 first for pair 1:
  EXPECT_TRUE(w2.try_write(make_token(1)));
  EXPECT_EQ(fx.selector->fill(), 2);
  EXPECT_TRUE(w1.try_write(make_token(1)));
  EXPECT_EQ(fx.selector->fill(), 2);  // dropped
}

TEST(Selector, ReadIncrementsBothSpaces) {
  Fixture fx(basic_config());
  auto& w1 = fx.selector->write_interface(ReplicaIndex::kReplica1);
  (void)w1.try_write(make_token(0));
  EXPECT_EQ(fx.selector->space(ReplicaIndex::kReplica1), 1);
  EXPECT_EQ(fx.selector->space(ReplicaIndex::kReplica2), 3);
  auto token = fx.selector->try_read();
  ASSERT_TRUE(token.has_value());
  EXPECT_EQ(token->seq(), 0u);
  EXPECT_EQ(fx.selector->space(ReplicaIndex::kReplica1), 2);
  EXPECT_EQ(fx.selector->space(ReplicaIndex::kReplica2), 4);
}

TEST(Selector, WriterBlocksWhenOwnSpaceExhausted) {
  // Lemma 1: interface 1 blocks iff space_1 == 0, independent of interface 2.
  auto config = basic_config();
  config.divergence_threshold = 0;  // isolate the blocking behaviour
  Fixture fx(config);
  auto& w1 = fx.selector->write_interface(ReplicaIndex::kReplica1);
  EXPECT_TRUE(w1.try_write(make_token(0)));
  EXPECT_TRUE(w1.try_write(make_token(1)));
  EXPECT_EQ(fx.selector->space(ReplicaIndex::kReplica1), 0);
  EXPECT_FALSE(w1.try_write(make_token(2)));  // blocks
  // Interface 2 is entirely unaffected (isolation).
  auto& w2 = fx.selector->write_interface(ReplicaIndex::kReplica2);
  EXPECT_TRUE(w2.try_write(make_token(0)));
  EXPECT_TRUE(w2.try_write(make_token(1)));
  EXPECT_TRUE(w2.try_write(make_token(2)));
  EXPECT_EQ(fx.selector->space(ReplicaIndex::kReplica2), 0);
}

TEST(Selector, StallRuleFlagsLaggingReplica) {
  auto config = basic_config();
  config.divergence_threshold = 0;  // only the stall rule active
  Fixture fx(config);
  auto& w2 = fx.selector->write_interface(ReplicaIndex::kReplica2);
  const DetectionRecorder recorder(fx.sim.trace(), {fx.selector->trace_subject()});
  const std::vector<DetectionRecord>& records = recorder.log().records;

  // Replica 1 silent; replica 2 supplies, consumer drains. space_1 grows by
  // one per read; fault when space_1 > |S1| = 4, i.e. on the 3rd read.
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(w2.try_write(make_token(k)));
    ASSERT_TRUE(fx.selector->try_read().has_value());
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].replica, ReplicaIndex::kReplica1);
  EXPECT_EQ(records[0].rule, DetectionRule::kSelectorStall);
}

TEST(Selector, DivergenceRuleFlagsSilentReplica) {
  auto config = basic_config();
  config.enable_stall_rule = false;  // only the divergence rule active
  Fixture fx(config);
  auto& w2 = fx.selector->write_interface(ReplicaIndex::kReplica2);
  const DetectionRecorder recorder(fx.sim.trace(), {fx.selector->trace_subject()});
  const std::vector<DetectionRecord>& records = recorder.log().records;

  // Replica 2 delivers; replica 1 silent. Fault when W2 - W1 >= D = 4.
  for (std::uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(w2.try_write(make_token(k)));
    (void)fx.selector->try_read();  // keep space_2 from exhausting
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].replica, ReplicaIndex::kReplica1);
  EXPECT_EQ(records[0].rule, DetectionRule::kSelectorDivergence);
  EXPECT_TRUE(fx.selector->fault(ReplicaIndex::kReplica1));
}

TEST(Selector, NoFalsePositiveWithinThreshold) {
  Fixture fx(basic_config());
  auto& w1 = fx.selector->write_interface(ReplicaIndex::kReplica1);
  auto& w2 = fx.selector->write_interface(ReplicaIndex::kReplica2);
  // Replica 1 leads replica 2 by up to D-1 = 3 tokens, legally.
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(w1.try_write(make_token(k)));
    (void)fx.selector->try_read();
  }
  for (std::uint64_t k = 0; k < 3; ++k) ASSERT_TRUE(w2.try_write(make_token(k)));
  EXPECT_FALSE(fx.selector->fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(fx.selector->fault(ReplicaIndex::kReplica2));
}

TEST(Selector, FailoverLosesNoToken) {
  // Replica 1 leads, replica 2 trails by 2 pairs; replica 1 dies after pair
  // 4; replica 2 catches up and carries on. The consumer must see
  // 0,1,2,... with no gap and no duplicate across the failover.
  auto config = basic_config();
  Fixture fx(config);
  auto& w1 = fx.selector->write_interface(ReplicaIndex::kReplica1);
  auto& w2 = fx.selector->write_interface(ReplicaIndex::kReplica2);
  std::vector<std::uint64_t> consumed;
  auto drain = [&] {
    while (auto token = fx.selector->try_read()) consumed.push_back(token->seq());
  };
  // Interleaved healthy phase: w1 delivers k, w2 delivers k-2.
  for (std::uint64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(w1.try_write(make_token(k)));
    drain();
    if (k >= 2) {
      ASSERT_TRUE(w2.try_write(make_token(k - 2)));  // late duplicates
      drain();
    }
  }
  // Replica 1 dies here (last delivered pair: 4; replica 2 delivered 0..2).
  // Replica 2 continues: 3, 4 are duplicates, 5.. are fresh.
  for (std::uint64_t k = 3; k < 10; ++k) {
    ASSERT_TRUE(w2.try_write(make_token(k)));
    drain();
  }
  ASSERT_EQ(consumed.size(), 10u);
  for (std::uint64_t k = 0; k < 10; ++k) EXPECT_EQ(consumed[k], k) << "gap at " << k;
  // The (correct) detection blames replica 1.
  EXPECT_FALSE(fx.selector->fault(ReplicaIndex::kReplica2));
}

TEST(Selector, FaultyInterfaceWritesAcceptedAndDropped) {
  auto config = basic_config();
  config.enable_stall_rule = false;
  Fixture fx(config);
  auto& w1 = fx.selector->write_interface(ReplicaIndex::kReplica1);
  auto& w2 = fx.selector->write_interface(ReplicaIndex::kReplica2);
  for (std::uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(w2.try_write(make_token(k)));
    (void)fx.selector->try_read();
  }
  ASSERT_TRUE(fx.selector->fault(ReplicaIndex::kReplica1));
  const auto fill_before = fx.selector->fill();
  // A zombie write from the faulty replica neither blocks nor enqueues.
  EXPECT_TRUE(w1.try_write(make_token(99)));
  EXPECT_EQ(fx.selector->fill(), fill_before);
}

TEST(Selector, PreloadedInitialTokensReadFirst) {
  auto config = basic_config();
  Fixture fx(config);
  fx.selector->preload_initial_tokens(Token{});
  EXPECT_EQ(fx.selector->fill(), 3);  // max(|S1|_0, |S2|_0)
  auto& w1 = fx.selector->write_interface(ReplicaIndex::kReplica1);
  ASSERT_TRUE(w1.try_write(make_token(7)));
  // Reads: 3 preload markers first, then the data token.
  for (int i = 0; i < 3; ++i) {
    auto token = fx.selector->try_read();
    ASSERT_TRUE(token.has_value());
    EXPECT_EQ(token->size_bytes(), 0);
  }
  auto data = fx.selector->try_read();
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->seq(), 7u);
}

TEST(Selector, MaxObservedFillExcludesPreload) {
  auto config = basic_config();
  Fixture fx(config);
  fx.selector->preload_initial_tokens(Token{});
  auto& w1 = fx.selector->write_interface(ReplicaIndex::kReplica1);
  ASSERT_TRUE(w1.try_write(make_token(0)));
  EXPECT_EQ(fx.selector->max_observed_fill(ReplicaIndex::kReplica1), 1);
  EXPECT_EQ(fx.selector->max_observed_fill(ReplicaIndex::kReplica2), 0);
}

TEST(Selector, InvalidConfigRejected) {
  sim::Simulator sim;
  EXPECT_THROW(SelectorChannel(sim, "s", {.capacities = {0, 1}}),
               util::ContractViolation);
  EXPECT_THROW(SelectorChannel(sim, "s",
                               {.capacities = {2, 2}, .initials = {3, 0}}),
               util::ContractViolation);
}

TEST(Selector, ControlMemorySmall) {
  Fixture fx(basic_config());
  // Paper Table 2: ~2.1 KB of control structures at the selector.
  EXPECT_LT(fx.selector->control_memory_bytes(), 2'560u);
}

}  // namespace
}  // namespace sccft::ft

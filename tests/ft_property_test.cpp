// Randomized property tests for the arbitration channels.
//
// Invariants checked over thousands of random (but per-interface FIFO-
// ordered) interleavings of writes, reads, faults, and recoveries:
//   P1  the consumer stream is exactly 0, 1, 2, ... — no gap, no duplicate,
//       no reordering — as long as at least one replica stays healthy;
//   P2  the selector's space accounting never goes negative and writes block
//       exactly when space_i == 0 (isolation);
//   P3  the replicator never blocks the producer and never exceeds queue
//       capacities;
//   P4  a detection, when it happens, always blames a replica that actually
//       fell behind.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "ft/replicator.hpp"
#include "ft/selector.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sccft::ft {
namespace {

using kpn::Token;

Token make_token(std::uint64_t seq) {
  return Token(std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq & 0xFF),
                                         static_cast<std::uint8_t>((seq >> 8) & 0xFF)},
               seq, 0);
}

class SelectorRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectorRandomized, StreamIntegrityUnderRandomInterleavings) {
  util::Xoshiro256 rng(GetParam());
  sim::Simulator sim;
  // Self-consistent sizing: the schedule lets either replica lead by up to 5
  // tokens (= D - 1), so the stall tolerances |S_i|_0 must be >= 5 (in a real
  // design Eq. (4) guarantees exactly this relationship).
  SelectorChannel selector(sim, "sel",
                           {.capacities = {8, 9},
                            .initials = {5, 5},
                            .divergence_threshold = 6,
                            .enable_stall_rule = true});
  auto& w1 = selector.write_interface(ReplicaIndex::kReplica1);
  auto& w2 = selector.write_interface(ReplicaIndex::kReplica2);

  // Each interface delivers tokens 0,1,2,... in order at random paces; the
  // consumer reads at a random pace. A replica may die mid-run.
  std::uint64_t next1 = 0;
  std::uint64_t next2 = 0;
  std::uint64_t expected = 0;
  bool r1_dead = false;
  const bool kill_r1 = rng.chance(0.5);
  const std::uint64_t kill_at = 20 + static_cast<std::uint64_t>(rng.uniform_int(0, 30));

  for (int step = 0; step < 600; ++step) {
    const int action = static_cast<int>(rng.uniform_int(0, 2));
    if (action == 0 && !r1_dead) {
      // Keep the legal lead bounded: a conforming replica never runs more
      // than D-1 tokens ahead of its peer.
      if (next1 < next2 + 5 && w1.try_write(make_token(next1))) ++next1;
      if (kill_r1 && next1 >= kill_at) r1_dead = true;
    } else if (action == 1) {
      if (next2 < next1 + 5 || r1_dead) {
        if (w2.try_write(make_token(next2))) ++next2;
      }
    } else {
      if (auto token = selector.try_read()) {
        ASSERT_EQ(token->seq(), expected)
            << "gap/duplicate/reorder at step " << step << " (seed " << GetParam()
            << ")";
        ++expected;
      }
    }
    // P2: space counters within [0, capacity + slack-from-reads].
    ASSERT_GE(selector.space(ReplicaIndex::kReplica1), 0);
    ASSERT_GE(selector.space(ReplicaIndex::kReplica2), 0);
    // P4: replica 2 is never blamed while it is the healthy leader.
    if (r1_dead) {
      ASSERT_FALSE(selector.fault(ReplicaIndex::kReplica2));
    }
  }
  // Everything enqueued was eventually readable in order.
  while (auto token = selector.try_read()) {
    ASSERT_EQ(token->seq(), expected);
    ++expected;
  }
  EXPECT_EQ(expected, std::max(next1, next2));
}

TEST_P(SelectorRandomized, DivergenceRuleNeverMisfiresWithinBound) {
  util::Xoshiro256 rng(GetParam() ^ 0xABCDEF);
  sim::Simulator sim;
  const rtc::Tokens d = 4;
  SelectorChannel selector(sim, "sel",
                           {.capacities = {8, 8},
                            .initials = {4, 4},
                            .divergence_threshold = d,
                            .enable_stall_rule = false});
  auto& w1 = selector.write_interface(ReplicaIndex::kReplica1);
  auto& w2 = selector.write_interface(ReplicaIndex::kReplica2);
  std::uint64_t next1 = 0;
  std::uint64_t next2 = 0;
  for (int step = 0; step < 800; ++step) {
    const int action = static_cast<int>(rng.uniform_int(0, 2));
    // Keep |W1 - W2| <= d-1 at all times (legal divergence).
    if (action == 0 && next1 < next2 + static_cast<std::uint64_t>(d) - 1) {
      if (w1.try_write(make_token(next1))) ++next1;
    } else if (action == 1 && next2 < next1 + static_cast<std::uint64_t>(d) - 1) {
      if (w2.try_write(make_token(next2))) ++next2;
    } else {
      (void)selector.try_read();
    }
    ASSERT_FALSE(selector.fault(ReplicaIndex::kReplica1)) << "seed " << GetParam();
    ASSERT_FALSE(selector.fault(ReplicaIndex::kReplica2)) << "seed " << GetParam();
  }
}

class ReplicatorRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplicatorRandomized, NeverBlocksProducerNorOverfills) {
  util::Xoshiro256 rng(GetParam());
  sim::Simulator sim;
  const rtc::Tokens cap1 = 2 + rng.uniform_int(0, 2);
  const rtc::Tokens cap2 = 2 + rng.uniform_int(0, 3);
  ReplicatorChannel replicator(sim, "rep", {{cap1, cap2}});
  auto& r1 = replicator.read_interface(ReplicaIndex::kReplica1);
  auto& r2 = replicator.read_interface(ReplicaIndex::kReplica2);

  std::uint64_t seq = 0;
  std::uint64_t got1 = 0;
  std::uint64_t got2 = 0;
  bool r1_dead = rng.chance(0.3);
  for (int step = 0; step < 800; ++step) {
    switch (rng.uniform_int(0, 2)) {
      case 0:
        // P3: the producer's write always completes.
        ASSERT_TRUE(replicator.try_write(make_token(seq)));
        ++seq;
        // Replica 2 keeps up (a conforming consumer never lets its queue
        // overflow): drain after every write.
        while (auto token = r2.try_read()) {
          ASSERT_EQ(token->seq(), got2) << "R2 queue reordered";
          ++got2;
        }
        break;
      case 1:
        if (!r1_dead) {
          if (auto token = r1.try_read()) {
            ASSERT_EQ(token->seq(), got1) << "R1 queue reordered";
            ++got1;
          }
        }
        break;
      default:
        if (auto token = r2.try_read()) {
          ASSERT_EQ(token->seq(), got2) << "R2 queue reordered";
          ++got2;
        }
        break;
    }
    ASSERT_LE(replicator.fill(ReplicaIndex::kReplica1), cap1);
    ASSERT_LE(replicator.fill(ReplicaIndex::kReplica2), cap2);
    // P4: the keeping-up replica is never blamed.
    ASSERT_FALSE(replicator.fault(ReplicaIndex::kReplica2));
  }
  // A dead reader's queue must have been detected once enough writes passed.
  if (r1_dead && seq >= static_cast<std::uint64_t>(cap1) + 1) {
    EXPECT_TRUE(replicator.fault(ReplicaIndex::kReplica1)) << "seed " << GetParam();
  }
}

TEST_P(ReplicatorRandomized, RecoveryCycleKeepsInvariants) {
  util::Xoshiro256 rng(GetParam() ^ 0x5EED);
  sim::Simulator sim;
  ReplicatorChannel replicator(sim, "rep", {{3, 3}});
  auto& r1 = replicator.read_interface(ReplicaIndex::kReplica1);
  auto& r2 = replicator.read_interface(ReplicaIndex::kReplica2);
  std::uint64_t seq = 0;
  std::optional<std::uint64_t> r1_resume_seq;  // first seq after reintegration
  std::uint64_t got1 = 0;
  bool r1_dead = false;
  for (int cycle = 0; cycle < 6; ++cycle) {
    // Healthy phase.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(replicator.try_write(make_token(seq++)));
      if (auto token = r1.try_read()) {
        if (r1_resume_seq) {
          ASSERT_GE(token->seq(), *r1_resume_seq) << "stale token after rejoin";
        }
        ++got1;
      }
      (void)r2.try_read();
    }
    // Kill and detect replica 1.
    r1_dead = true;
    replicator.freeze_reader(ReplicaIndex::kReplica1);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(replicator.try_write(make_token(seq++)));
      (void)r2.try_read();
    }
    EXPECT_TRUE(replicator.fault(ReplicaIndex::kReplica1));
    // Reintegrate.
    replicator.reintegrate(ReplicaIndex::kReplica1);
    r1_resume_seq = seq;  // only tokens written from now on may appear
    r1_dead = false;
    (void)r1_dead;
  }
  EXPECT_GT(got1, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorRandomized,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));
INSTANTIATE_TEST_SUITE_P(Seeds, ReplicatorRandomized,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace sccft::ft

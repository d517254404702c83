// N-replica channel tests: sizing generalization, arbitration with N
// interfaces, and tolerance of multiple sequential faults.
#include <gtest/gtest.h>

#include <vector>

#include "ft/framework.hpp"
#include "ft/nreplica.hpp"
#include "ft/replicator.hpp"
#include "ft/selector.hpp"
#include "kpn/network.hpp"
#include "kpn/process.hpp"
#include "rtc/pjd.hpp"
#include "util/assert.hpp"

namespace sccft::ft {
namespace {

using kpn::Token;

Token make_token(std::uint64_t seq) {
  return Token(std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq & 0xFF),
                                         static_cast<std::uint8_t>(seq >> 8)},
               seq, 0);
}

NReplicaTimingModel make_model(const std::vector<rtc::PJD>& replicas,
                               const rtc::PJD& producer, const rtc::PJD& consumer) {
  NReplicaTimingModel model;
  model.producer_upper = rtc::make_curve<rtc::PJDUpperCurve>(producer);
  model.producer_lower = rtc::make_curve<rtc::PJDLowerCurve>(producer);
  model.consumer_upper = rtc::make_curve<rtc::PJDUpperCurve>(consumer);
  model.consumer_lower = rtc::make_curve<rtc::PJDLowerCurve>(consumer);
  for (const auto& pjd : replicas) {
    model.in_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(pjd));
    model.in_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(pjd));
    model.out_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(pjd));
    model.out_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(pjd));
  }
  return model;
}

TEST(NSizing, TwoReplicaCaseMatchesPairAnalysis) {
  // The N=2 analysis must agree with the dedicated two-replica analysis for
  // the MJPEG models.
  const auto producer = rtc::PJD::from_ms(30, 2, 30);
  const auto consumer = rtc::PJD::from_ms(30, 2, 30);
  const auto r1 = rtc::PJD::from_ms(30, 5, 30);
  const auto r2 = rtc::PJD::from_ms(30, 30, 30);
  const auto report = analyze_n_replica_network(make_model({r1, r2}, producer, consumer),
                                                rtc::from_ms(5000.0));
  EXPECT_EQ(report.replicator_capacity, (std::vector<rtc::Tokens>{2, 3}));
  EXPECT_EQ(report.selector_capacity, (std::vector<rtc::Tokens>{4, 6}));
  EXPECT_EQ(report.selector_initial, (std::vector<rtc::Tokens>{2, 3}));
  EXPECT_EQ(report.divergence_threshold, 4);
  EXPECT_EQ(report.selector_latency_bound, rtc::from_ms(240.0));
  EXPECT_EQ(report.replicator_overflow_bound, rtc::from_ms(122.0));
}

TEST(NSizing, ThresholdSetByWorstPair) {
  const auto producer = rtc::PJD::from_ms(10, 1, 10);
  const auto consumer = rtc::PJD::from_ms(10, 1, 10);
  const auto tight = rtc::PJD::from_ms(10, 2, 10);
  const auto loose = rtc::PJD::from_ms(10, 20, 10);
  const auto pair = analyze_n_replica_network(
      make_model({tight, loose}, producer, consumer), rtc::from_ms(5000.0));
  const auto triple = analyze_n_replica_network(
      make_model({tight, tight, loose}, producer, consumer), rtc::from_ms(5000.0));
  // Adding another tight replica cannot worsen the worst pair.
  EXPECT_EQ(triple.divergence_threshold, pair.divergence_threshold);
  EXPECT_EQ(triple.replicator_capacity.size(), 3u);
}

TEST(NSizing, RejectsSingleReplica) {
  const auto producer = rtc::PJD::from_ms(10, 1, 10);
  EXPECT_THROW(
      (void)analyze_n_replica_network(make_model({producer}, producer, producer),
                                      rtc::from_ms(1000.0)),
      util::ContractViolation);
}

TEST(NCost, ReplicationCostPinnedAgainstSizing) {
  // Shared cost accounting (replica-count ablation, vulnerability planner,
  // fleet placement all read these): cores = N, links = 2N, MPB = every
  // Eq. (3)/(4) queue slot times the token size. Pinned on the homogeneous
  // 10 ms envelope family at 8-byte tokens.
  const auto producer = rtc::PJD::from_ms(10, 1, 10);
  const auto consumer = rtc::PJD::from_ms(10, 1, 10);
  const auto stage = rtc::PJD::from_ms(10, 2, 10);
  const auto horizon = rtc::from_ms(5000.0);

  const auto pair = analyze_n_replica_network(
      make_model({stage, stage}, producer, consumer), horizon);
  EXPECT_EQ(replication_cost(pair, 8), (ReplicationCost{2, 96, 4}));

  const auto triple = analyze_n_replica_network(
      make_model({stage, stage, stage}, producer, consumer), horizon);
  const ReplicationCost vote = replication_cost(triple, 8);
  EXPECT_EQ(vote.cores, 3);
  EXPECT_EQ(vote.noc_links, 6);
  rtc::Tokens slots = 0;
  for (const rtc::Tokens c : triple.replicator_capacity) slots += c;
  for (const rtc::Tokens c : triple.selector_capacity) slots += c;
  EXPECT_EQ(vote.mpb_bytes, static_cast<std::size_t>(slots) * 8u);

  EXPECT_EQ(unreplicated_cost(2, 8), (ReplicationCost{1, 16, 2}));

  // Guard rails: degenerate inputs are contract violations, not zero costs.
  EXPECT_THROW((void)unreplicated_cost(0, 8), util::ContractViolation);
  EXPECT_THROW((void)replication_cost(NSizingReport{}, 8),
               util::ContractViolation);
}

struct Fixture {
  sim::Simulator sim;
  kpn::Network net{sim};
  ReplicatorChannel* replicator = nullptr;
  SelectorChannel* selector = nullptr;

  explicit Fixture(int replicas) {
    std::vector<rtc::Tokens> rep_caps(static_cast<std::size_t>(replicas), 3);
    replicator = &net.adopt_channel(
        std::make_unique<ReplicatorChannel>(sim, "nrep", ReplicatorChannel::Config{rep_caps}));
    SelectorChannel::Config config;
    config.capacities.assign(static_cast<std::size_t>(replicas), 6);
    config.initials.assign(static_cast<std::size_t>(replicas), 3);
    config.divergence_threshold = 4;
    selector = &net.adopt_channel(
        std::make_unique<SelectorChannel>(sim, "nsel", std::move(config)));
  }
};

TEST(NReplicator, DuplicatesToAllQueues) {
  Fixture fx(3);
  ASSERT_TRUE(fx.replicator->try_write(make_token(0)));
  for (int r = 0; r < 3; ++r) EXPECT_EQ(fx.replicator->fill(ReplicaIndex{r}), 1);
  for (int r = 0; r < 3; ++r) {
    auto token = fx.replicator->read_interface(ReplicaIndex{r}).try_read();
    ASSERT_TRUE(token.has_value());
    EXPECT_EQ(token->seq(), 0u);
  }
}

TEST(NReplicator, OverflowFlagsOnlyTheDeadQueue) {
  Fixture fx(3);
  // Queues 1 and 2 drain; queue 0 never reads.
  for (std::uint64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(fx.replicator->try_write(make_token(k)));
    for (int r = 1; r < 3; ++r) (void)fx.replicator->read_interface(ReplicaIndex{r}).try_read();
  }
  EXPECT_TRUE(fx.replicator->fault(ReplicaIndex{0}));
  EXPECT_FALSE(fx.replicator->fault(ReplicaIndex{1}));
  EXPECT_FALSE(fx.replicator->fault(ReplicaIndex{2}));
  EXPECT_EQ(fx.replicator->healthy_count(), 2);
}

TEST(NReplicator, ToleratesTwoSequentialFaults) {
  Fixture fx(3);
  std::vector<std::uint64_t> survivor;
  std::uint64_t k = 0;
  auto drain = [&](int r) {
    while (auto token = fx.replicator->read_interface(ReplicaIndex{r}).try_read()) {
      if (r == 2) survivor.push_back(token->seq());
    }
  };
  // Phase 1: all healthy for 4 tokens.
  for (; k < 4; ++k) {
    ASSERT_TRUE(fx.replicator->try_write(make_token(k)));
    for (int r = 0; r < 3; ++r) drain(r);
  }
  // Phase 2: replica 0 dies (stops reading).
  for (; k < 10; ++k) {
    ASSERT_TRUE(fx.replicator->try_write(make_token(k)));
    for (int r = 1; r < 3; ++r) drain(r);
  }
  EXPECT_TRUE(fx.replicator->fault(ReplicaIndex{0}));
  // Phase 3: replica 1 dies too.
  for (; k < 16; ++k) {
    ASSERT_TRUE(fx.replicator->try_write(make_token(k)));
    drain(2);
  }
  EXPECT_TRUE(fx.replicator->fault(ReplicaIndex{1}));
  EXPECT_FALSE(fx.replicator->fault(ReplicaIndex{2}));
  // The survivor saw every token.
  ASSERT_EQ(survivor.size(), 16u);
  for (std::uint64_t i = 0; i < survivor.size(); ++i) EXPECT_EQ(survivor[i], i);
}

TEST(NSelector, FirstOfGroupWinsAcrossThreeWriters) {
  Fixture fx(3);
  std::vector<std::uint64_t> consumed;
  auto drain = [&] {
    while (auto token = fx.selector->try_read()) consumed.push_back(token->seq());
  };
  // Different leaders per group: 1 first for group 0, 2 first for group 1,
  // 0 first for group 2; every later duplicate must be dropped.
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{1}).try_write(make_token(0)));
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(0)));
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{2}).try_write(make_token(0)));
  drain();
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{2}).try_write(make_token(1)));
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{1}).try_write(make_token(1)));
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(1)));
  drain();
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(2)));
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{2}).try_write(make_token(2)));
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{1}).try_write(make_token(2)));
  drain();
  EXPECT_EQ(consumed, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(fx.selector->stats().tokens_dropped, 6u);
}

TEST(NSelector, DivergenceConvictsLaggards) {
  Fixture fx(3);
  // Interface 0 delivers; 1 and 2 silent. After D = 4 tokens, both laggards
  // are convicted (but never the leader).
  for (std::uint64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(k)));
    (void)fx.selector->try_read();
  }
  EXPECT_FALSE(fx.selector->fault(ReplicaIndex{0}));
  EXPECT_TRUE(fx.selector->fault(ReplicaIndex{1}));
  EXPECT_TRUE(fx.selector->fault(ReplicaIndex{2}));
  EXPECT_EQ(fx.selector->healthy_count(), 1);
}

TEST(NSelector, VerdictsOfEveryReplicaTravelTheBus) {
  Fixture fx(3);
  const DetectionRecorder recorder(
      fx.sim.trace(), {fx.replicator->trace_subject(), fx.selector->trace_subject()});
  for (std::uint64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(k)));
    (void)fx.selector->try_read();
  }
  const std::vector<DetectionRecord>& records = recorder.log().records;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].replica, ReplicaIndex{1});
  EXPECT_EQ(records[1].replica, ReplicaIndex{2});
  EXPECT_EQ(records[1].rule, DetectionRule::kSelectorDivergence);
  // Replica i is R<i+1> everywhere, including the per-replica trace subjects.
  EXPECT_EQ(to_string(ReplicaIndex{2}), "R3");
  EXPECT_EQ(fx.sim.trace().subject_name(fx.selector->side_subject(ReplicaIndex{2})),
            "nsel.S3");
  EXPECT_EQ(fx.sim.trace().subject_name(fx.replicator->queue_subject(ReplicaIndex{2})),
            "nrep.R3");
}

TEST(NSelector, NeverConvictsLastHealthyReplica) {
  Fixture fx(2);
  for (std::uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(k)));
    (void)fx.selector->try_read();
  }
  // Interface 1 convicted; interface 0 must survive no matter the counters.
  EXPECT_TRUE(fx.selector->fault(ReplicaIndex{1}));
  EXPECT_FALSE(fx.selector->fault(ReplicaIndex{0}));
  EXPECT_EQ(fx.selector->healthy_count(), 1);
}

TEST(NSelector, SequentialFailoverPreservesStream) {
  Fixture fx(3);
  std::vector<std::uint64_t> consumed;
  auto drain = [&] {
    while (auto token = fx.selector->try_read()) consumed.push_back(token->seq());
  };
  std::uint64_t w0 = 0, w1 = 0, w2 = 0;
  // All three in lockstep for 4 groups.
  for (; w0 < 4; ++w0, ++w1, ++w2) {
    ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(w0)));
    ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{1}).try_write(make_token(w1)));
    ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{2}).try_write(make_token(w2)));
    drain();
  }
  // Replica 0 dies; 1 and 2 continue for 6 groups.
  for (; w1 < 10; ++w1, ++w2) {
    ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{1}).try_write(make_token(w1)));
    ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{2}).try_write(make_token(w2)));
    drain();
  }
  // Replica 1 dies; 2 carries on alone for 6 more.
  for (; w2 < 16; ++w2) {
    ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{2}).try_write(make_token(w2)));
    drain();
  }
  ASSERT_EQ(consumed.size(), 16u);
  for (std::uint64_t i = 0; i < consumed.size(); ++i) EXPECT_EQ(consumed[i], i);
  EXPECT_TRUE(fx.selector->fault(ReplicaIndex{0}));
  EXPECT_TRUE(fx.selector->fault(ReplicaIndex{1}));
  EXPECT_FALSE(fx.selector->fault(ReplicaIndex{2}));
}

TEST(NSelector, IsolationPerInterface) {
  Fixture fx(3);
  auto& w0 = fx.selector->write_interface(ReplicaIndex{0});
  // Exhaust interface 0's space (capacity 6, initial 3 -> space 3).
  for (std::uint64_t k = 0; k < 3; ++k) ASSERT_TRUE(w0.try_write(make_token(k)));
  EXPECT_EQ(fx.selector->space(ReplicaIndex{0}), 0);
  EXPECT_FALSE(w0.try_write(make_token(3)));  // blocks
  // Peers unaffected (Lemma 1 generalized).
  EXPECT_EQ(fx.selector->space(ReplicaIndex{1}), 3);
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{1}).try_write(make_token(0)));
}

TEST(NSelector, FrozenWriterDropsSilently) {
  Fixture fx(3);
  fx.selector->freeze_writer(ReplicaIndex{1});
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{1}).try_write(make_token(0)));
  EXPECT_EQ(fx.selector->fill(), 0);
  EXPECT_EQ(fx.selector->tokens_received(ReplicaIndex{1}), 0u);
}

TEST(NReplicator, ReintegrateReopensQueueAtCurrentPosition) {
  Fixture fx(3);
  // Queue 0 never drains: overflows and is convicted.
  for (std::uint64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(fx.replicator->try_write(make_token(k)));
    for (int r = 1; r < 3; ++r) (void)fx.replicator->read_interface(ReplicaIndex{r}).try_read();
  }
  ASSERT_TRUE(fx.replicator->fault(ReplicaIndex{0}));
  EXPECT_GT(fx.replicator->fill(ReplicaIndex{0}), 0);

  fx.replicator->reintegrate(ReplicaIndex{0});
  EXPECT_FALSE(fx.replicator->fault(ReplicaIndex{0}));
  EXPECT_FALSE(fx.replicator->detection(ReplicaIndex{0}).has_value());
  // The stale backlog is discarded: the replica rejoins at the producer's
  // current position, not at tokens its peers already delivered.
  EXPECT_EQ(fx.replicator->fill(ReplicaIndex{0}), 0);

  ASSERT_TRUE(fx.replicator->try_write(make_token(5)));
  auto token = fx.replicator->read_interface(ReplicaIndex{0}).try_read();
  ASSERT_TRUE(token.has_value());
  EXPECT_EQ(token->seq(), 5u);
  EXPECT_EQ(fx.replicator->healthy_count(), 3);
}

TEST(NSelector, ReintegrateResyncRealignsDuplicateGroups) {
  Fixture fx(3);
  std::vector<std::uint64_t> consumed;
  auto drain = [&] {
    while (auto token = fx.selector->try_read()) consumed.push_back(token->seq());
  };
  // Lockstep for groups 0..3, then interface 0 goes silent and the peers
  // carry on until divergence (D = 4) convicts it.
  std::uint64_t seq = 0;
  for (; seq < 4; ++seq) {
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{r}).try_write(make_token(seq)));
    }
    drain();
  }
  for (; seq < 10; ++seq) {
    for (int r = 1; r < 3; ++r) {
      ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{r}).try_write(make_token(seq)));
    }
    drain();
  }
  ASSERT_TRUE(fx.selector->fault(ReplicaIndex{0}));

  fx.selector->reintegrate(ReplicaIndex{0});
  EXPECT_FALSE(fx.selector->fault(ReplicaIndex{0}));
  EXPECT_EQ(fx.selector->space(ReplicaIndex{0}), 3);  // capacity - initial restored

  // A late duplicate of an already-delivered group is recognized as such by
  // the sequence-number resync and dropped, not delivered again.
  const auto delivered = consumed.size();
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(seq - 1)));
  drain();
  EXPECT_EQ(consumed.size(), delivered);

  // From here interface 0 is a first-class member again: writing the next
  // group first makes IT the leader and the peers' copies the duplicates.
  for (; seq < 13; ++seq) {
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{r}).try_write(make_token(seq)));
    }
    drain();
  }
  ASSERT_EQ(consumed.size(), 13u);
  for (std::uint64_t i = 0; i < consumed.size(); ++i) EXPECT_EQ(consumed[i], i);
}

TEST(NSelector, RejoinAheadOfFrontierHeldUntilPeerCatchesUp) {
  Fixture fx(3);
  std::vector<std::uint64_t> consumed;
  auto drain = [&] {
    while (auto token = fx.selector->try_read()) consumed.push_back(token->seq());
  };
  std::uint64_t seq = 0;
  for (; seq < 4; ++seq) {
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{r}).try_write(make_token(seq)));
    }
    drain();
  }
  // Interface 0 halts (transient outage); peers advance to seq 5.
  fx.selector->freeze_writer(ReplicaIndex{0});
  for (; seq < 6; ++seq) {
    for (int r = 1; r < 3; ++r) {
      ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{r}).try_write(make_token(seq)));
    }
    drain();
  }
  fx.selector->reintegrate(ReplicaIndex{0});

  // The restarted replica resumes at seq 8 — ahead of the delivered frontier
  // (5). Tokens 6 and 7 exist only in the peers' pipelines, so the write is
  // HELD (returns false), not enqueued: delivering 8 now would turn the
  // peers' 6 and 7 into dropped late duplicates — a permanent gap.
  EXPECT_FALSE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(8)));
  for (; seq < 8; ++seq) {
    for (int r = 1; r < 3; ++r) {
      ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{r}).try_write(make_token(seq)));
    }
    drain();
  }
  // Frontier caught up: the retried write re-anchors and is fresh.
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(8)));
  drain();
  ASSERT_EQ(consumed.size(), 9u);
  for (std::uint64_t i = 0; i < consumed.size(); ++i) EXPECT_EQ(consumed[i], i);
}

TEST(NSelector, ResyncSideImmuneToStallAndDivergenceUntilReanchored) {
  Fixture fx(3);
  std::uint64_t seq = 0;
  for (; seq < 4; ++seq) {
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{r}).try_write(make_token(seq)));
    }
    while (fx.selector->try_read()) {
    }
  }
  fx.selector->reintegrate(ReplicaIndex{0});
  // While the rejoined side refills its pipeline, its counters refer to the
  // pre-fault epoch: 8 more groups push its stale received count D+ behind
  // the leader and its space past capacity, yet neither rule may convict it.
  for (; seq < 12; ++seq) {
    for (int r = 1; r < 3; ++r) {
      ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{r}).try_write(make_token(seq)));
    }
    while (fx.selector->try_read()) {
    }
  }
  EXPECT_GT(fx.selector->space(ReplicaIndex{0}), 6);  // would trip the stall rule
  EXPECT_FALSE(fx.selector->fault(ReplicaIndex{0}));
  // Its first write re-anchors and re-admits it.
  ASSERT_TRUE(fx.selector->write_interface(ReplicaIndex{0}).try_write(make_token(seq)));
  EXPECT_EQ(fx.selector->tokens_received(ReplicaIndex{0}), fx.selector->tokens_received(ReplicaIndex{1}) + 1);
}

class NReplicaParam : public ::testing::TestWithParam<int> {};

TEST_P(NReplicaParam, AllButOneFaultTolerated) {
  const int n = GetParam();
  Fixture fx(n);
  std::vector<std::uint64_t> consumed;
  auto drain = [&] {
    while (auto token = fx.selector->try_read()) consumed.push_back(token->seq());
  };
  // Replica r dies after group 3 * (r + 1); the highest-index replica
  // survives. Each alive replica writes every group.
  std::vector<std::uint64_t> written(static_cast<std::size_t>(n), 0);
  for (std::uint64_t group = 0; group < 4 * static_cast<std::uint64_t>(n); ++group) {
    for (int r = 0; r < n; ++r) {
      const bool alive =
          r == n - 1 || group < 3 * (static_cast<std::uint64_t>(r) + 1);
      if (!alive) continue;
      ASSERT_TRUE(
          fx.selector->write_interface(ReplicaIndex{r}).try_write(make_token(written[static_cast<std::size_t>(r)])));
      written[static_cast<std::size_t>(r)] += 1;
      drain();
    }
  }
  const std::uint64_t total = 4 * static_cast<std::uint64_t>(n);
  ASSERT_EQ(consumed.size(), total);
  for (std::uint64_t i = 0; i < total; ++i) EXPECT_EQ(consumed[i], i);
  EXPECT_FALSE(fx.selector->fault(ReplicaIndex{n - 1}));
}

INSTANTIATE_TEST_SUITE_P(TwoToFive, NReplicaParam, ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace sccft::ft

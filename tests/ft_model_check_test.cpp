// Bounded exhaustive model checking of the selector channel.
//
// Unlike the randomized property tests (which sample interleavings), this
// suite *enumerates every* interleaving of selector operations up to a depth
// bound via DFS — writes from either interface (each delivering its stream
// in order), consumer reads, and an optional one-time death of replica 1 —
// and asserts on every reachable state:
//
//   I1  consumer stream == 0, 1, 2, ... (no gap, duplicate, or reorder);
//   I2  a write on interface i is blocked iff space_i == 0, and blocking on
//       one interface never perturbs the peer's counters (Lemma 1);
//   I3  the healthy leader is never declared faulty;
//   I4  counter book-keeping: space_i == |S_i| - |S_i|_0 - W_i + R always.
//
// With depth 10 and 4 action kinds this explores ~10^5-10^6 paths; states are
// rebuilt by replaying the action prefix (the channel is cheap to drive).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ft/selector.hpp"
#include "sim/simulator.hpp"

namespace sccft::ft {
namespace {

using kpn::Token;

enum class Action { kWrite1, kWrite2, kRead, kKill1 };

constexpr rtc::Tokens kCap1 = 5;
constexpr rtc::Tokens kCap2 = 6;
constexpr rtc::Tokens kInit1 = 3;
constexpr rtc::Tokens kInit2 = 3;
constexpr rtc::Tokens kD = 4;

Token make_token(std::uint64_t seq) {
  return Token(std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq)}, seq, 0);
}

struct Model {
  sim::Simulator sim;
  SelectorChannel selector{sim, "sel",
                           {.capacities = {kCap1, kCap2},
                            .initials = {kInit1, kInit2},
                            .divergence_threshold = kD,
                            .enable_stall_rule = true}};
  std::uint64_t next1 = 0;
  std::uint64_t next2 = 0;
  std::uint64_t reads = 0;
  std::uint64_t expected = 0;
  bool r1_dead = false;
  bool violated = false;
  std::string failure;

  void fail(const std::string& why) {
    violated = true;
    if (failure.empty()) failure = why;
  }

  /// Applies an action if legal in the current state; returns false if the
  /// action is not applicable (prunes the branch).
  bool apply(Action action) {
    switch (action) {
      case Action::kWrite1: {
        if (r1_dead || selector.fault(ReplicaIndex::kReplica1)) return false;
        // Conforming stream: lead bounded by D-1.
        if (next1 >= next2 + static_cast<std::uint64_t>(kD) - 1) return false;
        if (selector.space(ReplicaIndex::kReplica1) == 0) {
          // I2: blocked write must not change any counter.
          const auto w1 = selector.tokens_received(ReplicaIndex::kReplica1);
          const auto s2 = selector.space(ReplicaIndex::kReplica2);
          if (selector.write_interface(ReplicaIndex::kReplica1)
                  .try_write(make_token(next1))) {
            fail("write succeeded with space_1 == 0");
          }
          if (selector.tokens_received(ReplicaIndex::kReplica1) != w1 ||
              selector.space(ReplicaIndex::kReplica2) != s2) {
            fail("blocked write perturbed counters (Lemma 1)");
          }
          return false;
        }
        if (!selector.write_interface(ReplicaIndex::kReplica1)
                 .try_write(make_token(next1))) {
          fail("write blocked with space_1 > 0");
          return false;
        }
        ++next1;
        return true;
      }
      case Action::kWrite2: {
        if (selector.fault(ReplicaIndex::kReplica2)) return false;
        if (!r1_dead && next2 >= next1 + static_cast<std::uint64_t>(kD) - 1) {
          return false;  // conforming lead bound while both healthy
        }
        if (selector.space(ReplicaIndex::kReplica2) == 0) return false;
        if (!selector.write_interface(ReplicaIndex::kReplica2)
                 .try_write(make_token(next2))) {
          fail("write blocked with space_2 > 0");
          return false;
        }
        ++next2;
        return true;
      }
      case Action::kRead: {
        const auto token = selector.try_read();
        if (!token) return false;
        if (token->seq() != expected) {
          fail("stream integrity: expected " + std::to_string(expected) + " got " +
               std::to_string(token->seq()));
        }
        ++expected;
        ++reads;
        return true;
      }
      case Action::kKill1:
        if (r1_dead) return false;
        r1_dead = true;
        selector.freeze_writer(ReplicaIndex::kReplica1);
        return true;
    }
    return false;
  }

  void check_invariants() {
    // I4: counter book-keeping (W counts only pre-freeze accepted writes;
    // frozen-interface drops don't decrement space).
    const auto w1 = static_cast<rtc::Tokens>(selector.tokens_received(ReplicaIndex::kReplica1));
    const auto w2 = static_cast<rtc::Tokens>(selector.tokens_received(ReplicaIndex::kReplica2));
    const auto r = static_cast<rtc::Tokens>(reads);
    if (selector.space(ReplicaIndex::kReplica1) != kCap1 - kInit1 - w1 + r) {
      fail("space_1 accounting broken");
    }
    if (selector.space(ReplicaIndex::kReplica2) != kCap2 - kInit2 - w2 + r) {
      fail("space_2 accounting broken");
    }
    // I3: while replica 1 is alive and conforming, neither replica may be
    // convicted; after its death, replica 2 must never be convicted.
    if (!r1_dead && (selector.fault(ReplicaIndex::kReplica1) ||
                     selector.fault(ReplicaIndex::kReplica2))) {
      fail("false positive while both replicas conforming");
    }
    if (r1_dead && selector.fault(ReplicaIndex::kReplica2)) {
      fail("healthy survivor convicted");
    }
  }
};

/// Replays `prefix` on a fresh model; returns it (violated flag set on any
/// invariant breach along the way).
std::unique_ptr<Model> replay(const std::vector<Action>& prefix) {
  auto model = std::make_unique<Model>();
  for (Action action : prefix) {
    if (!model->apply(action)) break;  // should not happen: prefix was applicable
    model->check_invariants();
    if (model->violated) break;
  }
  return model;
}

std::uint64_t explored = 0;
std::string first_failure;

void dfs(std::vector<Action>& prefix, int depth_left) {
  if (!first_failure.empty()) return;  // stop at the first counterexample
  const auto state = replay(prefix);
  if (state->violated) {
    first_failure = state->failure + " after prefix of length " +
                    std::to_string(prefix.size());
    return;
  }
  ++explored;
  if (depth_left == 0) return;
  for (Action action : {Action::kWrite1, Action::kWrite2, Action::kRead,
                        Action::kKill1}) {
    // Applicability check on a replayed copy (cheap at these depths).
    auto probe = replay(prefix);
    if (!probe->apply(action)) continue;
    prefix.push_back(action);
    dfs(prefix, depth_left - 1);
    prefix.pop_back();
  }
}

TEST(SelectorModelCheck, AllInterleavingsUpToDepth9HoldInvariants) {
  explored = 0;
  first_failure.clear();
  std::vector<Action> prefix;
  dfs(prefix, 9);
  EXPECT_TRUE(first_failure.empty()) << first_failure;
  // Sanity: the exploration actually covered a large space.
  EXPECT_GT(explored, 10'000u);
}

TEST(SelectorModelCheck, DeathBranchesEventuallyDetect) {
  // Directed scenario from the model: kill replica 1 immediately, then let
  // replica 2 run. The divergence rule must convict replica 1 within D
  // writes, in EVERY read/write interleaving of depth 12.
  std::uint64_t detected_paths = 0;
  std::uint64_t total_paths = 0;
  // Enumerate all binary sequences of (write2, read) after the kill.
  for (std::uint32_t mask = 0; mask < (1u << 12); ++mask) {
    Model model;
    ASSERT_TRUE(model.apply(Action::kKill1));
    int writes = 0;
    for (int bit = 0; bit < 12; ++bit) {
      const Action action = (mask >> bit) & 1u ? Action::kWrite2 : Action::kRead;
      if (model.apply(action) && action == Action::kWrite2) ++writes;
      model.check_invariants();
      ASSERT_FALSE(model.violated) << model.failure;
    }
    ++total_paths;
    if (model.selector.fault(ReplicaIndex::kReplica1)) ++detected_paths;
    // Whenever replica 2 delivered enough tokens and the consumer kept
    // reading, the fault must have been flagged.
    if (writes >= static_cast<int>(kD) + 2 && model.reads >= 4) {
      EXPECT_TRUE(model.selector.fault(ReplicaIndex::kReplica1))
          << "undetected after " << writes << " writes, mask " << mask;
    }
  }
  EXPECT_GT(detected_paths, 0u);
  EXPECT_EQ(total_paths, 1u << 12);
}

}  // namespace
}  // namespace sccft::ft

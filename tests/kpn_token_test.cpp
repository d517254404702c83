// Token CRC self-verification, the post-stamp corruption helpers, and the
// lazy, memoized payload CRC behind them.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "kpn/payload.hpp"
#include "kpn/token.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace sccft::kpn {
namespace {

Token make_token(std::vector<std::uint8_t> payload, std::uint64_t seq = 7) {
  return Token(std::move(payload), seq, 1'000);
}

TEST(Token, FreshTokenVerifies) {
  const Token token = make_token({0xDE, 0xAD, 0xBE, 0xEF});
  EXPECT_TRUE(token.verify_checksum());
}

TEST(Token, PayloadlessTokenVerifiesVacuously) {
  const Token token;
  EXPECT_FALSE(token.valid());
  EXPECT_TRUE(token.verify_checksum());
}

TEST(Token, CorruptedCopyFailsVerification) {
  const Token token = make_token({1, 2, 3, 4});
  const Token bad = token.corrupted(11);
  EXPECT_FALSE(bad.verify_checksum());
  // Metadata is carried over unchanged — only the payload bytes differ.
  EXPECT_EQ(bad.seq(), token.seq());
  EXPECT_EQ(bad.produced_at(), token.produced_at());
  EXPECT_EQ(bad.checksum(), token.checksum());
  EXPECT_EQ(bad.size_bytes(), token.size_bytes());
}

TEST(Token, CorruptionDoesNotTouchSharedPayload) {
  const Token token = make_token({10, 20, 30});
  const Token bad = token.corrupted(0);
  // The original still verifies: corrupted() copied before flipping, so the
  // replicator's shared payload (other replica, other channels) is intact.
  EXPECT_TRUE(token.verify_checksum());
  EXPECT_EQ(token.payload()[0], 10);
  EXPECT_NE(bad.payload()[0], 10);
}

TEST(Token, EverySingleBitFlipIsDetected) {
  // CRC-32 detects all single-bit errors by construction; this pins the
  // guarantee the selector's >= 99% coverage acceptance rests on.
  const Token token = make_token({0x00, 0xFF, 0x5A, 0xC3, 0x01});
  const std::size_t bits = static_cast<std::size_t>(token.size_bytes()) * 8;
  for (std::size_t bit = 0; bit < bits; ++bit) {
    EXPECT_FALSE(token.corrupted(bit).verify_checksum()) << "bit " << bit;
  }
}

TEST(Token, BitIndexWrapsAroundPayloadSize) {
  const Token token = make_token({0xAA});
  const Token a = token.corrupted(3);
  const Token b = token.corrupted(3 + 8);  // same bit after wrap-around
  EXPECT_EQ(a.payload()[0], b.payload()[0]);
  EXPECT_FALSE(a.verify_checksum());
}

TEST(Token, DoubleCorruptionOfSameBitRestoresPayloadButNotTrust) {
  const Token token = make_token({0x42, 0x24});
  const Token once = token.corrupted(5);
  const Token twice = once.corrupted(5);
  // Flipping the same bit twice restores the bytes, so the checksum matches
  // again — corruption detection is per-token, not a history.
  EXPECT_TRUE(twice.verify_checksum());
}

TEST(Token, CorruptingEmptyTokenViolatesContract) {
  const Token empty;
  EXPECT_THROW((void)empty.corrupted(0), util::ContractViolation);
}

TEST(Token, RestampedTokenStillVerifies) {
  const Token token = make_token({9, 8, 7});
  const Token restamped = token.restamped(99, 5'000);
  EXPECT_TRUE(restamped.verify_checksum());
  EXPECT_EQ(restamped.seq(), 99u);
}

// --- lazy CRC ---------------------------------------------------------------
// A buffer is hashed only when a checksum is read, at most once; a token only
// carries its own stamp after corrupted() swapped its payload.

std::uint64_t bytes_checksummed() { return PayloadPool::instance().bytes_checksummed(); }

TEST(LazyCrc, FreshTokenChecksumsNothing) {
  const std::uint64_t before = bytes_checksummed();
  const Token token = make_token(std::vector<std::uint8_t>(1024, 0x5A));
  const Token restamped = token.restamped(8, 2'000);
  EXPECT_TRUE(token.verify_checksum());
  EXPECT_TRUE(restamped.verify_checksum());
  EXPECT_EQ(bytes_checksummed() - before, 0u);
}

TEST(LazyCrc, ChecksumHashesTheBufferAtMostOnce) {
  const std::vector<std::uint8_t> bytes(300, 0xC3);
  const Token token = make_token(bytes);
  const Token copy = token.restamped(9, 3'000);  // shares the buffer
  const std::uint64_t before = bytes_checksummed();
  EXPECT_EQ(token.checksum(), util::crc32(bytes));
  EXPECT_EQ(copy.checksum(), util::crc32(bytes));
  EXPECT_EQ(token.payload_ref().crc(), util::crc32(bytes));
  EXPECT_EQ(bytes_checksummed() - before, bytes.size());
}

TEST(LazyCrc, CorruptingAnUnhashedBufferStillFailsVerification) {
  const std::vector<std::uint8_t> original{1, 2, 3, 4, 5};
  const Token token = make_token(original);
  const Token bad = token.corrupted(17);  // the buffer's CRC was never read
  EXPECT_FALSE(bad.verify_checksum());
  EXPECT_EQ(bad.checksum(), util::crc32(original));
  EXPECT_NE(bad.payload_ref().crc(), bad.checksum());
}

TEST(LazyCrc, SilentCorruptionChecksumsTheFlippedBytes) {
  const std::vector<std::uint8_t> original{9, 9, 9};
  const Token silent = make_token(original).silently_corrupted(4);
  std::vector<std::uint8_t> flipped = original;
  flipped[0] ^= 1u << 4;
  EXPECT_TRUE(silent.verify_checksum());
  EXPECT_EQ(silent.checksum(), util::crc32(flipped));
}

TEST(LazyCrc, SilentCorruptionDropsAnOwnStamp) {
  const Token silent = make_token({7, 7}).corrupted(1).silently_corrupted(2);
  EXPECT_TRUE(silent.verify_checksum());
  EXPECT_EQ(silent.checksum(), util::crc32(silent.payload()));
}

TEST(LazyCrc, CorruptedOfCorruptedKeepsTheFirstStamp) {
  const std::vector<std::uint8_t> original{0x10, 0x20, 0x30};
  const Token twice = make_token(original).corrupted(1).corrupted(9);
  EXPECT_FALSE(twice.verify_checksum());
  EXPECT_EQ(twice.checksum(), util::crc32(original));
}

TEST(LazyCrc, RestampedKeepsAnOwnStamp) {
  const std::vector<std::uint8_t> original{4, 3, 2, 1};
  const Token moved = make_token(original).corrupted(6).restamped(42, 9'000);
  EXPECT_FALSE(moved.verify_checksum());
  EXPECT_EQ(moved.checksum(), util::crc32(original));
  EXPECT_EQ(moved.seq(), 42u);
}

TEST(LazyCrc, ConcurrentFirstCallsAgree) {
  std::vector<std::uint8_t> bytes(4096);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i * 31);
  const std::uint32_t want = util::crc32(bytes);
  const PayloadRef shared = PayloadRef::adopt(std::move(bytes));
  std::array<std::uint32_t, 4> got{};
  std::array<std::thread, 4> threads;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    threads[t] = std::thread([&shared, &got, t] {
      const PayloadRef mine = shared;  // one ref per thread, as workers hold
      got[t] = mine.crc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::uint32_t crc : got) EXPECT_EQ(crc, want);
  EXPECT_EQ(shared.crc(), want);
}

}  // namespace
}  // namespace sccft::kpn

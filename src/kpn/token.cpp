#include "kpn/token.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sccft::kpn {

Token::Token(std::vector<std::uint8_t> payload, std::uint64_t seq, TimeNs produced_at)
    : payload_(PayloadRef::adopt(std::move(payload))),
      seq_(seq),
      produced_at_(produced_at) {}

Token::Token(PayloadRef payload, std::uint64_t seq, TimeNs produced_at)
    : payload_(std::move(payload)),
      seq_(seq),
      produced_at_(produced_at) {
  SCCFT_EXPECTS(static_cast<bool>(payload_));
}

std::span<const std::uint8_t> Token::payload() const {
  SCCFT_EXPECTS(static_cast<bool>(payload_));
  return payload_.view();
}

bool Token::verify_checksum() const {
  if (!payload_ || !own_stamp_) return true;
  return payload_.crc() == checksum_;
}

Token Token::flipped(std::size_t bit_index) const {
  SCCFT_EXPECTS(payload_ && payload_.size() > 0);
  std::vector<std::uint8_t> bytes(payload_.view().begin(), payload_.view().end());
  const std::size_t bit = bit_index % (bytes.size() * 8);
  bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  Token copy = *this;
  copy.payload_ = PayloadRef::adopt(std::move(bytes));
  return copy;
}

Token Token::corrupted(std::size_t bit_index) const {
  Token copy = flipped(bit_index);  // keeps any own stamp (now stale)
  if (!own_stamp_) {
    copy.checksum_ = payload_.crc();  // the stamp the original bytes carried
    copy.own_stamp_ = true;
  }
  return copy;
}

Token Token::silently_corrupted(std::size_t bit_index) const {
  Token copy = flipped(bit_index);
  copy.own_stamp_ = false;  // stamped AFTER the flip: CRC is blind
  return copy;
}

Token Token::restamped(std::uint64_t seq, TimeNs produced_at) const {
  Token copy = *this;
  copy.seq_ = seq;
  copy.produced_at_ = produced_at;
  return copy;
}

}  // namespace sccft::kpn

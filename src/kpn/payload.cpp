#include "kpn/payload.hpp"

#include "util/crc32.hpp"

namespace sccft::kpn {

PayloadPool& PayloadPool::instance() {
  static PayloadPool pool;
  return pool;
}

std::uint32_t PayloadBuffer::compute_crc() const {
  const std::uint32_t crc = util::crc32(bytes_);
  PayloadPool::instance().bytes_checksummed_.fetch_add(bytes_.size(),
                                                        std::memory_order_relaxed);
  crc_word_.store(kCrcKnown | crc, std::memory_order_relaxed);
  return crc;
}

PayloadRef PayloadRef::adopt(std::vector<std::uint8_t> bytes) {
  return PayloadPool::instance().admit(std::move(bytes));
}

PayloadRef PayloadPool::admit(std::vector<std::uint8_t> bytes) {
  PayloadBuffer* buf = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_ != nullptr) {
      buf = free_;
      free_ = buf->next_free_;
      buffers_recycled_.fetch_add(1, std::memory_order_relaxed);
    } else {
      buf = storage_.emplace_back(std::make_unique<PayloadBuffer>()).get();
      buffers_created_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // From here the buffer is exclusively ours; fill it outside the lock. Its
  // CRC is left for the first crc() call.
  buf->next_free_ = nullptr;
  buf->bytes_ = std::move(bytes);
  buf->crc_word_.store(0, std::memory_order_relaxed);
  buf->refs_.store(1, std::memory_order_relaxed);
  return PayloadRef(buf);
}

void PayloadPool::recycle(PayloadBuffer* buf) noexcept {
  // Only the node is recycled; its contents were move-assigned away by the
  // next admit() anyway, so clear eagerly (outside the lock) to release any
  // payload-held resources promptly.
  buf->bytes_.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  buf->next_free_ = free_;
  free_ = buf;
}

}  // namespace sccft::kpn

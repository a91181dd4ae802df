#include "obs/trace.hpp"

#include <cstring>
#include <type_traits>

namespace onfiber::obs {

static_assert(sizeof(hop_record) == 24,
              "hop_record must stay 3 words for the lock-free ring");
static_assert(std::is_trivially_copyable_v<hop_record>);

const char* to_string(hop_action a) {
  switch (a) {
    case hop_action::inject: return "inject";
    case hop_action::forward: return "forward";
    case hop_action::redirect: return "redirect";
    case hop_action::compute: return "compute";
    case hop_action::deliver: return "deliver";
    case hop_action::drop: return "drop";
  }
  return "?";
}

const char* to_string(drop_reason r) {
  switch (r) {
    case drop_reason::none: return "none";
    case drop_reason::ttl_expired: return "ttl_expired";
    case drop_reason::link_down: return "link_down";
    case drop_reason::no_route: return "no_route";
    case drop_reason::hook_drop: return "hook_drop";
    case drop_reason::bad_redirect: return "bad_redirect";
  }
  return "?";
}

tracer::tracer() : slots_(new slot[kCapacity]()) {}

tracer& tracer::global() {
  static tracer t;
  return t;
}

std::uint32_t tracer::next_trace_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void tracer::record(const hop_record& r) {
  // Ticket reservation: distinct records land in distinct slots (until
  // wraparound laps them, by which point the old record is garbage
  // anyway). The release pairs with snapshot's acquire on total_ so a
  // quiescent snapshot sees every completed record.
  std::uint64_t words[kWords];
  std::memcpy(words, &r, sizeof(words));
  const std::uint64_t ticket =
      total_.fetch_add(1, std::memory_order_release);
  slot& s = slots_[ticket % kCapacity];
  for (std::size_t i = 0; i < kWords; ++i) {
    s.w[i].store(words[i], std::memory_order_relaxed);
  }
}

std::uint64_t tracer::total_recorded() const {
  return total_.load(std::memory_order_acquire);
}

hop_record tracer::load_slot(std::size_t i) const {
  std::uint64_t words[kWords];
  for (std::size_t k = 0; k < kWords; ++k) {
    words[k] = slots_[i].w[k].load(std::memory_order_relaxed);
  }
  hop_record r;
  std::memcpy(&r, words, sizeof(r));
  return r;
}

std::vector<hop_record> tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(m_);
  const std::uint64_t total = total_.load(std::memory_order_acquire);
  const std::size_t kept =
      static_cast<std::size_t>(total < kCapacity ? total : kCapacity);
  std::vector<hop_record> out;
  out.reserve(kept);
  // Oldest record lives at total % capacity once the ring has wrapped,
  // at 0 before that.
  const std::size_t head =
      total <= kCapacity ? 0 : static_cast<std::size_t>(total % kCapacity);
  for (std::size_t i = 0; i < kept; ++i) {
    out.push_back(load_slot((head + i) % kCapacity));
  }
  return out;
}

std::vector<hop_record> tracer::packet_life(std::uint32_t trace_id) const {
  std::vector<hop_record> out;
  for (const hop_record& r : snapshot()) {
    if (r.trace_id == trace_id) out.push_back(r);
  }
  return out;
}

void tracer::clear() {
  std::lock_guard<std::mutex> lock(m_);
  total_.store(0, std::memory_order_release);
  next_id_.store(0, std::memory_order_release);
}

}  // namespace onfiber::obs

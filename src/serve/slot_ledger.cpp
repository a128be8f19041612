#include "serve/slot_ledger.h"

#include <algorithm>
#include <utility>

#include "util/common.h"

namespace vf::serve {

SlotLedger::SlotLedger(std::int64_t total_vns)
    : slots_(static_cast<std::size_t>(total_vns)) {
  check(total_vns > 0, "slot ledger needs at least one virtual node");
}

std::int32_t SlotLedger::lowest_free() const {
  for (std::size_t vn = 0; vn < slots_.size(); ++vn)
    if (!slots_[vn].busy) return static_cast<std::int32_t>(vn);
  return -1;
}

void SlotLedger::admit(std::int32_t vn, Slot slot) {
  check_index(vn, total_slots(), "virtual-node slot");
  Slot& dst = slots_[static_cast<std::size_t>(vn)];
  check(!dst.busy, [&] { return "admit into busy slot VN " + std::to_string(vn); });
  check(!slot.requests.empty(), "an admitted slice holds at least one request");
  check(slot.dispatch_s <= slot.done_s, "slice completes before its dispatch");
  slot.busy = true;
  inflight_ += static_cast<std::int64_t>(slot.requests.size());
  dst = std::move(slot);
  ++busy_;
  if (admits_ != nullptr) admits_->add();
}

std::vector<std::int32_t> SlotLedger::due(double now_s) const {
  std::vector<std::int32_t> out;
  for (std::size_t vn = 0; vn < slots_.size(); ++vn)
    if (slots_[vn].busy && slots_[vn].done_s <= now_s)
      out.push_back(static_cast<std::int32_t>(vn));
  std::sort(out.begin(), out.end(), [&](std::int32_t a, std::int32_t b) {
    const Slot& sa = slots_[static_cast<std::size_t>(a)];
    const Slot& sb = slots_[static_cast<std::size_t>(b)];
    if (sa.done_s != sb.done_s) return sa.done_s < sb.done_s;
    return a < b;
  });
  return out;
}

Slot SlotLedger::complete(std::int32_t vn) {
  check_index(vn, total_slots(), "virtual-node slot");
  Slot& s = slots_[static_cast<std::size_t>(vn)];
  check(s.busy, [&] { return "complete on free slot VN " + std::to_string(vn); });
  Slot out = std::move(s);
  s = Slot{};
  --busy_;
  inflight_ -= static_cast<std::int64_t>(out.requests.size());
  if (completes_ != nullptr) completes_->add();
  return out;
}

Slot SlotLedger::readmit(std::int32_t vn, Slot next) {
  check_index(vn, total_slots(), "virtual-node slot");
  Slot& s = slots_[static_cast<std::size_t>(vn)];
  check(s.busy, [&] { return "readmit on free slot VN " + std::to_string(vn); });
  check(!next.requests.empty(), "an admitted slice holds at least one request");
  check(next.dispatch_s <= next.done_s, "slice completes before its dispatch");
  check(s.done_s <= next.dispatch_s, [&] {
    return "readmit into VN " + std::to_string(vn) + " before its slice finished";
  });
  Slot out = std::move(s);
  inflight_ += static_cast<std::int64_t>(next.requests.size()) -
               static_cast<std::int64_t>(out.requests.size());
  next.busy = true;
  s = std::move(next);
  // busy_ is unchanged: the slot stays occupied across the swap.
  if (readmits_ != nullptr) readmits_->add();
  return out;
}

Slot SlotLedger::evict(std::int32_t vn) {
  check_index(vn, total_slots(), "virtual-node slot");
  Slot& s = slots_[static_cast<std::size_t>(vn)];
  check(s.busy, [&] { return "evict on free slot VN " + std::to_string(vn); });
  Slot out = std::move(s);
  s = Slot{};
  --busy_;
  inflight_ -= static_cast<std::int64_t>(out.requests.size());
  if (evictions_ != nullptr) evictions_->add();
  return out;
}

void SlotLedger::set_metrics(obs::MetricsRegistry* metrics,
                             const std::string& prefix) {
  if (metrics == nullptr) {
    admits_ = readmits_ = completes_ = evictions_ = nullptr;
    return;
  }
  admits_ = &metrics->counter(prefix + "slots.admits");
  readmits_ = &metrics->counter(prefix + "slots.readmits");
  completes_ = &metrics->counter(prefix + "slots.completes");
  evictions_ = &metrics->counter(prefix + "slots.evictions");
}

const Slot& SlotLedger::slot(std::int32_t vn) const {
  check_index(vn, total_slots(), "virtual-node slot");
  return slots_[static_cast<std::size_t>(vn)];
}

}  // namespace vf::serve

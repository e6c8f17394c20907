#include "storage/deadline.h"

#include <algorithm>
#include <string>

#include "storage/wire_codec.h"

namespace mlcask::storage {

namespace {
thread_local DeadlineBudget* t_current_budget = nullptr;
}  // namespace

uint64_t DeadlineBudget::elapsed_ms() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

uint64_t DeadlineBudget::remaining_ms() const {
  uint64_t consumed = elapsed_ms();
  {
    std::lock_guard<std::mutex> lock(mu_);
    consumed = std::max(consumed, accounted_ms_);
  }
  return consumed >= total_ms_ ? 0 : total_ms_ - consumed;
}

void DeadlineBudget::Charge(uint64_t ms) {
  const uint64_t elapsed = elapsed_ms();
  std::lock_guard<std::mutex> lock(mu_);
  accounted_ms_ = std::max(accounted_ms_, elapsed) + ms;
}

DeadlineScope::DeadlineScope(DeadlineBudget* budget) : prev_(t_current_budget) {
  t_current_budget = budget;
}

DeadlineScope::~DeadlineScope() { t_current_budget = prev_; }

DeadlineBudget* DeadlineScope::Current() { return t_current_budget; }

uint64_t DeadlineScope::CurrentRemainingMs() {
  return t_current_budget == nullptr ? 0 : t_current_budget->remaining_ms();
}

void DeadlineScope::ChargeCurrent(uint64_t ms) {
  if (t_current_budget != nullptr) t_current_budget->Charge(ms);
}

Status DeadlineScope::CheckCurrent(const char* what) {
  if (t_current_budget != nullptr && t_current_budget->expired()) {
    return Status::DeadlineExceeded(std::string(what) +
                                    ": request deadline already spent");
  }
  return Status::Ok();
}

uint64_t PeekRequestDeadlineMs(std::string_view request) {
  return wire::ExtractDeadline(request);
}

}  // namespace mlcask::storage

#include "src/proto/disk_gate.h"

#include <time.h>

#include <algorithm>

#include "src/util/logging.h"

namespace lard {

DiskGate::DiskGate(EventLoop* loop, const DiskCostModel& costs, double time_scale)
    : loop_(loop), costs_(costs), time_scale_(time_scale) {
  LARD_CHECK(time_scale_ > 0.0);
}

int64_t DiskGate::NowMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

void DiskGate::Read(uint64_t bytes, std::function<void()> done) {
  const double service_ms = DiskServiceTimeUs(costs_, bytes) * time_scale_ / 1000.0;
  const int64_t now = NowMs();
  const int64_t start = std::max(now, busy_until_ms_);
  // llround without a libm call on the serve path: truncate, then round half
  // up (service_ms >= 0, and the remainder is computed exactly).
  auto rounded_ms = static_cast<int64_t>(service_ms);
  if (service_ms - static_cast<double>(rounded_ms) >= 0.5) {
    ++rounded_ms;
  }
  const int64_t completion = start + std::max<int64_t>(1, rounded_ms);
  busy_until_ms_ = completion;
  ++outstanding_;
  ++total_reads_;
  loop_->ScheduleAfterMs(completion - now, alive_.Guard([this, done = std::move(done)]() {
                           --outstanding_;
                           done();
                         }));
}

}  // namespace lard

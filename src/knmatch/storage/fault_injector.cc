#include "knmatch/storage/fault_injector.h"

#include "knmatch/obs/catalog.h"

namespace knmatch {

namespace {
/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
}  // namespace

double FaultInjector::HashToUnit(uint64_t seed, uint64_t a, uint64_t b) {
  const uint64_t h = Mix64(Mix64(seed ^ Mix64(a)) ^ b);
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultInjector::Outcome FaultInjector::OnReadAttempt(uint64_t page) {
  std::scoped_lock lock(mu_);
  const uint64_t attempt = attempts_[page]++;

  if (scripted_corrupt_.contains(page)) {
    ++corruptions_injected_;
    obs::Cat().faults_corruption->Add();
    return Outcome::kCorruption;
  }
  if (auto it = scripted_failures_.find(page);
      it != scripted_failures_.end()) {
    if (it->second > 0) {
      --it->second;
      ++transient_faults_injected_;
      obs::Cat().faults_transient->Add();
      return Outcome::kTransientError;
    }
    scripted_failures_.erase(it);
  }

  if (config_.corruption_rate > 0 && !healed_.contains(page) &&
      HashToUnit(config_.seed ^ 0xC0DEC0DEC0DEC0DEull, page, 0) <
          config_.corruption_rate) {
    ++corruptions_injected_;
    obs::Cat().faults_corruption->Add();
    return Outcome::kCorruption;
  }
  if (config_.transient_error_rate > 0 &&
      HashToUnit(config_.seed, page, attempt) <
          config_.transient_error_rate) {
    ++transient_faults_injected_;
    obs::Cat().faults_transient->Add();
    return Outcome::kTransientError;
  }
  return Outcome::kOk;
}

void FaultInjector::FailNextReads(uint64_t page, uint32_t times) {
  if (times == 0) return;
  std::scoped_lock lock(mu_);
  scripted_failures_[page] += times;
}

void FaultInjector::CorruptPage(uint64_t page) {
  std::scoped_lock lock(mu_);
  scripted_corrupt_.insert(page);
  healed_.erase(page);
}

void FaultInjector::HealPage(uint64_t page) {
  std::scoped_lock lock(mu_);
  scripted_corrupt_.erase(page);
  scripted_failures_.erase(page);
  healed_.insert(page);
}

void FaultInjector::ScheduleCrash(CrashPoint point, uint32_t nth) {
  std::scoped_lock lock(mu_);
  crash_schedule_[static_cast<size_t>(point)] = nth;
}

bool FaultInjector::ShouldCrash(CrashPoint point) {
  std::scoped_lock lock(mu_);
  uint32_t& remaining = crash_schedule_[static_cast<size_t>(point)];
  if (remaining == 0) return false;
  if (--remaining > 0) return false;
  ++crashes_delivered_;
  return true;
}

bool FaultInjector::HasScheduledCrash() const {
  std::scoped_lock lock(mu_);
  for (const uint32_t n : crash_schedule_) {
    if (n != 0) return true;
  }
  return false;
}

void FaultInjector::Clear() {
  std::scoped_lock lock(mu_);
  scripted_failures_.clear();
  scripted_corrupt_.clear();
  healed_.clear();
  crash_schedule_.fill(0);
  config_.transient_error_rate = 0.0;
  config_.corruption_rate = 0.0;
}

}  // namespace knmatch

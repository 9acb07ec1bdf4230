#include "knmatch/storage/disk_simulator.h"

#include <cassert>
#include <string>

#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch {

uint64_t DiskSimulator::AllocatePages(uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t first = next_page_;
  next_page_ += count;
  return first;
}

namespace {

/// Physical read attempts charged by this thread (thread_reads()).
thread_local uint64_t tls_reads = 0;

}  // namespace

uint64_t DiskSimulator::thread_reads() { return tls_reads; }

size_t DiskSimulator::OpenStream() {
  std::lock_guard<std::mutex> lock(mu_);
  return OpenStreamLocked();
}

size_t DiskSimulator::OpenStreamLocked() {
  if (!free_streams_.empty()) {
    // A released id: its position and buffer were reset on release.
    const size_t id = free_streams_.back();
    free_streams_.pop_back();
    return id;
  }
  stream_last_page_.push_back(0);
  stream_has_pos_.push_back(false);
  stream_buffer_valid_.push_back(false);
  return stream_last_page_.size() - 1;
}

void DiskSimulator::RewindStream(size_t stream) {
  std::lock_guard<std::mutex> lock(mu_);
  stream_has_pos_[stream] = false;
  stream_buffer_valid_[stream] = false;
}

DiskSimulator::StreamLease::StreamLease(DiskSimulator* disk, size_t count)
    : disk_(disk), ids_(count, 0) {
  if (disk_ == nullptr) return;
  std::lock_guard<std::mutex> lock(disk_->mu_);
  for (size_t& id : ids_) id = disk_->OpenStreamLocked();
}

void DiskSimulator::StreamLease::Release() {
  if (disk_ == nullptr) return;
  std::lock_guard<std::mutex> lock(disk_->mu_);
  for (const size_t id : ids_) {
    disk_->stream_has_pos_[id] = false;
    disk_->stream_buffer_valid_[id] = false;
    disk_->free_streams_.push_back(id);
  }
  disk_ = nullptr;
}

bool DiskSimulator::BufferPool::Lookup(uint64_t page) {
  auto it = index.find(page);
  if (it == index.end()) return false;
  recency.splice(recency.begin(), recency, it->second);
  return true;
}

void DiskSimulator::BufferPool::Insert(uint64_t page, size_t capacity) {
  if (index.contains(page)) return;
  recency.push_front(page);
  index[page] = recency.begin();
  if (recency.size() > capacity) {
    index.erase(recency.back());
    recency.pop_back();
  }
}

void DiskSimulator::BufferPool::Erase(uint64_t page) {
  auto it = index.find(page);
  if (it == index.end()) return;
  recency.erase(it->second);
  index.erase(it);
}

void DiskSimulator::BufferPool::Clear() {
  recency.clear();
  index.clear();
}

void DiskSimulator::DropBufferPool() {
  std::lock_guard<std::mutex> lock(mu_);
  pool_.Clear();
}

bool DiskSimulator::IsQuarantined(uint64_t page) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_.contains(page);
}

void DiskSimulator::QuarantinePage(uint64_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  QuarantinePageLocked(page);
}

void DiskSimulator::QuarantinePageLocked(uint64_t page) {
  if (quarantined_.insert(page).second) {
    obs::Cat().quarantines->Add();
    obs::Cat().quarantined_pages->Add(1);
    if (obs::QueryTrace* trace = obs::CurrentTrace()) {
      ++trace->counters().quarantines;
    }
  }
  pool_.Erase(page);
}

void DiskSimulator::ClearQuarantine() {
  std::lock_guard<std::mutex> lock(mu_);
  obs::Cat().quarantined_pages->Add(
      -static_cast<int64_t>(quarantined_.size()));
  quarantined_.clear();
}

void DiskSimulator::EvictPage(uint64_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  pool_.Erase(page);
}

void DiskSimulator::SetPosition(size_t stream, uint64_t page,
                                bool buffer_valid) {
  if (config_.single_head) {
    head_has_pos_ = true;
    head_last_page_ = page;
    head_buffer_valid_ = buffer_valid;
  } else {
    stream_has_pos_[stream] = true;
    stream_last_page_[stream] = page;
    stream_buffer_valid_[stream] = buffer_valid;
  }
}

void DiskSimulator::ChargeAttempt(size_t stream, uint64_t page) {
  ++tls_reads;
  const bool has_pos =
      config_.single_head ? head_has_pos_ : stream_has_pos_[stream];
  if (!has_pos) {
    ++random_reads_;  // First access of a stream always seeks.
    obs::Cat().pages_random->Add();
    if (obs::QueryTrace* trace = obs::CurrentTrace()) {
      ++trace->counters().random_pages;
    }
    return;
  }
  const uint64_t last =
      config_.single_head ? head_last_page_ : stream_last_page_[stream];
  // Same page (only reachable when the buffer is invalid, i.e. a retry
  // after a failed transfer) and +/-1 neighbors need no seek.
  const bool adjacent =
      page == last || page == last + 1 || last == page + 1;
  if (adjacent) {
    ++sequential_reads_;
    obs::Cat().pages_sequential->Add();
    if (obs::QueryTrace* trace = obs::CurrentTrace()) {
      ++trace->counters().sequential_pages;
    }
  } else {
    ++random_reads_;
    obs::Cat().pages_random->Add();
    if (obs::QueryTrace* trace = obs::CurrentTrace()) {
      ++trace->counters().random_pages;
    }
  }
}

DiskSimulator::ReadOutcome DiskSimulator::ReadAttempt(size_t stream,
                                                      uint64_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadAttemptLocked(stream, page);
}

DiskSimulator::ReadOutcome DiskSimulator::ReadAttemptLocked(
    size_t stream, uint64_t page) {
  assert(stream < stream_last_page_.size());
  assert(page < next_page_);
  // Re-reading the contents held by the reader's own page buffer:
  // free, no media access, and the shared pool's recency untouched.
  if (config_.single_head) {
    if (head_buffer_valid_ && page == head_last_page_) {
      return ReadOutcome::kOk;
    }
  } else if (stream_buffer_valid_[stream] &&
             stream_last_page_[stream] == page) {
    return ReadOutcome::kOk;
  }
  // Shared buffer pool (when configured): resident pages are served
  // from memory — no media access, so no fault opportunity either.
  if (config_.buffer_pool_pages > 0 && pool_.Lookup(page)) {
    ++buffer_hits_;
    obs::Cat().buffer_hits->Add();
    if (obs::QueryTrace* trace = obs::CurrentTrace()) {
      ++trace->counters().buffer_hits;
    }
    SetPosition(stream, page, /*buffer_valid=*/true);
    return ReadOutcome::kOk;
  }
  // Physical attempt: it costs I/O whether or not it succeeds.
  ReadOutcome outcome = ReadOutcome::kOk;
  if (injector_ != nullptr) {
    switch (injector_->OnReadAttempt(page)) {
      case FaultInjector::Outcome::kOk:
        break;
      case FaultInjector::Outcome::kTransientError:
        outcome = ReadOutcome::kTransientError;
        break;
      case FaultInjector::Outcome::kCorruption:
        outcome = ReadOutcome::kCorruption;
        break;
    }
  }
  ChargeAttempt(stream, page);
  if (outcome == ReadOutcome::kOk) {
    if (config_.buffer_pool_pages > 0) {
      pool_.Insert(page, config_.buffer_pool_pages);
    }
    SetPosition(stream, page, /*buffer_valid=*/true);
  } else {
    // The head reached the page but nothing usable transferred; a
    // corrupted transfer's garbage must not enter the pool either.
    ++failed_reads_;
    obs::Cat().failed_reads->Add();
    if (obs::QueryTrace* trace = obs::CurrentTrace()) {
      ++trace->counters().failed_reads;
    }
    SetPosition(stream, page, /*buffer_valid=*/false);
  }
  return outcome;
}

void DiskSimulator::RecordRead(size_t stream, uint64_t page) {
  (void)ReadAttempt(stream, page);
}

Status DiskSimulator::ChargedRead(size_t stream, uint64_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  if (quarantined_.contains(page)) {
    return Status::DataLoss("page " + std::to_string(page) +
                            " is quarantined");
  }
  for (int attempt = 0; attempt < kMaxReadAttempts; ++attempt) {
    if (attempt > 0) {
      obs::Cat().read_retries->Add();
      if (obs::QueryTrace* trace = obs::CurrentTrace()) {
        ++trace->counters().retries;
      }
    }
    switch (ReadAttemptLocked(stream, page)) {
      case ReadOutcome::kOk:
        return Status::OK();
      case ReadOutcome::kTransientError:
        continue;
      case ReadOutcome::kCorruption:
        QuarantinePageLocked(page);
        return Status::DataLoss("page " + std::to_string(page) +
                                " failed verification; quarantined");
    }
  }
  return Status::Unavailable("page " + std::to_string(page) +
                             " unreadable after " +
                             std::to_string(kMaxReadAttempts) +
                             " attempts");
}

double DiskSimulator::SimulatedIoSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return (static_cast<double>(sequential_reads_) *
              config_.sequential_read_ms +
          static_cast<double>(random_reads_) * config_.random_read_ms) /
         1000.0;
}

void DiskSimulator::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  sequential_reads_ = 0;
  random_reads_ = 0;
  failed_reads_ = 0;
  buffer_hits_ = 0;
  head_has_pos_ = false;
  head_buffer_valid_ = false;
  for (size_t i = 0; i < stream_has_pos_.size(); ++i) {
    stream_has_pos_[i] = false;
    stream_buffer_valid_[i] = false;
  }
}

}  // namespace knmatch

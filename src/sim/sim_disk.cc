#include "audit/mutex.h"
#include "sim/sim_disk.h"

#include <algorithm>

namespace msplog {

SimDisk::SimDisk(SimEnvironment* env, std::string name, DiskGeometry geometry,
                 uint64_t seed)
    : env_(env), name_(std::move(name)), geometry_(geometry), rng_(seed) {
  hist_write_ms_ = env_->metrics().GetHistogram("disk.write_ms");
  hist_read_ms_ = env_->metrics().GetHistogram("disk.read_ms");
}

void SimDisk::ChargeWrite(uint64_t bytes) {
  uint64_t sectors =
      (bytes + geometry_.sector_bytes - 1) / geometry_.sector_bytes;
  if (sectors == 0) sectors = 1;
  env_->stats().disk_flushes.fetch_add(1);
  env_->stats().disk_sectors_written.fetch_add(sectors);
  if (!charge_latency_) return;
  double ms = geometry_.WriteLatencyMs(sectors);
  {
    audit::LockGuard lk(rng_mu_);
    if (rng_.Chance(geometry_.os_interference_prob)) {
      ms += geometry_.write_avg_seek_ms;
    }
  }
  hist_write_ms_->Record(ms);
  audit::LockGuard io(io_mu_);
  env_->SleepModelMs(ms);
}

void SimDisk::ChargeRead(uint64_t bytes) {
  uint64_t sectors =
      (bytes + geometry_.sector_bytes - 1) / geometry_.sector_bytes;
  if (sectors == 0) sectors = 1;
  env_->stats().disk_reads.fetch_add(1);
  if (!charge_latency_) return;
  double ms = geometry_.ReadLatencyMs(sectors);
  {
    audit::LockGuard lk(rng_mu_);
    if (rng_.Chance(geometry_.os_interference_prob)) {
      ms += geometry_.read_avg_seek_ms;
    }
  }
  hist_read_ms_->Record(ms);
  audit::LockGuard io(io_mu_);
  env_->SleepModelMs(ms);
}

void SimDisk::Barrier(uint64_t sectors) {
  ChargeWrite(sectors * geometry_.sector_bytes);
}

Status SimDisk::WriteAt(const std::string& file, uint64_t offset,
                        ByteView data) {
  ChargeWrite(data.size());
  {
    audit::LockGuard lk(state_mu_);
    Bytes& f = files_[file];
    if (f.size() < offset) f.resize(offset, '\0');
    if (f.size() < offset + data.size()) f.resize(offset + data.size(), '\0');
    f.replace(offset, data.size(), data.data(), data.size());
  }
  NotifyCompletion(file, offset, data.size());
  return Status::OK();
}

Status SimDisk::Append(const std::string& file, ByteView data) {
  ChargeWrite(data.size());
  uint64_t offset = 0;
  {
    audit::LockGuard lk(state_mu_);
    Bytes& f = files_[file];
    offset = f.size();
    f.append(data.data(), data.size());
  }
  NotifyCompletion(file, offset, data.size());
  return Status::OK();
}

int SimDisk::AddCompletionHook(DiskCompletionHook hook) {
  audit::LockGuard lk(hooks_mu_);
  int id = next_hook_id_++;
  completion_hooks_[id] = std::move(hook);
  return id;
}

void SimDisk::RemoveCompletionHook(int id) {
  audit::LockGuard lk(hooks_mu_);
  completion_hooks_.erase(id);
}

void SimDisk::NotifyCompletion(const std::string& file, uint64_t offset,
                               uint64_t bytes) {
  // Snapshot the hooks so they run with no disk locks held — a hook is
  // allowed to take its owner's lock and even issue further disk calls.
  std::vector<DiskCompletionHook> hooks;
  {
    audit::LockGuard lk(hooks_mu_);
    if (completion_hooks_.empty()) return;
    hooks.reserve(completion_hooks_.size());
    for (const auto& [id, h] : completion_hooks_) hooks.push_back(h);
  }
  DiskCompletion info{&file, offset, bytes};
  for (const auto& h : hooks) h(info);
}

Status SimDisk::ReadAt(const std::string& file, uint64_t offset, uint64_t n,
                       Bytes* out) {
  {
    audit::LockGuard lk(state_mu_);
    auto it = files_.find(file);
    if (it == files_.end()) return Status::NotFound("no such file: " + file);
    const Bytes& f = it->second;
    if (offset >= f.size()) {
      out->clear();
    } else {
      uint64_t take = std::min<uint64_t>(n, f.size() - offset);
      out->assign(f.data() + offset, take);
    }
  }
  ChargeRead(out->size());
  return Status::OK();
}

Status SimDisk::Truncate(const std::string& file, uint64_t size) {
  ChargeWrite(1);
  audit::LockGuard lk(state_mu_);
  Bytes& f = files_[file];
  f.resize(size, '\0');
  return Status::OK();
}

Status SimDisk::PunchHole(const std::string& file, uint64_t offset,
                          uint64_t length) {
  ChargeWrite(1);
  audit::LockGuard lk(state_mu_);
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("no such file: " + file);
  Bytes& f = it->second;
  if (offset >= f.size() || length == 0) return Status::OK();
  uint64_t n = std::min<uint64_t>(length, f.size() - offset);
  std::fill(f.begin() + offset, f.begin() + offset + n, '\0');
  env_->stats().disk_bytes_reclaimed.fetch_add(n);
  return Status::OK();
}

Status SimDisk::Delete(const std::string& file) {
  audit::LockGuard lk(state_mu_);
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("no such file: " + file);
  files_.erase(it);
  return Status::OK();
}

bool SimDisk::Exists(const std::string& file) const {
  audit::LockGuard lk(state_mu_);
  return files_.count(file) > 0;
}

uint64_t SimDisk::FileSize(const std::string& file) const {
  audit::LockGuard lk(state_mu_);
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.size();
}

std::vector<std::string> SimDisk::ListFiles() const {
  audit::LockGuard lk(state_mu_);
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [k, v] : files_) out.push_back(k);
  return out;
}

void SimDisk::Format() {
  audit::LockGuard lk(state_mu_);
  files_.clear();
}

}  // namespace msplog

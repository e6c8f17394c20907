#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};

/// The innermost open span and operation of this thread (0 = none).
thread_local uint64_t t_parent = 0;
thread_local uint64_t t_op = 0;

}  // namespace

Tracer* Tracer::Active() { return g_active.load(std::memory_order_acquire); }

void Tracer::SetActive(Tracer* tracer) {
  g_active.store(tracer, std::memory_order_release);
}

Tracer::Scoped::Scoped(const char* name) : tracer_(Active()) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  if (t_parent != 0) {
    span_.parent = t_parent;
    span_.op = t_op;
  } else {
    span_.parent = tracer_->root_.load(std::memory_order_acquire);
    span_.op = tracer_->op_.load(std::memory_order_acquire);
  }
  saved_parent_ = t_parent;
  saved_op_ = t_op;
  t_parent = span_.id;
  t_op = span_.op;
  span_.start_ns = NowNs();
}

Tracer::Scoped::~Scoped() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  t_parent = saved_parent_;
  t_op = saved_op_;
  tracer_->Record(span_);
}

Tracer::Detached::Detached(const char* name) : tracer_(Active()) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent =
      t_parent != 0 ? t_parent : tracer_->root_.load(std::memory_order_acquire);
  span_.op = t_parent != 0 ? t_op : tracer_->op_.load(std::memory_order_acquire);
  span_.start_ns = NowNs();
}

void Tracer::Detached::End() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tracer_->Record(span_);
  tracer_ = nullptr;
}

Tracer::OperationScope::OperationScope(const char* name) : tracer_(Active()) {
  if (tracer_ == nullptr) return;
  saved_root_ = tracer_->root_.load();
  saved_op_ = tracer_->op_.load();
  saved_thread_parent_ = t_parent;
  saved_thread_op_ = t_op;
  // The root span starts a fresh operation, detached from any caller span.
  t_parent = 0;
  t_op = 0;
  tracer_->root_.store(0);
  tracer_->op_.store(tracer_->next_op_.fetch_add(1));
  root_.emplace(name);
  tracer_->root_.store(root_->id());
}

Tracer::OperationScope::~OperationScope() {
  if (tracer_ == nullptr) return;
  root_.reset();
  tracer_->root_.store(saved_root_);
  tracer_->op_.store(saved_op_);
  t_parent = saved_thread_parent_;
  t_op = saved_thread_op_;
}

void Tracer::Count(const std::string& name, double amount) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += amount;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Span> Tracer::SpansSince(size_t mark) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (mark >= spans_.size()) return {};
  return std::vector<Span>(spans_.begin() + static_cast<std::ptrdiff_t>(mark),
                           spans_.end());
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

mlcask::Status Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return mlcask::Status::Internal("cannot write trace file " + path);
  }
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"op\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0
             ? mlcask::Status::Ok()
             : mlcask::Status::Internal("cannot close trace file " + path);
}

std::map<uint64_t, double> SelfTimeMs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<uint64_t, double> self;
  for (const Span& s : spans) {
    std::vector<std::pair<int64_t, int64_t>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[s.id] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.ms());
  }
  return out;
}

}  // namespace perfbench

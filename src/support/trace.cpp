#include "support/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include <unistd.h>

#include "support/json.hpp"

namespace care::trace {

namespace detail {
std::atomic<bool> gEnabled{false};
} // namespace detail

namespace {

enum class EvKind : std::uint8_t { Span, Counter, Instant };

struct Event {
  const char* name = "";
  const char* cat = "care";
  EvKind kind = EvKind::Span;
  double tsUs = 0;  // microseconds since the trace epoch
  double durUs = 0; // Span only
  double value = 0; // Counter only
};

/// One thread's ring buffer. Appends come only from the owning thread; the
/// mutex serializes them against render()/reset() from other threads.
struct ThreadBuf {
  ThreadBuf(std::uint32_t tid, std::size_t capacity)
      : tid(tid), capacity(capacity < 1 ? 1 : capacity) {}

  const std::uint32_t tid;
  const std::size_t capacity;
  std::mutex mu;
  std::vector<Event> events;
  std::size_t next = 0;       // ring write position once full
  std::uint64_t dropped = 0;  // events overwritten after wrap

  void push(const Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (events.size() < capacity) {
      events.push_back(e);
      next = events.size() % capacity; // lands on 0 exactly when full
    } else {
      events[next] = e;
      next = (next + 1) % capacity;
      ++dropped;
    }
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  std::uint32_t nextTid = 1;
  std::string path;
  std::size_t ringCapacity = 1u << 15;
  bool atexitRegistered = false;
  const Clock::time_point epoch = Clock::now();
};

/// Deliberately leaked: the atexit writer and late-exiting threads must be
/// able to touch it after static destructors start running.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

ThreadBuf& threadBuf() {
  // The shared_ptr keeps the buffer alive past thread exit (the registry
  // holds a copy), so a final write() sees every thread's events.
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto b = std::make_shared<ThreadBuf>(r.nextTid++, r.ringCapacity);
    r.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

double usSinceEpoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - registry().epoch)
      .count();
}

void appendEvent(std::string& out, const Event& ev, std::uint32_t tid,
                 bool& first) {
  if (!first) out += ',';
  first = false;
  out += "\n{\"name\":\"";
  appendJsonEscaped(out, ev.name);
  out += '"';
  if (ev.kind != EvKind::Counter) {
    out += ",\"cat\":\"";
    appendJsonEscaped(out, ev.cat);
    out += '"';
  }
  out += ",\"ph\":\"";
  out += ev.kind == EvKind::Span ? 'X' : ev.kind == EvKind::Counter ? 'C' : 'i';
  out += '"';
  char num[96];
  std::snprintf(num, sizeof(num), ",\"ts\":%.3f", ev.tsUs);
  out += num;
  if (ev.kind == EvKind::Span) {
    std::snprintf(num, sizeof(num), ",\"dur\":%.3f", ev.durUs);
    out += num;
  }
  if (ev.kind == EvKind::Instant) out += ",\"s\":\"t\"";
  std::snprintf(num, sizeof(num), ",\"pid\":1,\"tid\":%u",
                static_cast<unsigned>(tid));
  out += num;
  if (ev.kind == EvKind::Counter) {
    std::snprintf(num, sizeof(num), ",\"args\":{\"value\":%.6g}", ev.value);
    out += num;
  }
  out += '}';
}

std::vector<std::shared_ptr<ThreadBuf>> snapshotBufs() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.bufs;
}

} // namespace

namespace detail {

void emitSpan(const char* name, const char* cat, Clock::time_point begin,
              Clock::time_point end) {
  Event ev;
  ev.name = name;
  ev.cat = cat;
  ev.kind = EvKind::Span;
  ev.tsUs = usSinceEpoch(begin);
  ev.durUs = std::chrono::duration<double, std::micro>(end - begin).count();
  threadBuf().push(ev);
}

void emitCounter(const char* name, double value, Clock::time_point at) {
  Event ev;
  ev.name = name;
  ev.kind = EvKind::Counter;
  ev.tsUs = usSinceEpoch(at);
  ev.value = value;
  threadBuf().push(ev);
}

void emitInstant(const char* name, const char* cat, Clock::time_point at) {
  Event ev;
  ev.name = name;
  ev.cat = cat;
  ev.kind = EvKind::Instant;
  ev.tsUs = usSinceEpoch(at);
  threadBuf().push(ev);
}

} // namespace detail

void enable(const std::string& path, std::size_t ringCapacity) {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.path = path;
    const auto pos = r.path.find("%p");
    if (pos != std::string::npos)
      r.path.replace(pos, 2, std::to_string(::getpid()));
    r.ringCapacity = ringCapacity < 1 ? 1 : ringCapacity;
    if (!r.atexitRegistered) {
      r.atexitRegistered = true;
      std::atexit(+[] {
        if (enabled()) write();
      });
    }
  }
  detail::gEnabled.store(true, std::memory_order_relaxed);
}

void disable() { detail::gEnabled.store(false, std::memory_order_relaxed); }

std::string outputPath() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.path;
}

void reset() {
  for (const auto& b : snapshotBufs()) {
    std::lock_guard<std::mutex> lock(b->mu);
    b->events.clear();
    b->next = 0;
    b->dropped = 0;
  }
}

std::size_t bufferedEvents() {
  std::size_t n = 0;
  for (const auto& b : snapshotBufs()) {
    std::lock_guard<std::mutex> lock(b->mu);
    n += b->events.size();
  }
  return n;
}

std::string render() {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& b : snapshotBufs()) {
    std::lock_guard<std::mutex> lock(b->mu);
    const std::size_t n = b->events.size();
    // Chronological order: once the ring has wrapped, the oldest surviving
    // event sits at the write position.
    const std::size_t start = b->dropped > 0 ? b->next : 0;
    for (std::size_t i = 0; i < n; ++i)
      appendEvent(out, b->events[(start + i) % n], b->tid, first);
    if (b->dropped > 0) {
      Event d;
      d.name = "trace.dropped";
      d.kind = EvKind::Counter;
      d.tsUs = n > 0 ? b->events[(start + n - 1) % n].tsUs : 0;
      d.value = static_cast<double>(b->dropped);
      appendEvent(out, d, b->tid, first);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool write() { return write(outputPath()); }

bool write(const std::string& path) {
  if (path.empty()) return false;
  const std::string doc = render();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool ok = n == doc.size() && std::fclose(f) == 0;
  if (n != doc.size()) std::fclose(f);
  return ok;
}

} // namespace care::trace

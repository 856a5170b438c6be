#include "inject/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "inject/experiment.hpp"
#include "inject/result_store.hpp"
#include "support/bytestream.hpp"
#include "support/env.hpp"
#include "support/md5.hpp"
#include "support/shm.hpp"
#include "support/trace.hpp"

namespace care::inject {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kNoShard = ~0ull;
constexpr std::uint32_t kFrameMagic = 0x46535243; // "CRSF"
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 4 + 4 + 8 + 4;
constexpr std::size_t kMaxFramePayload = 64u << 20; // sanity bound

/// Per-seat coordination slot in shared memory: which shard the worker on
/// this seat currently holds. The worker publishes the claim right after
/// popping and clears it right after the shard's frame is fully written, so
/// on a worker death the coordinator knows exactly what to requeue. (A kill
/// landing in the pop->publish gap loses the claim; the end-game sweep
/// below covers that window.)
struct alignas(64) WorkerSlot {
  std::atomic<std::uint64_t> claimedShard;
};

struct alignas(64) ShmHeader {
  /// testKillAtTrial one-shot latch: first worker to reach the trial wins
  /// the CAS and SIGKILLs itself; its replacement runs the trial normally.
  std::atomic<std::uint64_t> testKillFired;
};

int shardStart(std::uint64_t shard, int shardSize) {
  return static_cast<int>(shard) * shardSize;
}

int shardCount(std::uint64_t shard, int shardSize, int trials) {
  const int start = shardStart(shard, shardSize);
  return std::min(shardSize, trials - start);
}

bool writeAll(int fd, const std::uint8_t* p, std::size_t len) {
  while (len > 0) {
    const ssize_t k = ::write(fd, p, len);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    len -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Worker process body. Never returns: _exit() skips atexit hooks (the
/// trace writer, gtest teardown) the coordinator owns. Exit codes: 0 =
/// drained the queue, 3 = a trial threw, 4 = pipe write failed.
[[noreturn]] void workerMain(ShmHeader* hdr, WorkerSlot* slot, ShmQueue* q,
                             int wfd, int trials, std::uint64_t seed,
                             int shardSize, const ServiceConfig& svc,
                             const TrialFn& fn) {
#ifdef __linux__
  ::prctl(PR_SET_PDEATHSIG, SIGKILL); // don't outlive the coordinator
#endif
  int rc = 0;
  try {
    int idle = 0;
    for (;;) {
      std::uint64_t shard;
      if (!q->pop(shard)) {
        // The queue can be transiently empty while the coordinator requeues
        // a dead peer's shard; idle-poll briefly before concluding done.
        if (++idle > 50) break;
        ::usleep(2000);
        continue;
      }
      idle = 0;
      slot->claimedShard.store(shard, std::memory_order_release);
      const int start = shardStart(shard, shardSize);
      const int count = shardCount(shard, shardSize, trials);
      const Clock::time_point w0 = Clock::now();
      ByteWriter payload;
      for (int i = start; i < start + count; ++i) {
        if (i == svc.testKillAtTrial) {
          std::uint64_t expect = 0;
          if (hdr->testKillFired.compare_exchange_strong(expect, 1))
            ::kill(::getpid(), SIGKILL);
        }
        Rng trialRng = Rng::stream(seed, static_cast<std::uint64_t>(i));
        writeRecordBytes(fn(i, trialRng), payload);
      }
      ByteWriter frame;
      frame.u32(kFrameMagic);
      frame.u32(static_cast<std::uint32_t>(shard));
      frame.u32(static_cast<std::uint32_t>(start));
      frame.u32(static_cast<std::uint32_t>(count));
      frame.f64(secondsSince(w0));
      frame.u32(static_cast<std::uint32_t>(payload.size()));
      frame.bytes(payload.data().data(), payload.size());
      Md5 h;
      h.update(payload.data().data(), payload.size());
      const Md5Digest digest = h.finish();
      frame.bytes(digest.bytes.data(), 16);
      if (!writeAll(wfd, frame.data().data(), frame.size())) {
        rc = 4;
        break;
      }
      // Test hook: die in the committed-but-still-claimed window, i.e.
      // exactly the race the comment below describes. The coordinator must
      // drain the frame first and then drop the requeue as a duplicate —
      // the shard's trials may be recomputed but never double-committed.
      if (svc.testKillAfterCommitTrial >= 0 &&
          svc.testKillAfterCommitTrial >= start &&
          svc.testKillAfterCommitTrial < start + count) {
        std::uint64_t expect = 0;
        if (hdr->testKillFired.compare_exchange_strong(expect, 1))
          ::kill(::getpid(), SIGKILL);
      }
      // Clear the claim only after the frame is fully on the pipe: a death
      // in between makes the coordinator requeue an already-committed
      // shard, which commitShard() drops as a duplicate (records are
      // deterministic, so re-execution is merely wasted work, never skew).
      slot->claimedShard.store(kNoShard, std::memory_order_release);
    }
  } catch (...) {
    rc = 3; // coordinator requeues our claim; end-game rethrows if fatal
  }
  ::_exit(rc);
}

/// The fork/requeue/respawn coordinator. One instance per campaign.
class Coordinator {
public:
  Coordinator(int trials, std::uint64_t seed, const ServiceConfig& svc,
              const TrialFn& fn, int numShards,
              std::vector<InjectionRecord>& records,
              std::vector<std::uint8_t>& executed,
              std::vector<std::uint8_t>& shardDone, const ResultStore& store,
              CampaignTelemetry* telemetry, int storeHits, int storeMisses,
              Clock::time_point t0)
      : trials_(trials), seed_(seed), svc_(svc), fn_(fn),
        numShards_(numShards), records_(records), executed_(executed),
        shardDone_(shardDone), store_(store), telemetry_(telemetry),
        storeHits_(storeHits), storeMisses_(storeMisses), t0_(t0) {
    for (int s = 0; s < numShards_; ++s)
      if (shardDone_[static_cast<std::size_t>(s)])
        trialsDone_ +=
            shardCount(static_cast<std::uint64_t>(s), svc_.shardSize, trials_);
  }

  int restarts() const { return restarts_; }
  int requeued() const { return requeued_; }
  double busySec() const { return busySec_; }

  void run(const std::vector<int>& missing) {
    // The queue never wraps: capacity covers every push that can ever
    // happen (initial shards + one requeue per tolerated restart + the
    // normal-exit margin), so a slot wedged by a worker killed mid-pop can
    // never block a later producer — crash tolerance by construction.
    const std::size_t queueCap =
        missing.size() + static_cast<std::size_t>(svc_.maxRestarts) + 16;
    const std::size_t slotsOff =
        (sizeof(ShmHeader) + alignof(WorkerSlot) - 1) / alignof(WorkerSlot) *
        alignof(WorkerSlot);
    const int procs = std::max(
        1, std::min(svc_.processes, static_cast<int>(missing.size())));
    const std::size_t queueOff =
        (slotsOff + sizeof(WorkerSlot) * static_cast<std::size_t>(procs) +
         63) /
        64 * 64;
    shm_ = SharedRegion(queueOff + ShmQueue::bytesFor(queueCap));
    auto* base = static_cast<std::uint8_t*>(shm_.data());
    hdr_ = new (base) ShmHeader;
    hdr_->testKillFired.store(0, std::memory_order_relaxed);
    slots_ = reinterpret_cast<WorkerSlot*>(base + slotsOff);
    for (int w = 0; w < procs; ++w) {
      new (slots_ + w) WorkerSlot;
      slots_[w].claimedShard.store(kNoShard, std::memory_order_relaxed);
    }
    queue_ = ShmQueue::init(base + queueOff, queueCap);
    for (int s : missing) queue_->push(static_cast<std::uint64_t>(s));

    seats_.resize(static_cast<std::size_t>(procs));
    for (int w = 0; w < procs; ++w)
      if (spawn(w)) ++live_;

    while (doneShards() < numShards_ && live_ > 0) {
      pollPipes();
      reapWorkers();
      maybeEmitProgress();
    }

    // Campaign complete (or no worker left): kill stragglers still chewing
    // a duplicate, then run whatever is uncommitted inline. The inline
    // sweep is the completion guarantee — it covers exhausted restart
    // budgets, fork failures, and shards lost in the pop->publish gap.
    for (Seat& seat : seats_) {
      if (seat.pid > 0) {
        ::kill(seat.pid, SIGKILL);
        ::waitpid(seat.pid, nullptr, 0);
        seat.pid = -1;
      }
      if (seat.fd >= 0) {
        ::close(seat.fd);
        seat.fd = -1;
      }
    }
    for (int s = 0; s < numShards_; ++s)
      if (!shardDone_[static_cast<std::size_t>(s)]) runShardInline(s);
    emitProgress(); // final event, guaranteed
  }

private:
  struct Seat {
    pid_t pid = -1;
    int fd = -1;
    std::vector<std::uint8_t> buf;
  };

  int doneShards() const {
    int n = 0;
    for (std::uint8_t d : shardDone_) n += d;
    return n;
  }

  bool spawn(int seatIdx) {
    Seat& seat = seats_[static_cast<std::size_t>(seatIdx)];
    int fds[2];
    if (::pipe(fds) != 0) return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      ::close(fds[0]);
      for (const Seat& other : seats_)
        if (other.fd >= 0) ::close(other.fd);
      workerMain(hdr_, slots_ + seatIdx, queue_, fds[1], trials_, seed_,
                 svc_.shardSize, svc_, fn_); // noreturn
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    seat.pid = pid;
    seat.fd = fds[0];
    seat.buf.clear();
    return true;
  }

  void pollPipes() {
    std::vector<pollfd> pfds;
    std::vector<std::size_t> seatOf;
    for (std::size_t i = 0; i < seats_.size(); ++i) {
      if (seats_[i].fd < 0) continue;
      pfds.push_back({seats_[i].fd, POLLIN, 0});
      seatOf.push_back(i);
    }
    if (pfds.empty()) return;
    const int r = ::poll(pfds.data(), pfds.size(), 20);
    if (r <= 0) return;
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Seat& seat = seats_[seatOf[k]];
      if (!drainAndParse(seat) && seat.pid > 0)
        ::kill(seat.pid, SIGKILL); // poisoned stream; reap path requeues
    }
  }

  /// Read whatever the pipe holds and parse complete frames. Returns false
  /// on a corrupt stream.
  bool drainAndParse(Seat& seat) {
    for (;;) {
      std::uint8_t tmp[65536];
      const ssize_t k = ::read(seat.fd, tmp, sizeof(tmp));
      if (k > 0) {
        seat.buf.insert(seat.buf.end(), tmp, tmp + k);
        continue;
      }
      if (k == 0) break; // EOF: writer gone, data fully drained
      if (errno == EINTR) continue;
      break; // EAGAIN
    }
    return parseFrames(seat);
  }

  bool parseFrames(Seat& seat) {
    std::size_t off = 0;
    bool ok = true;
    while (seat.buf.size() - off >= kFrameHeaderBytes) {
      ByteReader hdr(std::vector<std::uint8_t>(
          seat.buf.begin() + static_cast<long>(off),
          seat.buf.begin() + static_cast<long>(off + kFrameHeaderBytes)));
      if (hdr.u32() != kFrameMagic) {
        ok = false;
        break;
      }
      const std::uint32_t shard = hdr.u32();
      const std::uint32_t start = hdr.u32();
      const std::uint32_t count = hdr.u32();
      const double busy = hdr.f64();
      const std::uint32_t payloadLen = hdr.u32();
      if (shard >= static_cast<std::uint32_t>(numShards_) ||
          static_cast<int>(start) != shardStart(shard, svc_.shardSize) ||
          static_cast<int>(count) !=
              shardCount(shard, svc_.shardSize, trials_) ||
          payloadLen > kMaxFramePayload) {
        ok = false;
        break;
      }
      const std::size_t total = kFrameHeaderBytes + payloadLen + 16;
      if (seat.buf.size() - off < total) break; // incomplete tail frame
      const std::uint8_t* payload = seat.buf.data() + off + kFrameHeaderBytes;
      Md5 h;
      h.update(payload, payloadLen);
      const Md5Digest digest = h.finish();
      if (std::memcmp(digest.bytes.data(), payload + payloadLen, 16) != 0) {
        ok = false;
        break;
      }
      if (!commitShard(shard, payload, payloadLen)) {
        ok = false;
        break;
      }
      busySec_ += busy;
      off += total;
    }
    seat.buf.erase(seat.buf.begin(),
                   seat.buf.begin() + static_cast<long>(off));
    if (!ok) seat.buf.clear();
    return ok;
  }

  bool commitShard(std::uint64_t shard, const std::uint8_t* payload,
                   std::size_t payloadLen) {
    if (shardDone_[static_cast<std::size_t>(shard)]) return true; // duplicate
    const int start = shardStart(shard, svc_.shardSize);
    const int count = shardCount(shard, svc_.shardSize, trials_);
    std::vector<InjectionRecord> recs;
    recs.reserve(static_cast<std::size_t>(count));
    try {
      ByteReader r(std::vector<std::uint8_t>(payload, payload + payloadLen));
      for (int i = 0; i < count; ++i) recs.push_back(readRecordBytes(r));
      if (!r.atEnd()) return false;
    } catch (const Error&) {
      return false;
    }
    for (int i = 0; i < count; ++i) {
      records_[static_cast<std::size_t>(start + i)] =
          std::move(recs[static_cast<std::size_t>(i)]);
      executed_[static_cast<std::size_t>(start + i)] = 1;
    }
    shardDone_[static_cast<std::size_t>(shard)] = 1;
    trialsDone_ += count;
    if (store_.enabled())
      store_.save(start, count,
                  {records_.begin() + start, records_.begin() + start + count});
    return true;
  }

  void reapWorkers() {
    for (std::size_t i = 0; i < seats_.size(); ++i) {
      Seat& seat = seats_[i];
      if (seat.pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(seat.pid, &status, WNOHANG);
      if (r != seat.pid) continue;
      // Flush everything the worker managed to commit before it went away.
      drainAndParse(seat);
      ::close(seat.fd);
      seat.fd = -1;
      seat.pid = -1;
      --live_;
      const bool crashed =
          !(WIFEXITED(status) && WEXITSTATUS(status) == 0);
      const std::uint64_t claimed =
          slots_[i].claimedShard.exchange(kNoShard,
                                          std::memory_order_acq_rel);
      if (claimed != kNoShard &&
          !shardDone_[static_cast<std::size_t>(claimed)]) {
        queue_->push(claimed);
        ++requeued_;
      }
      if (crashed) {
        ++restarts_;
        if (restarts_ <= svc_.maxRestarts && doneShards() < numShards_ &&
            spawn(static_cast<int>(i)))
          ++live_;
      }
    }
  }

  void runShardInline(int shard) {
    const int start = shardStart(static_cast<std::uint64_t>(shard),
                                 svc_.shardSize);
    const int count = shardCount(static_cast<std::uint64_t>(shard),
                                 svc_.shardSize, trials_);
    const Clock::time_point w0 = Clock::now();
    for (int i = start; i < start + count; ++i) {
      Rng trialRng = Rng::stream(seed_, static_cast<std::uint64_t>(i));
      records_[static_cast<std::size_t>(i)] = fn_(i, trialRng);
      executed_[static_cast<std::size_t>(i)] = 1;
    }
    busySec_ += secondsSince(w0);
    shardDone_[static_cast<std::size_t>(shard)] = 1;
    trialsDone_ += count;
    if (store_.enabled())
      store_.save(start, count,
                  {records_.begin() + start, records_.begin() + start + count});
  }

  void maybeEmitProgress() {
    if (secondsSince(lastProgress_) < 0.25) return;
    emitProgress();
  }

  void emitProgress() {
    lastProgress_ = Clock::now();
    CampaignTelemetry p;
    if (telemetry_) {
      p.workload = telemetry_->workload;
      p.level = telemetry_->level;
    }
    p.event = "campaign_progress";
    p.trials = trials_;
    p.threads = resolveThreads(svc_.threads, trials_);
    p.processes = svc_.processes;
    p.shards = numShards_;
    p.storeHits = storeHits_;
    p.storeMisses = storeMisses_;
    p.workerRestarts = restarts_;
    p.shardsRequeued = requeued_;
    p.workersAlive = live_;
    p.trialsDone = trialsDone_;
    p.wallSec = secondsSince(t0_);
    p.trialsPerSec = p.wallSec > 0 ? trialsDone_ / p.wallSec : 0;
    p.etaSec = p.trialsPerSec > 0 ? (trials_ - trialsDone_) / p.trialsPerSec
                                  : 0;
    publishTelemetry(p);
  }

  const int trials_;
  const std::uint64_t seed_;
  const ServiceConfig& svc_;
  const TrialFn& fn_;
  const int numShards_;
  std::vector<InjectionRecord>& records_;
  std::vector<std::uint8_t>& executed_;
  std::vector<std::uint8_t>& shardDone_;
  const ResultStore& store_;
  CampaignTelemetry* telemetry_;
  const int storeHits_;
  const int storeMisses_;
  const Clock::time_point t0_;

  SharedRegion shm_;
  ShmHeader* hdr_ = nullptr;
  WorkerSlot* slots_ = nullptr;
  ShmQueue* queue_ = nullptr;
  std::vector<Seat> seats_;
  int live_ = 0;
  int restarts_ = 0;
  int requeued_ = 0;
  int trialsDone_ = 0;
  double busySec_ = 0;
  Clock::time_point lastProgress_ = Clock::now();
};

} // namespace

int resolveProcesses(int requested) {
  if (requested == kProcsAuto)
    return static_cast<int>(std::min<std::uint64_t>(
        envCount("CARE_PROCS", 0), std::numeric_limits<int>::max()));
  return requested < 0 ? 0 : requested;
}

std::string resultStoreDirFromEnv(const std::string& fallback) {
  const char* e = std::getenv("CARE_RESULT_STORE");
  return e ? std::string(e) : fallback;
}

std::vector<InjectionRecord> runShardedTrials(int trials, std::uint64_t seed,
                                              const ServiceConfig& svc,
                                              const TrialFn& fn,
                                              CampaignTelemetry* telemetry) {
  const Clock::time_point t0 = Clock::now();
  const ResultStore store(svc.storeDir, svc.storeKey);
  const int procs = svc.processes < 0 ? 0 : svc.processes;
  // Shards exist only for the store and the forked workers; the plain
  // in-process engine hands every trial straight to the pool.
  const bool sharded = store.enabled() || procs > 0;
  const int n = trials < 0 ? 0 : trials;
  const int shardSize = svc.shardSize < 1 ? 16 : svc.shardSize;
  const int numShards = sharded ? (n + shardSize - 1) / shardSize : 0;

  std::vector<InjectionRecord> records(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> executed(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> shardDone(static_cast<std::size_t>(numShards), 0);
  int storeHits = 0;
  int storeMisses = 0;
  std::vector<int> missing;
  for (int s = 0; s < numShards; ++s) {
    const int start = s * shardSize;
    const int count = std::min(shardSize, n - start);
    if (store.enabled()) {
      if (auto recs = store.load(start, count)) {
        std::move(recs->begin(), recs->end(),
                  records.begin() + start);
        shardDone[static_cast<std::size_t>(s)] = 1;
        ++storeHits;
        continue;
      }
      ++storeMisses;
    }
    missing.push_back(s);
  }

  double busySec = 0;
  int restarts = 0;
  int requeued = 0;
  if (procs > 0 && !missing.empty()) {
    trace::Span span("campaign.shards", "campaign");
    ServiceConfig runCfg = svc;
    runCfg.shardSize = shardSize;
    Coordinator coord(n, seed, runCfg, fn, numShards, records, executed,
                      shardDone, store, telemetry, storeHits, storeMisses,
                      t0);
    coord.run(missing);
    busySec = coord.busySec();
    restarts = coord.restarts();
    requeued = coord.requeued();
  } else {
    std::vector<int> idx;
    for (int s : missing)
      for (int i = s * shardSize; i < std::min((s + 1) * shardSize, n); ++i)
        idx.push_back(i);
    if (!sharded)
      for (int i = 0; i < n; ++i) idx.push_back(i);
    busySec = runTrialPool(idx, seed, svc.threads, fn, records);
    for (int i : idx) executed[static_cast<std::size_t>(i)] = 1;
    for (int s : missing) {
      const int start = s * shardSize;
      const int count = std::min(shardSize, n - start);
      store.save(start, count,
                 {records.begin() + start, records.begin() + start + count});
    }
  }

  if (telemetry) {
    telemetry->trials = n;
    telemetry->threads = resolveThreads(svc.threads, n);
    telemetry->processes = procs;
    telemetry->fromCache = numShards > 0 && storeHits == numShards;
    telemetry->shards = numShards;
    telemetry->storeHits = storeHits;
    telemetry->storeMisses = storeMisses;
    telemetry->workerRestarts = restarts;
    telemetry->shardsRequeued = requeued;
    telemetry->wallSec = secondsSince(t0);
    telemetry->workerBusySec = busySec;
    telemetry->utilization =
        telemetry->wallSec > 0
            ? busySec / (telemetry->wallSec *
                         (procs > 0 ? procs : telemetry->threads))
            : 0;
    aggregateRecordTelemetry(records, &executed, *telemetry);
    // Guaranteed closing progress event for the in-process sharded path
    // (the coordinator emits its own final event).
    if (sharded && procs <= 0) {
      CampaignTelemetry p = *telemetry;
      p.event = "campaign_progress";
      p.workersAlive = 0;
      p.trialsDone = n;
      p.etaSec = 0;
      publishTelemetry(p);
    }
  }
  return records;
}

} // namespace care::inject

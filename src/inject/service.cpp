#include "inject/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "inject/experiment.hpp"
#include "inject/result_store.hpp"
#include "support/bytestream.hpp"
#include "support/md5.hpp"
#include "support/trace.hpp"

namespace care::inject {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint32_t kFrameMagic = 0x46535243; // "CRSF"
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 4 + 4 + 8 + 4;
constexpr std::size_t kMaxFramePayload = 64u << 20; // sanity bound
/// Crashed-worker respawns tolerated per campaign before the coordinator
/// stops re-forking and finishes the remaining shards inline.
constexpr int kMaxRestarts = 8;

/// Coordinator -> worker: run this shard. `armKill` arms the testKill*
/// hooks; the coordinator sets it only on the first dispatch of the shard
/// holding the hooked trial, so a hook fires once per campaign and the
/// replacement worker runs the shard normally.
struct Dispatch {
  std::uint32_t shard;
  std::uint32_t armKill;
};

int shardStart(int shard, int shardSize) { return shard * shardSize; }

int shardCount(int shard, int shardSize, int trials) {
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

/// Block until `len` bytes arrived. False on EOF or a read error.
bool readAll(int fd, void* out, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    const ssize_t k = ::read(fd, p, len);
    if (k == 0) return false;
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    len -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Worker process body: run each dispatched shard and answer with its
/// sealed frame, until the coordinator closes the socket. Never returns:
/// _exit() skips atexit hooks (the trace writer, gtest teardown) the
/// coordinator owns. Exit codes: 0 = socket closed, 3 = a trial threw,
/// 4 = frame write failed.
[[noreturn]] void workerMain(int fd, int trials, std::uint64_t seed,
                             const ServiceConfig& svc, const TrialFn& fn) {
#ifdef __linux__
  ::prctl(PR_SET_PDEATHSIG, SIGKILL); // don't outlive the coordinator
#endif
  int rc = 0;
  try {
    Dispatch d{};
    while (readAll(fd, &d, sizeof d)) {
      const int shard = static_cast<int>(d.shard);
      const int start = shardStart(shard, svc.shardSize);
      const int count = shardCount(shard, svc.shardSize, trials);
      const Clock::time_point w0 = Clock::now();
      ByteWriter payload;
      for (int i = start; i < start + count; ++i) {
        if (d.armKill && i == svc.testKillAtTrial) ::kill(::getpid(), SIGKILL);
        Rng trialRng = Rng::stream(seed, static_cast<std::uint64_t>(i));
        writeRecordBytes(fn(i, trialRng), payload);
      }
      ByteWriter frame;
      frame.u32(kFrameMagic);
      frame.u32(d.shard);
      frame.u32(static_cast<std::uint32_t>(start));
      frame.u32(static_cast<std::uint32_t>(count));
      frame.f64(secondsSince(w0));
      frame.u32(static_cast<std::uint32_t>(payload.size()));
      frame.bytes(payload.data().data(), payload.size());
      Md5 h;
      h.update(payload.data().data(), payload.size());
      const Md5Digest digest = h.finish();
      frame.bytes(digest.bytes.data(), 16);
      if (!writeAll(fd, frame.data().data(), frame.size())) {
        rc = 4;
        break;
      }
      // Still armed after the trials ran: the hook is testKillAfterCommit.
      // Die with the frame fully sent; the coordinator must commit it from
      // the drained socket and never run or count the shard twice.
      if (d.armKill) ::kill(::getpid(), SIGKILL);
    }
  } catch (...) {
    rc = 3; // coordinator requeues the shard; end-game rethrows if fatal
  }
  ::_exit(rc);
}

/// The fork/dispatch/requeue coordinator. One instance per campaign. It
/// owns the queue of pending shards and knows which shard every seat
/// holds, so a dead worker's shard is requeued from that record alone.
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
        trialsDone_ += shardCount(s, svc_.shardSize, trials_);
  }

  int restarts() const { return restarts_; }
  int requeued() const { return requeued_; }
  double busySec() const { return busySec_; }

  void run(const std::vector<int>& missing) {
    pending_.assign(missing.begin(), missing.end());
    const int procs = std::max(
        1, std::min(svc_.processes, static_cast<int>(missing.size())));
    seats_.resize(static_cast<std::size_t>(procs));
    for (Seat& seat : seats_) spawn(seat);

    // A pending shard never waits while a live seat is idle, so once no
    // seat holds a shard either every shard is done or no worker is left.
    while (anyHeld()) {
      pollSockets();
      reapWorkers();
      maybeEmitProgress();
    }

    // Every live worker is now idle, blocked on its socket: closing the
    // socket is the EOF that ends it. Whatever is still uncommitted is run
    // inline — the completion guarantee for exhausted restart budgets and
    // fork failures.
    for (Seat& seat : seats_) {
      if (seat.fd >= 0) ::close(seat.fd);
      if (seat.pid > 0) ::waitpid(seat.pid, nullptr, 0);
      seat = Seat{};
    }
    live_ = 0;
    for (int s = 0; s < numShards_; ++s)
      if (!shardDone_[static_cast<std::size_t>(s)]) runShardInline(s);
    emitProgress(); // final event, guaranteed
  }

private:
  struct Seat {
    pid_t pid = -1;
    int fd = -1;
    int shard = -1; // dispatched and not yet committed
    std::vector<std::uint8_t> buf;
  };

  bool anyHeld() const {
    for (const Seat& seat : seats_)
      if (seat.shard >= 0) return true;
    return false;
  }

  bool holdsTrial(int shard, int trial) const {
    const int start = shardStart(shard, svc_.shardSize);
    return trial >= start &&
           trial < start + shardCount(shard, svc_.shardSize, trials_);
  }

  /// Fork a worker onto `seat` and hand it the next pending shard. On
  /// failure the seat stays empty (its shards run inline in the end-game
  /// sweep) and one stderr line names the failed call.
  void spawn(Seat& seat) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      std::fprintf(stderr, "[care] service: socketpair failed: %s\n",
                   std::strerror(errno));
      return;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      ::close(fds[0]);
      ::close(fds[1]);
      std::fprintf(stderr, "[care] service: fork failed: %s\n",
                   std::strerror(err));
      return;
    }
    if (pid == 0) {
      // Drop the other seats' sockets, so closing them reaches their
      // workers as EOF.
      ::close(fds[0]);
      for (const Seat& other : seats_)
        if (other.fd >= 0) ::close(other.fd);
      workerMain(fds[1], trials_, seed_, svc_, fn_); // noreturn
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    seat.pid = pid;
    seat.fd = fds[0];
    seat.buf.clear();
    ++live_;
    dispatchNext(seat);
  }

  /// Hand the seat the next pending shard, if any. A failed send leaves
  /// the shard held: the worker is killed and the reap path requeues it.
  void dispatchNext(Seat& seat) {
    if (pending_.empty()) return;
    seat.shard = pending_.front();
    pending_.pop_front();
    Dispatch d{static_cast<std::uint32_t>(seat.shard), 0};
    if (!killArmed_ && (holdsTrial(seat.shard, svc_.testKillAtTrial) ||
                        holdsTrial(seat.shard, svc_.testKillAfterCommitTrial))) {
      d.armKill = 1;
      killArmed_ = true;
    }
    if (::send(seat.fd, &d, sizeof d, MSG_NOSIGNAL) !=
        static_cast<ssize_t>(sizeof d))
      ::kill(seat.pid, SIGKILL);
  }

  void pollSockets() {
    std::vector<pollfd> pfds;
    std::vector<Seat*> seatOf;
    for (Seat& seat : seats_) {
      if (seat.fd < 0) continue;
      pfds.push_back({seat.fd, POLLIN, 0});
      seatOf.push_back(&seat);
    }
    if (pfds.empty()) return;
    const int r = ::poll(pfds.data(), pfds.size(), 20);
    if (r <= 0) return;
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Seat& seat = *seatOf[k];
      if (!drainAndParse(seat) && seat.pid > 0)
        ::kill(seat.pid, SIGKILL); // poisoned stream; reap path requeues
    }
  }

  /// Read whatever the socket holds and parse complete frames. Returns
  /// false on a corrupt stream.
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
      if (seat.shard < 0 || static_cast<int>(shard) != seat.shard ||
          static_cast<int>(start) != shardStart(seat.shard, svc_.shardSize) ||
          static_cast<int>(count) !=
              shardCount(seat.shard, svc_.shardSize, trials_) ||
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
      if (!commitShard(seat, payload, payloadLen)) {
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

  /// Commit the shard `seat` holds from its verified frame payload.
  bool commitShard(Seat& seat, const std::uint8_t* payload,
                   std::size_t payloadLen) {
    const int shard = seat.shard;
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
    // Keep the worker busy while the store write runs.
    seat.shard = -1;
    if (seat.pid > 0) dispatchNext(seat);
    if (store_.enabled())
      store_.save(start, count,
                  {records_.begin() + start, records_.begin() + start + count});
    return true;
  }

  void reapWorkers() {
    for (Seat& seat : seats_) {
      if (seat.pid <= 0) continue;
      int status = 0;
      if (::waitpid(seat.pid, &status, WNOHANG) != seat.pid) continue;
      seat.pid = -1;
      --live_;
      // Commit everything the worker managed to send before it went away,
      // then requeue what it still held.
      drainAndParse(seat);
      ::close(seat.fd);
      seat.fd = -1;
      if (seat.shard >= 0) {
        pending_.push_back(seat.shard);
        seat.shard = -1;
        ++requeued_;
      }
      if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
        ++restarts_;
        if (restarts_ <= kMaxRestarts && !pending_.empty()) spawn(seat);
      }
      // A requeued shard goes to any idle seat, not only a respawned one.
      for (Seat& idle : seats_)
        if (idle.pid > 0 && idle.shard < 0) dispatchNext(idle);
    }
  }

  void runShardInline(int shard) {
    const int start = shardStart(shard, svc_.shardSize);
    const int count = shardCount(shard, svc_.shardSize, trials_);
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

  std::deque<int> pending_;
  std::vector<Seat> seats_;
  bool killArmed_ = false;
  int live_ = 0;
  int restarts_ = 0;
  int requeued_ = 0;
  int trialsDone_ = 0;
  double busySec_ = 0;
  Clock::time_point lastProgress_ = Clock::now();
};

} // namespace

std::vector<InjectionRecord>
runShardedTrials(int trials, std::uint64_t seed, const ServiceConfig& svc,
                 const TrialFn& fn, CampaignTelemetry* telemetry,
                 std::vector<std::uint8_t>* executedOut) {
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
    const int start = shardStart(s, shardSize);
    const int count = shardCount(s, shardSize, n);
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
      const int start = shardStart(s, shardSize);
      const int count = shardCount(s, shardSize, n);
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
  if (executedOut) *executedOut = std::move(executed);
  return records;
}

} // namespace care::inject

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

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "inject/experiment.hpp"
#include "inject/result_store.hpp"
#include "support/bytestream.hpp"
#include "support/trace.hpp"

namespace care::inject {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Worker -> coordinator message: this header, then the finished shard's
/// sealed store entry (shard::seal). Busy seconds and the settled count
/// are telemetry and stay outside the seal.
constexpr std::size_t kMsgHeaderBytes =
    4 + 8 + 4; // u32 entry length, f64 busy, u32 settled runs
constexpr std::size_t kMaxEntryBytes = 64u << 20; // sanity bound
/// Crashed-worker respawns tolerated per campaign before the coordinator
/// stops re-forking and runs the remaining shards in-process.
constexpr int kMaxRestarts = 8;

/// Coordinator -> worker: run this shard. `armKill` arms the testKill*
/// hooks; the coordinator sets it only on the first dispatch of the shard
/// holding the hooked trial, so a hook fires once per campaign and the
/// replacement worker runs the shard normally.
struct Dispatch {
  std::uint32_t shard;
  std::uint32_t armKill;
};

/// One campaign's shards: the records in trial order, which trials this
/// call ran, which shards are done, the store each finished shard goes to,
/// and the service counters telemetry reports. Every engine finishes a
/// shard through commit().
struct Shards {
  Shards(int trials, int shardSize, ResultStore store)
      : trials(trials), size(shardSize),
        count((trials + shardSize - 1) / shardSize), store(std::move(store)),
        records(static_cast<std::size_t>(trials)),
        executed(static_cast<std::size_t>(trials), 0),
        done(static_cast<std::size_t>(count), 0) {}

  int start(int s) const { return s * size; }
  int trialsIn(int s) const { return std::min(size, trials - start(s)); }
  bool holds(int s, int trial) const {
    return trial >= start(s) && trial < start(s) + trialsIn(s);
  }
  std::vector<int> undone() const {
    std::vector<int> out;
    for (int s = 0; s < count; ++s)
      if (!done[static_cast<std::size_t>(s)]) out.push_back(s);
    return out;
  }

  /// Serve every shard the store holds.
  void load() {
    for (int s = 0; s < count && store.enabled(); ++s) {
      auto recs = store.load(start(s), trialsIn(s));
      if (!recs) {
        ++storeMisses;
        continue;
      }
      std::move(recs->begin(), recs->end(), records.begin() + start(s));
      done[static_cast<std::size_t>(s)] = 1;
      trialsDone += trialsIn(s);
      ++storeHits;
    }
  }

  /// Finish shard `s`: place `recs` (empty = the records are already in
  /// place), mark its trials executed, count them, and store `entry`, the
  /// shard's sealed bytes (empty = seal them here).
  void commit(int s, std::vector<InjectionRecord> recs = {},
              std::vector<std::uint8_t> entry = {}) {
    const auto first = records.begin() + start(s);
    std::move(recs.begin(), recs.end(), first);
    std::fill_n(executed.begin() + start(s), trialsIn(s), 1);
    done[static_cast<std::size_t>(s)] = 1;
    trialsDone += trialsIn(s);
    if (!store.enabled()) return;
    if (entry.empty())
      entry = shard::seal(store.key(), start(s), {first, first + trialsIn(s)});
    store.write(start(s), trialsIn(s), entry);
  }

  const int trials;
  const int size;
  const int count;
  const ResultStore store;
  std::vector<InjectionRecord> records;
  std::vector<std::uint8_t> executed;
  std::vector<std::uint8_t> done;
  int trialsDone = 0;
  int storeHits = 0;
  int storeMisses = 0;
  int restarts = 0;
  int requeued = 0;
  double busySec = 0;
  /// Settled runs of committed trials whose records crossed a socket,
  /// where the flag does not travel (InjectionResult::settled).
  int settledRemote = 0;
};

/// Run `shards` on the in-process pool (runTrialPool) and commit each.
void runShardsInProcess(Shards& book, const std::vector<int>& shards,
                        std::uint64_t seed, int threads, const TrialFn& fn) {
  std::vector<int> idx;
  for (int s : shards)
    for (int i = book.start(s); i < book.start(s) + book.trialsIn(s); ++i)
      idx.push_back(i);
  book.busySec += runTrialPool(idx, seed, threads, fn, book.records);
  for (int s : shards) book.commit(s);
}

/// Copy the service counters of `book` into `t`, the campaign line or a
/// progress event.
void putServiceCounters(const Shards& book, const ServiceConfig& svc,
                        Clock::time_point t0, CampaignTelemetry& t) {
  t.trials = book.trials;
  t.threads = resolveThreads(svc.threads, book.trials);
  t.processes = std::max(svc.processes, 0);
  t.shards = book.count;
  t.storeHits = book.storeHits;
  t.storeMisses = book.storeMisses;
  t.workerRestarts = book.restarts;
  t.shardsRequeued = book.requeued;
  t.wallSec = secondsSince(t0);
}

/// Publish a campaign_progress event for `book`, carrying what the caller
/// has set in `telemetry` so far (workload, level, fault model, ECC, ...).
void publishProgress(const Shards& book, const ServiceConfig& svc,
                     Clock::time_point t0, const CampaignTelemetry* telemetry,
                     int workersAlive) {
  CampaignTelemetry p = telemetry ? *telemetry : CampaignTelemetry{};
  p.event = "campaign_progress";
  putServiceCounters(book, svc, t0, p);
  p.workersAlive = workersAlive;
  p.trialsDone = book.trialsDone;
  p.trialsPerSec = p.wallSec > 0 ? book.trialsDone / p.wallSec : 0;
  p.etaSec = p.trialsPerSec > 0
                 ? (book.trials - book.trialsDone) / p.trialsPerSec
                 : 0;
  publishTelemetry(p);
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
/// sealed entry, until the coordinator closes the socket. Never returns:
/// _exit() skips atexit hooks (the trace writer, gtest teardown) the
/// coordinator owns. Exit codes: 0 = socket closed, 3 = a trial threw,
/// 4 = message write failed.
[[noreturn]] void workerMain(int fd, const Shards& book, std::uint64_t seed,
                             const ServiceConfig& svc, const TrialFn& fn) {
#ifdef __linux__
  ::prctl(PR_SET_PDEATHSIG, SIGKILL); // don't outlive the coordinator
#endif
  int rc = 0;
  try {
    Dispatch d{};
    while (readAll(fd, &d, sizeof d)) {
      const int s = static_cast<int>(d.shard);
      const int start = book.start(s);
      const Clock::time_point w0 = Clock::now();
      std::vector<InjectionRecord> recs;
      for (int i = start; i < start + book.trialsIn(s); ++i) {
        if (d.armKill && i == svc.testKillAtTrial) ::kill(::getpid(), SIGKILL);
        recs.push_back(runTrialAt(fn, seed, i));
      }
      const std::vector<std::uint8_t> entry =
          shard::seal(book.store.key(), start, recs);
      ByteWriter hdr;
      hdr.u32(static_cast<std::uint32_t>(entry.size()));
      hdr.f64(secondsSince(w0));
      hdr.u32(static_cast<std::uint32_t>(settledRuns(recs)));
      if (!writeAll(fd, hdr.data().data(), hdr.size()) ||
          !writeAll(fd, entry.data(), entry.size())) {
        rc = 4;
        break;
      }
      // Still armed after the trials ran: the hook is testKillAfterCommit.
      // Die with the entry fully sent; the coordinator must commit it from
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
  Coordinator(Shards& book, std::uint64_t seed, const ServiceConfig& svc,
              const TrialFn& fn, const CampaignTelemetry* telemetry,
              Clock::time_point t0)
      : book_(book), seed_(seed), svc_(svc), fn_(fn), telemetry_(telemetry),
        t0_(t0) {}

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
      if (secondsSince(lastProgress_) >= 0.25) {
        lastProgress_ = Clock::now();
        publishProgress(book_, svc_, t0_, telemetry_, live_);
      }
    }

    // Every live worker is now idle, blocked on its socket: closing the
    // socket is the EOF that ends it. Whatever is still uncommitted runs
    // on the in-process pool — the completion guarantee for exhausted
    // restart budgets and fork failures.
    for (Seat& seat : seats_) {
      if (seat.fd >= 0) ::close(seat.fd);
      if (seat.pid > 0) ::waitpid(seat.pid, nullptr, 0);
      seat = Seat{};
    }
    runShardsInProcess(book_, book_.undone(), seed_, svc_.threads, fn_);
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

  /// Fork a worker onto `seat` and hand it the next pending shard. On
  /// failure the seat stays empty (its shards run in the end-game) and one
  /// stderr line names the failed call.
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
      workerMain(fds[1], book_, seed_, svc_, fn_); // noreturn
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
    if (!killArmed_ &&
        (book_.holds(seat.shard, svc_.testKillAtTrial) ||
         book_.holds(seat.shard, svc_.testKillAfterCommitTrial))) {
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
      if (!drainAndCommit(seat) && seat.pid > 0)
        ::kill(seat.pid, SIGKILL); // poisoned stream; reap path requeues
    }
  }

  /// Read whatever the socket holds and commit every complete message.
  /// Returns false on a message that does not open as the held shard.
  bool drainAndCommit(Seat& seat) {
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
    std::size_t off = 0;
    bool ok = true;
    while (ok && seat.buf.size() - off >= kMsgHeaderBytes) {
      const auto hdrAt = seat.buf.begin() + static_cast<long>(off);
      ByteReader hdr(std::vector<std::uint8_t>(hdrAt, hdrAt + kMsgHeaderBytes));
      const std::uint32_t len = hdr.u32();
      const double busy = hdr.f64();
      const std::uint32_t settled = hdr.u32();
      ok = seat.shard >= 0 && len <= kMaxEntryBytes;
      if (!ok || seat.buf.size() - off - kMsgHeaderBytes < len)
        break; // poisoned, or an incomplete tail message
      const auto entryAt = hdrAt + kMsgHeaderBytes;
      ok = commitEntry(seat, std::vector<std::uint8_t>(entryAt, entryAt + len));
      if (ok) {
        book_.busySec += busy;
        book_.settledRemote += static_cast<int>(settled);
      }
      off += kMsgHeaderBytes + len;
    }
    seat.buf.erase(seat.buf.begin(),
                   seat.buf.begin() + static_cast<long>(off));
    if (!ok) seat.buf.clear();
    return ok;
  }

  /// Open `entry` as the shard `seat` holds and commit it, storing the
  /// verified bytes as they are.
  bool commitEntry(Seat& seat, std::vector<std::uint8_t> entry) {
    const int s = seat.shard;
    auto recs = shard::open(entry, book_.store.key(), book_.start(s),
                            book_.trialsIn(s));
    if (!recs) return false;
    // Keep the worker busy while the commit writes the store.
    seat.shard = -1;
    if (seat.pid > 0) dispatchNext(seat);
    book_.commit(s, std::move(*recs), std::move(entry));
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
      drainAndCommit(seat);
      ::close(seat.fd);
      seat.fd = -1;
      if (seat.shard >= 0) {
        pending_.push_back(seat.shard);
        seat.shard = -1;
        ++book_.requeued;
      }
      if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
        ++book_.restarts;
        if (book_.restarts <= kMaxRestarts && !pending_.empty()) spawn(seat);
      }
      // A requeued shard goes to any idle seat, not only a respawned one.
      for (Seat& idle : seats_)
        if (idle.pid > 0 && idle.shard < 0) dispatchNext(idle);
    }
  }

  Shards& book_;
  const std::uint64_t seed_;
  const ServiceConfig& svc_;
  const TrialFn& fn_;
  const CampaignTelemetry* telemetry_;
  const Clock::time_point t0_;

  std::deque<int> pending_;
  std::vector<Seat> seats_;
  bool killArmed_ = false;
  int live_ = 0;
  Clock::time_point lastProgress_ = Clock::now();
};

} // namespace

std::vector<InjectionRecord>
runShardedTrials(int trials, std::uint64_t seed, const ServiceConfig& svc,
                 const TrialFn& fn, CampaignTelemetry* telemetry,
                 std::vector<std::uint8_t>* executedOut,
                 const std::function<void()>& prepare) {
  const Clock::time_point t0 = Clock::now();
  const int n = trials < 0 ? 0 : trials;
  // Shards exist only for the store and the forked workers; the plain
  // in-process engine runs the whole campaign as one unstored shard.
  ResultStore store(svc.storeDir, svc.storeKey);
  const bool sharded = store.enabled() || svc.processes > 0;
  const int shardSize =
      !sharded ? std::max(n, 1) : svc.shardSize < 1 ? 16 : svc.shardSize;
  Shards book(n, shardSize, std::move(store));
  book.load();
  const std::vector<int> missing = book.undone();
  if (prepare && !missing.empty()) prepare();
  if (svc.processes > 0 && !missing.empty()) {
    trace::Span span("campaign.shards", "campaign");
    Coordinator(book, seed, svc, fn, telemetry, t0).run(missing);
  } else {
    runShardsInProcess(book, missing, seed, svc.threads, fn);
  }
  if (sharded) publishProgress(book, svc, t0, telemetry, 0);

  if (telemetry) {
    CampaignTelemetry& t = *telemetry;
    putServiceCounters(book, svc, t0, t);
    if (!sharded) t.shards = 0;
    t.fromCache = t.shards > 0 && t.storeHits == t.shards;
    t.workerBusySec = book.busySec;
    const int seats = t.processes > 0 ? t.processes : t.threads;
    t.utilization = t.wallSec > 0 ? book.busySec / (t.wallSec * seats) : 0;
    aggregateRecordTelemetry(book.records, &book.executed, t);
    t.settled += book.settledRemote;
  }
  if (executedOut) *executedOut = std::move(book.executed);
  return std::move(book.records);
}

} // namespace care::inject

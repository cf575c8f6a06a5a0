// LogFile — the single physical log shared by all sessions of an MSP (§1.3).
//
// Records are framed as [u32 len][u32 masked CRC32C][body]. Appends go to an
// in-memory arena (volatile: lost on crash); a flush pads the arena to a
// 512 B sector boundary and writes it as one or more blocks of at most 128
// sectors, matching §5.2 ("log blocks are aligned at sector boundaries and
// when a log block is flushed, its last sector may not be full — on average
// half a sector is wasted on every flush"). A zero length prefix marks
// padding: readers skip to the next sector boundary.
//
// An LSN is the byte offset of a record's frame in the log file. Because
// flushes insert padding, LSNs are not dense, but they are strictly
// monotonic, which is all the dependency-vector machinery needs.
//
// Hot-path shape (async pipeline): Append reserves a span in the active
// arena under a short critical section, encodes the record into the span
// with no lock held, then commits with a single lock-free atomic add —
// appenders never wait behind a physical write. A dedicated log-writer
// thread seals filled arenas and drains them to disk; durability is
// published through an atomic durable-LSN watermark advanced by the disk's
// write-completion hook, so FlushUpTo on already-durable data is a single
// atomic load. Each waiter parks on its own SyncRequest state; the
// completion path resolves every covered request and wakes the waiters
// with one flush_cv_.notify_all(), and each rechecks only its own state.
// A condvar per request was measured and not kept: saturate spent more CPU
// per request and served fewer requests per second with it.
//
// Batch flushing (§5.5): when enabled, a flush request parks until a timeout
// (default 8 ms model time, roughly one disk write) so that several requests
// ride a single physical write. Without it, every FlushUpTo that found
// undurable data pays one physical I/O: the request that triggers the drain
// owns the write, and every other request covered by it pays a one-sector
// barrier on its own thread — the paper's non-coalescing cost model.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/mutex.h"
#include "common/bytes.h"
#include "common/status.h"
#include "log/log_record.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"

namespace msplog {

struct LogFileOptions {
  bool batch_flush = false;
  double batch_timeout_ms = 8.0;
  /// Safety valve: buffered-but-unwritten bytes beyond this trigger a
  /// background drain even without an explicit request, and a single arena
  /// never grows beyond this (bounds memory under pure optimism).
  uint64_t max_buffer_bytes = 4 << 20;
  /// Invoked once per physical write (outside the log mutex) — used by the
  /// MSP to charge CPU time for issuing an I/O, which is what makes batch
  /// flushing reduce CPU load as well as disk load (§5.5).
  std::function<void()> on_physical_write;
};

/// One consistent snapshot of the log's extent watermarks, taken under a
/// single lock hold. Prefer this over calling `end_lsn()` / `durable_lsn()` /
/// `reclaimed_lsn()` back to back — three separate lock acquisitions can
/// interleave with a flush or reclamation and report e.g. a durable extent
/// ahead of the tail it was read with.
struct LogExtents {
  uint64_t end_lsn = 0;        ///< offset of the next append
  uint64_t durable_lsn = 0;    ///< first offset NOT yet durable
  uint64_t reclaimed_lsn = 0;  ///< first offset not reclaimed (punched)
  uint64_t archived_lsn = 0;   ///< reclaimed prefix preserved in archives
};

/// One closed archive segment: `[base, base + bytes)` of the original log,
/// preserved verbatim in `file` when the live range was punched.
struct LogArchiveSegment {
  uint64_t base = 0;
  uint64_t bytes = 0;
  std::string file;
};

class LogFile {
 public:
  LogFile(SimEnvironment* env, SimDisk* disk, std::string file_name,
          LogFileOptions options = LogFileOptions());
  ~LogFile();

  LogFile(const LogFile&) = delete;
  LogFile& operator=(const LogFile&) = delete;

  /// Append `rec` to the volatile arena; returns its LSN. The record is
  /// encoded directly into log memory (no intermediate buffer); the only
  /// blocking is a short reservation critical section, or arena
  /// backpressure when the writer cannot keep up. If `framed_size` is
  /// non-null it receives the on-log size of the record (frame included).
  /// If `dv_wire` is non-null it must be the encoding of `rec.dv` and is
  /// spliced in verbatim (batch DV piggybacking — consecutive same-session
  /// records share one encoded DV).
  uint64_t Append(const LogRecord& rec, size_t* framed_size = nullptr,
                  const Bytes* dv_wire = nullptr);

  /// Block until the record that starts at `lsn` is durable.
  Status FlushUpTo(uint64_t lsn);

  /// Flush everything appended so far.
  Status FlushAll();

  /// Read the record whose frame starts at `lsn` — served from the volatile
  /// arenas or from disk as appropriate. Fails with Corruption on a padding
  /// or garbage offset.
  Status ReadRecordAt(uint64_t lsn, LogRecord* out);

  /// First offset that is NOT yet durable (lock-free watermark read).
  uint64_t durable_lsn() const;
  /// Offset at which the next append will land.
  uint64_t end_lsn() const;
  const std::string& file_name() const { return file_name_; }
  SimDisk* disk() const { return disk_; }

  /// Log-space reclamation: release every durable byte strictly below
  /// `lsn`, rounded down to the newest remembered frame start on a sector
  /// boundary (an arena start, or one from NoteFrameStarts), so a scan from
  /// offset 0 finds a whole frame after the hole. Crash recovery scans start
  /// at the MSP checkpoint's minimum required position, so everything below
  /// it is dead weight; the punched range reads back as padding, which the
  /// scanner skips naturally. Returns the number of bytes reclaimed.
  uint64_t ReclaimUpTo(uint64_t lsn);

  /// First LSN that has not been reclaimed.
  uint64_t reclaimed_lsn() const;

  /// Crash recovery hands over the frames its scan found on a sector
  /// boundary, ascending: reclaim may stop at those below the reopened end.
  void NoteFrameStarts(const std::vector<uint64_t>& lsns) EXCLUDES(mu_);

  /// Segment archiving (checkpoint-watermark-driven): like ReclaimUpTo, but
  /// the released range is first copied verbatim into an archive segment
  /// file (`<log>.arc.<base>`) before the live bytes are punched. The live
  /// log behaves exactly as after ReclaimUpTo (the range reads back as
  /// padding); offline tools can overlay the archive segments to reconstruct
  /// the full historical image. Returns the number of bytes archived.
  uint64_t ArchiveUpTo(uint64_t lsn);

  /// One consistent snapshot of all extent watermarks (single lock hold).
  LogExtents Extents() const;

  /// Archive segment file name for a range starting at `base`.
  static std::string ArchiveSegmentName(const std::string& log_file,
                                        uint64_t base);

  /// Enumerate `log_file`'s archive segments on `disk`, sorted by base
  /// offset. Usable offline (no LogFile instance required).
  static std::vector<LogArchiveSegment> ListArchiveSegments(
      SimDisk* disk, const std::string& log_file);

  /// Simulate the crash of the owning MSP: the volatile arenas are discarded
  /// and all flush waiters fail with Status::Crashed. The durable prefix on
  /// disk is untouched.
  void Crash();

  /// Stop the log-writer thread without losing the arenas. Pending flush
  /// waiters fail with IOError (nobody is left to resolve them).
  void Stop();

 private:
  /// One reservation arena. Appenders reserve [reserved, reserved+frame)
  /// under mu_, encode into the span lock-free, then publish with one
  /// seq_cst fetch_add on `committed` — no lock on the commit side. Once
  /// sealed, no new reservations land here; the writer drains it after
  /// `committed` catches up to `sealed_bytes`. The object address is stable
  /// across container moves (held by unique_ptr), so in-flight encoder
  /// spans survive rotation.
  struct LogArena {
    Bytes data;               ///< capacity = data.size(), sector multiple
    uint64_t base = 0;        ///< LSN of data[0]
    size_t reserved = 0;      ///< bytes handed out to appenders
    /// Bytes fully encoded (CRC in place). seq_cst ops pair with `sealed`
    /// (Dekker): a committer that misses the seal flag is ordered before
    /// the seal in the seq_cst total order, so the writer's post-seal
    /// predicate read is guaranteed to observe its commit.
    std::atomic<size_t> committed{0};
    std::atomic<bool> sealed{false};
    /// == reserved; written before `sealed` is set. Atomic because the
    /// last committer may still be between its fetch_add and this read
    /// when the writer drains and recycles the arena (resetting it).
    std::atomic<size_t> sealed_bytes{0};
    size_t padded_bytes = 0;  ///< sealed_bytes rounded up to a sector
  };

  /// A parked FlushUpTo call. Resolved by the completion path (durable
  /// watermark advance), the writer (failure / crash) or Crash()/Stop().
  struct SyncRequest {
    enum State {
      kPending,
      kWritten,  ///< our request owned (or rode, in batch mode) the write
      kCovered,  ///< someone else's write covered us: pay a barrier (§5.2)
      kFailed,   ///< physical write failed or log stopped: see `error`
      kCrashed,  ///< log crashed while we waited
    };
    uint64_t lsn = 0;
    State state = kPending;
    bool owner = false;
    Status error;
  };

  Status FlushUpToImpl(uint64_t lsn) EXCLUDES(mu_);
  /// Returns the arena (with room for `frame_size` more bytes reserved by
  /// the caller) — growing, sealing+rotating, or waiting on backpressure as
  /// needed. `lk` is the caller's lock on mu_.
  LogArena* ReserveLocked(size_t frame_size, audit::UniqueLock& lk)
      REQUIRES(mu_);
  void SealActiveLocked() REQUIRES(mu_);
  void InstallFreshActiveLocked(uint64_t base, size_t min_bytes)
      REQUIRES(mu_);
  /// Seals/collects filled arenas and performs the physical write with the
  /// lock dropped (`lk` released and reacquired around the I/O); entered and
  /// exited with mu_ held.
  Status DrainLocked(audit::UniqueLock& lk) REQUIRES(mu_);
  /// Resolve every parked sync request satisfied by the current durable
  /// watermark (or failed by a crash) and wake the waiters.
  void ResolveWaitersLocked() REQUIRES(mu_);
  void FailWaitersLocked(SyncRequest::State state, const Status& error)
      REQUIRES(mu_);
  const LogArena* FindArenaLocked(uint64_t lsn) const REQUIRES(mu_);
  void WriterLoop();
  /// SimDisk write-completion hook: advances the durable watermark when a
  /// contiguous block of this log's file lands on disk.
  void OnDiskWrite(uint64_t offset, uint64_t bytes) EXCLUDES(mu_);
  /// The newest remembered start at or below `lsn` and the durable end
  /// (0 if none); forgets the older starts.
  uint64_t ReclaimTargetLocked(uint64_t lsn) REQUIRES(mu_);
  void ThinArenaStartsLocked() REQUIRES(mu_);
  uint64_t RoundUpToSector(uint64_t n) const {
    return (n + sector_bytes_ - 1) / sector_bytes_ * sector_bytes_;
  }

  SimEnvironment* env_;
  SimDisk* disk_;
  std::string file_name_;
  LogFileOptions options_;
  uint32_t sector_bytes_;
  int completion_hook_id_ = -1;  ///< set once in the ctor

  // Observability handles (owned by the environment's registry).
  obs::Histogram* hist_append_bytes_;      ///< "log.append_bytes"
  obs::Histogram* hist_flush_wait_ms_;     ///< "log.flush_wait_ms" per FlushUpTo
  obs::Histogram* hist_flush_batch_bytes_; ///< "log.flush_batch_bytes"
  obs::Counter* ctr_arena_backpressure_;   ///< "log.arena_backpressure_waits"

  /// Durable-LSN watermark: first offset NOT yet durable. Written under mu_
  /// (completion hook / writer), read lock-free by the FlushUpTo fast path.
  std::atomic<uint64_t> durable_end_{0};
  std::atomic<bool> crashed_{false};

  mutable audit::Mutex mu_{"log_file"};
  audit::CondVar writer_cv_;  ///< writer: work available / commits caught up
  audit::CondVar arena_cv_;   ///< appenders: arena freed (backpressure)
  audit::CondVar flush_cv_;   ///< FlushUpTo waiters: request resolved
  std::unique_ptr<LogArena> active_ GUARDED_BY(mu_);
  std::deque<std::unique_ptr<LogArena>> filled_ GUARDED_BY(mu_);
  /// Moved out of filled_ under mu_ for the duration of the unlocked
  /// physical write, so ReadRecordAt can still find the bytes.
  std::vector<std::unique_ptr<LogArena>> writing_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<LogArena>> free_arenas_ GUARDED_BY(mu_);
  /// Crash-time parking lot: sealed arenas that will never be written but
  /// whose memory must outlive any in-flight encoder.
  std::vector<std::unique_ptr<LogArena>> graveyard_ GUARDED_BY(mu_);
  std::deque<std::shared_ptr<SyncRequest>> sync_q_ GUARDED_BY(mu_);
  uint64_t filled_bytes_ GUARDED_BY(mu_) = 0;  ///< padded bytes awaiting drain
  size_t arena_count_ GUARDED_BY(mu_) = 0;
  bool drain_requested_ GUARDED_BY(mu_) = false;
  /// Durable frame starts on sector boundaries, ascending: the recovery
  /// scan's, the end at open, every arena end since. Thinned when full.
  std::vector<uint64_t> arena_starts_ GUARDED_BY(mu_);
  /// Prefix released by ReclaimUpTo / ArchiveUpTo.
  uint64_t reclaimed_end_ GUARDED_BY(mu_) = 0;
  /// Prefix preserved in archive segments before punching (<= reclaimed_end_;
  /// lags it when plain ReclaimUpTo calls interleave with archiving).
  uint64_t archived_end_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread writer_thread_;
};

/// A frame is a header (u32 body length + u32 masked CRC) and the body.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Build the on-disk frame for an encoded record body.
Bytes FrameRecord(ByteView body);

/// The body length the frame header at `data[pos...]` announces (reads 4
/// bytes; the caller checks they are there).
uint32_t FrameBodyLength(ByteView data, size_t pos);

/// Parse a frame at `data[pos...]`. On success sets `*body_out` and
/// `*frame_len`. A zero length prefix yields Status::NotFound (padding).
/// Truncation / CRC mismatch yields Corruption. The one judge of a frame:
/// every reader of the log goes through it.
Status ParseFrame(ByteView data, size_t pos, ByteView* body_out,
                  size_t* frame_len);

/// Parse the frame at `data[pos...]` and decode its record as the one at
/// `lsn`. A record position never names padding, so padding is Corruption.
Status DecodeFrameAt(ByteView data, size_t pos, uint64_t lsn, LogRecord* out);

}  // namespace msplog

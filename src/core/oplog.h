// Operation log and recovery.
//
// The §8 prototype wrapped every request in an ACID transaction on a
// commercial DBMS, which also made the promise table durable. The
// reproduction's in-memory substitute regains the D through logical
// command logging: every state-changing client operation that the
// promise manager commits is appended to the log as (sequence,
// timestamp, promise id, encoded envelope). Recovery replays the commands
// in sequence order against a fresh world under a simulated clock
// pinned to the logged timestamps, which reproduces grants, releases,
// actions, atomic updates AND lazy expiry decisions deterministically
// (each record carries the promise id its operation consumed, so
// replayed ids match even when allocation raced at runtime).
//
// Durability is decoupled from ordering via classic WAL group commit:
// AppendOperation() is the sequencing point — it assigns the log
// sequence number and enqueues the encoded record atomically — and
// WaitDurable() returns once the caller's record is durable. The log
// owns no thread: a waiter that finds no flush in progress becomes
// the flush leader and writes up to `max_batch` queued records with a
// single fwrite + fflush (and optionally fdatasync) outside the
// log's mutex; every other waiter blocks until a leader covers its
// record. The group is whoever queued while the previous flush was
// in progress. In sync mode (group commit not started, or stopped)
// the appender leads the flush of its own record before returning.
//
// Record format, current version (v3):
//   v3|<length>|<checksum>|<sequence>|<timestamp>|<promise-id>|<payload>\n
// The text header is followed by exactly <length> payload bytes and a
// '\n' terminator. The record is framed by its length, not by the
// newline, so a payload may hold any byte: the promise manager logs
// binary envelopes (Envelope::Encode), and a string parameter with a
// newline in it logs like any other. The checksum covers length,
// sequence, timestamp, promise id AND payload. Older records are
// version-sniffed and still read, each a single line:
//   v2|<length>|<checksum>|<sequence>|<timestamp>|<promise-id>|<payload>
//   <length>|<checksum>|<timestamp>|<payload>          (v1)
// v1's checksum covers the payload only, and v1 records are numbered by
// position. Torn tails (an incomplete final record, checksum mismatch,
// sequence regression) are truncated on open, mimicking WAL recovery
// semantics.
//
// Compaction: once a durable checkpoint covers the prefix up to LSN C,
// TruncateBefore(C) atomically rewrites the file as
//   trunc|<lsn>|<timestamp>|<watermark>|<checksum>
// followed by the surviving tail records byte-for-byte. The marker is
// honored only at file offset zero; it seeds the scanner's sequence
// base (so v1 tail records renumber from C, not 0), the last-record
// timestamp and the promise-id watermark, making a compacted log
// self-describing.

#ifndef PROMISES_CORE_OPLOG_H_
#define PROMISES_CORE_OPLOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace promises {

struct LogRecord {
  Timestamp timestamp = 0;
  /// The logged operation: an encoded envelope (binary in v3 records,
  /// XML in records written before it) or a text event such as
  /// "damage|<class>|<qty>". Any bytes; the log never interprets them.
  std::string payload;
  /// Log sequence number (1-based, strictly increasing). v1 records
  /// are numbered by file position during the scan.
  uint64_t sequence = 0;
  /// Promise id consumed by the logged operation, 0 when the
  /// operation did not allocate one (releases, external events, v1
  /// records). Replay pins the id generator to this value so ids
  /// match the original run even when allocation order differed from
  /// log order under striped concurrency.
  uint64_t promise_id = 0;
};

/// Why a log scan stopped where it did. Anything but kEndOfFile means
/// bytes were discarded; kTornTail (a partial final record) is the only
/// reason a clean crash can produce. A full record that fails checksum
/// or regresses the sequence is suspicious — mid-log corruption looks
/// exactly like this — so recovery paths refuse such a scan when any
/// checksum-valid record exists beyond the stop point, unless
/// explicitly overridden.
enum class ScanStopReason {
  kEndOfFile,
  kTornTail,
  kBadRecord,
  kSequenceRegression,
};

std::string_view ScanStopReasonToString(ScanStopReason reason);

/// Everything a scan learned about the physical log.
struct LogScanStats {
  bool exists = false;
  /// Sequence base from a compaction marker (0 when none): records
  /// before and at this LSN live in a checkpoint, not in this file.
  uint64_t base_sequence = 0;
  uint64_t last_sequence = 0;
  Timestamp last_timestamp = 0;
  /// Max promise id carried by any record (or the marker).
  uint64_t max_promise_id = 0;
  size_t valid_bytes = 0;      ///< clean prefix length
  size_t total_bytes = 0;      ///< physical file size
  size_t discarded_bytes = 0;  ///< total_bytes - valid_bytes
  ScanStopReason stop_reason = ScanStopReason::kEndOfFile;
  /// True when a checksum-valid record exists beyond the stop point:
  /// the stop is mid-log corruption, not a torn tail.
  bool valid_beyond_stop = false;
};

/// A named consistent cut: the last assigned LSN plus the promise-id
/// watermark and record timestamp observed at that same instant (all
/// read atomically under the log's sequencing mutex). Because LSNs are
/// assigned while operations still hold their stripe locks, "state of
/// every operation <= sequence" is a well-defined world.
struct LogCut {
  uint64_t sequence = 0;
  Timestamp last_timestamp = 0;
  uint64_t promise_id_watermark = 0;
};

/// How Append/WaitDurable trade latency for durability.
enum class DurabilityMode {
  kSync,   ///< each record written + flushed on its own before return
  kGroup,  ///< records queue; a waiting committer flushes whole groups
  kAsync,  ///< records queue; WaitDurable flushes without waiting
};

/// Group-commit knobs. A flush leader takes at most `max_batch`
/// records per write. `max_delay_ms` is the leader's linger, measured
/// on the injected Clock (simulated time in tests, wall time in
/// prod): before writing, the leader holds the group open until it
/// reaches `max_batch` records, its oldest record has waited
/// `max_delay_ms`, or KickFlush() ends the linger. With
/// `max_delay_ms == 0` (the default) the leader writes at once, and
/// the group is whoever queued while the previous flush was in
/// progress. `queue_capacity` bounds the queue: an appender that finds
/// it full waits for the flush in progress or writes a group itself.
struct GroupCommitConfig {
  DurabilityMode mode = DurabilityMode::kGroup;
  size_t max_batch = 128;
  DurationMs max_delay_ms = 0;
  size_t queue_capacity = 4096;
  /// When true every flushed group is also fdatasync'd, extending
  /// durability from "survives the process" to "survives the OS".
  bool use_fdatasync = false;
};

/// Append-only operation log backed by a file. Appends are
/// thread-safe; a single OperationLog may be shared by concurrent
/// committers (striped promise-manager operations).
class OperationLog {
 public:
  OperationLog() = default;
  ~OperationLog();
  OperationLog(const OperationLog&) = delete;
  OperationLog& operator=(const OperationLog&) = delete;

  /// Opens (creating if needed) the log at `path` for appending. An
  /// existing log is scanned first and any torn tail (partial final
  /// record from a crash mid-append) is physically truncated (and the
  /// truncation fsync'd, so a later crash cannot resurrect the torn
  /// bytes), so new appends always extend a clean prefix. Sequence
  /// numbering resumes past the last intact record. When the scan
  /// smells mid-log corruption (a checksum-valid record beyond the
  /// stop point) Open refuses with kDataLoss rather than destroy the
  /// evidence, unless `allow_mid_log_corruption` is set.
  Status Open(const std::string& path, bool allow_mid_log_corruption = false);
  void Close();
  bool IsOpen() const;

  /// Simulated SIGKILL: poisons the log with kUnavailable, drops every
  /// queued-but-unwritten record (the group dies mid-formation, exactly
  /// as a crash would lose it), wakes and fails all blocked WaitDurable
  /// callers and closes the file without the final drain Close()
  /// performs. A group whose fwrite+fflush was already in flight
  /// completes first — the kernel flushes what it was handed even when
  /// the process dies — and its committers see it durable. The object
  /// is reusable: a later Open() on the same path resumes from the
  /// durable prefix, which is what crash-restart recovery replays.
  void Abandon();

  /// Switches the log to `config.mode`. `clock` is used for the
  /// max-delay linger and must outlive group commit. Error if group
  /// commit is already on.
  Status StartGroupCommit(const GroupCommitConfig& config, Clock* clock);
  /// Flushes every queued record and switches the log back to the
  /// synchronous path. No-op in sync mode.
  void StopGroupCommit();

  /// Appends one record with full commit semantics: sequences,
  /// writes and waits until it is durable. Equivalent to
  /// AppendOperation + WaitDurable; kept for single-writer callers
  /// and tests that control the timestamp directly.
  Status Append(Timestamp timestamp, const std::string& payload);

  /// The sequencing point: atomically assigns the next log sequence
  /// number, stamps the record with `clock->Now()` and enqueues it
  /// (group/async mode) or writes it before returning (sync mode).
  /// Returns the assigned sequence. In group/async mode the caller must
  /// hand the record on after releasing its operation locks: with
  /// WaitDurable(seq) for the durable ack, or with
  /// FlushWithoutWaiting(seq) when nobody waits for it. `promise_id`
  /// is the id the operation consumed (0 if none); it is persisted for
  /// replay pinning.
  Result<uint64_t> AppendOperation(Clock* clock, const std::string& payload,
                                   uint64_t promise_id);

  /// Returns once record `sequence` is durable, leading flushes while
  /// no other caller is flushing. Fails if a write failed before
  /// reaching `sequence`. In async mode it is FlushWithoutWaiting and
  /// always returns OK.
  Status WaitDurable(uint64_t sequence);

  /// For a record nobody waits on: leads a flush (no linger) when none
  /// is in progress, otherwise returns at once and the flush in
  /// progress writes the record before it ends. Either way the record
  /// reaches the file without a later commit. A write failure poisons
  /// the log, which the next append reports.
  void FlushWithoutWaiting(uint64_t sequence);

  /// Batch-boundary signal: no further committers are coming for the
  /// current group, so a flush leader should write what is queued
  /// instead of lingering out `max_delay_ms`. The epoch executor calls
  /// this when an epoch seals — the epoch IS the group. No-op when
  /// nothing is queued or group commit is off.
  void KickFlush();

  /// Crash-injection hook for recovery tests: the NEXT physical write
  /// (a single record in sync mode, a whole group in group mode)
  /// stores only its first `bytes` bytes (flushed, so the torn tail
  /// reaches the file), then fails with kUnavailable as if the
  /// process died mid-write. One-shot; the log is poisoned until
  /// reopened, so no record can be written after the tear and then
  /// lost to recovery's prefix scan.
  void InjectTornWrite(size_t bytes) {
    torn_write_bytes_.store(bytes, std::memory_order_release);
  }

  /// Names the current consistent cut (see LogCut). Fails when the
  /// log is closed or poisoned by a write failure.
  Result<LogCut> CutPoint() const;

  /// Compacts the prefix: atomically rewrites the file as a
  /// compaction marker for `lsn` followed by the records with
  /// sequence > lsn, preserved byte-for-byte. Requires lsn to be
  /// durable already (the caller checkpoints, waits for durability,
  /// then truncates). Waits out a flush leader's in-flight write but
  /// never loses queued records: sequencing state is untouched.
  Status TruncateBefore(uint64_t lsn);

  /// Reads every intact record of the log at `path` in one streaming
  /// pass. A corrupt or torn record ends the scan (records after it
  /// are discarded), matching crash-recovery semantics. Lenient: use
  /// ReadForRecovery when discarded bytes must be accounted for.
  static Result<std::vector<LogRecord>> ReadAll(const std::string& path);

  /// Recovery-grade read: like ReadAll but reports scan statistics
  /// and refuses (kDataLoss) a scan that stopped with checksum-valid
  /// records beyond the stop point — mid-log corruption that a plain
  /// prefix scan would silently drop — unless
  /// `allow_mid_log_corruption` is set. `stats` may be null.
  static Result<std::vector<LogRecord>> ReadForRecovery(
      const std::string& path, LogScanStats* stats,
      bool allow_mid_log_corruption = false);

  /// v1 checksum: FNV-1a over the payload only. Kept for reading old
  /// logs and for tests that craft v1 records.
  static uint32_t Checksum(const std::string& payload);
  /// v2 checksum: FNV-1a folded over length, sequence, timestamp,
  /// promise id and payload, so a corrupted header field is caught.
  static uint32_t RecordChecksum(size_t length, uint64_t sequence,
                                 Timestamp timestamp, uint64_t promise_id,
                                 const std::string& payload);

 private:
  struct Pending {
    uint64_t sequence = 0;
    std::string encoded;
    // Injected-clock arrival time; the max-delay linger is measured
    // from the oldest queued record's arrival.
    Timestamp enqueued_at = 0;
  };

  static std::string EncodeRecord(uint64_t sequence, Timestamp timestamp,
                                  uint64_t promise_id,
                                  const std::string& payload);
  // Raw IO: writes `buf`, flushes (+fdatasync when requested) and
  // honors a pending torn-write injection. Called by the flush leader
  // without mu_; io_in_flight_ keeps file_ stable meanwhile.
  Status WriteBuffer(const std::string& buf, bool use_fdatasync);
  // Makes room in a full queue, then sequences and queues one record
  // stamped `clock->Now()` (or `timestamp` without a clock); in sync
  // mode also writes it. mu_ held.
  Result<uint64_t> AppendLocked(std::unique_lock<std::mutex>& lock,
                                Clock* clock, Timestamp timestamp,
                                uint64_t promise_id,
                                const std::string& payload);
  // Until `sequence` is durable (or the log fails): waits while
  // another caller flushes, leads a flush otherwise. mu_ held.
  void FlushThroughLocked(std::unique_lock<std::mutex>& lock,
                          uint64_t sequence, bool linger);
  // The flush leader: optionally lingers, then writes up to max_batch
  // queued records outside mu_, publishes the durable sequence and
  // wakes the waiters; repeats while a record nobody waits on is still
  // queued. mu_ held, no flush in progress.
  void LeadFlushLocked(std::unique_lock<std::mutex>& lock, bool linger);

  mutable std::mutex mu_;
  // Waiters, the lingering leader and appenders at capacity all wait
  // here; every flush ends with notify_all.
  std::condition_variable durable_cv_;
  std::FILE* file_ = nullptr;
  std::string path_;
  GroupCommitConfig config_;
  Clock* clock_ = nullptr;
  // Batch-boundary kick: skip the linger for the current group.
  // Cleared once a flush drains the queue.
  bool kick_ = false;
  // A caller leads a flush (lingering or writing); others wait.
  bool flushing_ = false;
  // True while the leader runs WriteBuffer outside mu_; TruncateBefore
  // waits for it to clear before swapping the file.
  bool io_in_flight_ = false;
  // Reused by the leader for each group's bytes (guarded by flushing_).
  std::string group_buf_;
  std::deque<Pending> queue_;
  uint64_t next_sequence_ = 1;
  uint64_t durable_sequence_ = 0;
  // Highest record handed to FlushWithoutWaiting; a leader keeps
  // flushing until it is durable.
  uint64_t unwaited_sequence_ = 0;
  // Cut-point trackers, updated at the sequencing points and seeded
  // by Open's scan (or the compaction marker).
  uint64_t promise_id_watermark_ = 0;
  Timestamp last_timestamp_ = 0;
  // First write failure; poisons all later appends/waits until Open.
  Status failed_ = Status::OK();
  // One-shot torn-write injection: npos = disabled.
  std::atomic<size_t> torn_write_bytes_{kNoTornWrite};
  static constexpr size_t kNoTornWrite = static_cast<size_t>(-1);
};

}  // namespace promises

#endif  // PROMISES_CORE_OPLOG_H_

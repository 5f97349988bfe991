// Fuzzy checkpoints + bounded recovery (DESIGN.md §10).
//
// The operation log alone makes recovery time proportional to the
// manager's entire history. A checkpoint bounds it: a snapshot of the
// promise table, resource state, engine state and idempotency table at
// a chosen log sequence number (the "cut"), after which the log prefix
// up to the cut can be compacted away and recovery becomes
// load-snapshot + replay-tail.
//
// Capture is *fuzzy*: the cut LSN is chosen under a momentary
// root-exclusive barrier (O(1) work: read the log's cut point, mark
// every class pending), after which normal traffic resumes and the
// state walk proceeds one stripe at a time under the existing
// per-class operation locks. Operations that begin while a capture is
// active copy-on-read any still-pending class they are about to touch
// (see PromiseManager::CaptureCheckpoint), so the assembled snapshot
// is exactly the state at the cut even though it was collected while
// the manager kept serving.
//
// Install is atomic: serialize to `<path>.tmp`, fsync, rename over
// `<path>`, fsync the directory — a crash mid-install leaves either
// the previous checkpoint or the new one, never a torn file. Only
// after a successful install is the log prefix compacted
// (OperationLog::TruncateBefore), so every reachable state is always
// recoverable from checkpoint + tail.

#ifndef PROMISES_CORE_CHECKPOINT_H_
#define PROMISES_CORE_CHECKPOINT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/oplog.h"
#include "core/promise.h"
#include "resource/resource_manager.h"

namespace promises {

class PromiseManager;

/// One cached reply from the idempotency table, with the LSN of the
/// operation that produced it (0: predates the log, always included).
struct CheckpointDedupEntry {
  std::string from;
  uint64_t message_id = 0;
  uint64_t lsn = 0;
  /// The encoded reply envelope: binary from version-2 checkpoints,
  /// XML from version 1. Restore decodes either (Envelope::Decode).
  std::string reply;
};

/// A consistent cut of the manager's recoverable state at `cut_lsn`.
struct CheckpointData {
  /// Every log record with sequence <= cut_lsn is reflected in this
  /// snapshot; recovery replays only the records beyond it.
  uint64_t cut_lsn = 0;
  /// Timestamp of the last record at the cut; the restored clock is
  /// advanced here so expiry decisions resume where the log left off.
  Timestamp captured_at = 0;
  /// Highest promise id consumed by any record at the cut; restore
  /// pins the generator past it.
  uint64_t promise_id_watermark = 0;
  /// Client registry: ClientId value -> protocol name.
  std::vector<std::pair<uint64_t, std::string>> clients;
  /// Pool class -> quantity on hand.
  std::map<std::string, int64_t> pools;
  /// Instance class -> every instance (id, status, properties).
  std::map<std::string, std::vector<InstanceView>> instances;
  /// Active promise records keyed by id value (a promise spanning
  /// several classes is captured once).
  std::map<uint64_t, PromiseRecord> promises;
  /// Resource class -> opaque engine state blob (SerializeState).
  std::map<std::string, std::string> engine_state;
  /// Idempotency table in FIFO (eviction) order, filtered to the cut.
  std::vector<CheckpointDedupEntry> dedup;
};

/// Serializes to the on-disk format: a header line carrying the body
/// length and an FNV checksum, then length-prefixed fields.
std::string SerializeCheckpoint(const CheckpointData& data);

/// Inverse of SerializeCheckpoint. kDataLoss on checksum/format damage.
Result<CheckpointData> ParseCheckpoint(const std::string& content);

/// Atomic install: write `<path>.tmp`, fsync, rename, fsync directory.
Status WriteCheckpointFile(const std::string& path,
                           const CheckpointData& data);

/// Loads and verifies a checkpoint file. NotFound when absent,
/// kDataLoss when present but damaged.
Result<CheckpointData> LoadCheckpointFile(const std::string& path);

/// Drives capture -> durability wait -> atomic install -> log
/// compaction, either on demand (RunOnce) or periodically (Start).
class CheckpointWriter {
 public:
  /// `log` must be the log attached to `pm`; `path` is where the
  /// checkpoint file is installed.
  CheckpointWriter(PromiseManager* pm, OperationLog* log, std::string path);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// One checkpoint cycle; returns the installed cut LSN. The capture
  /// is fuzzy (traffic keeps flowing); the install waits until the cut
  /// is durable before publishing, then truncates the log prefix.
  Result<uint64_t> RunOnce();

  /// Starts a background thread checkpointing every `interval_ms` of
  /// wall-clock time until Stop (idempotent; Stop implied by dtor).
  /// Idle ticks are skipped: when the log's cut point has not advanced
  /// past the last installed checkpoint, the tick counts as a skip
  /// instead of re-capturing an identical snapshot.
  Status Start(DurationMs interval_ms);
  void Stop();

  /// Cadence accounting (periodic ticks only; explicit RunOnce calls
  /// always capture and are not counted here).
  uint64_t periodic_captures() const {
    return periodic_captures_.load(std::memory_order_relaxed);
  }
  uint64_t periodic_skips() const {
    return periodic_skips_.load(std::memory_order_relaxed);
  }
  /// Cut LSN of the most recent successful install (0 = none yet).
  uint64_t last_installed_lsn() const {
    return last_installed_lsn_.load(std::memory_order_relaxed);
  }

 private:
  /// One periodic tick: skip when the log has no new LSNs since the
  /// last install, otherwise capture under a span.
  void TickOnce();

  PromiseManager* pm_;
  OperationLog* log_;
  std::string path_;

  std::atomic<uint64_t> periodic_captures_{0};
  std::atomic<uint64_t> periodic_skips_{0};
  std::atomic<uint64_t> last_installed_lsn_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
  std::thread worker_;
};

struct RecoveryOptions {
  /// Passed through to OperationLog::ReadForRecovery: recover the
  /// valid prefix even when checksum-valid records exist beyond a
  /// mid-log corruption (default: refuse with kDataLoss).
  bool allow_mid_log_corruption = false;
  /// Tail-replay parallelism; <=1 replays sequentially.
  int replay_workers = 1;
};

struct RecoveryReport {
  bool used_checkpoint = false;
  uint64_t checkpoint_lsn = 0;
  size_t tail_records = 0;   ///< records replayed beyond the cut
  size_t total_records = 0;  ///< records read from the log
  LogScanStats scan;
};

/// Recovers `pm` (freshly constructed, resource definitions already in
/// place — the ReplayLog contract) from checkpoint + log tail. Falls
/// back to full replay when no checkpoint exists and the log still
/// starts at its origin; refuses with kDataLoss when the checkpoint is
/// damaged or missing but the log prefix has been compacted away, and
/// when the log was compacted past the checkpoint's cut.
Status RecoverWithCheckpoint(PromiseManager* pm, SimulatedClock* clock,
                             const std::string& checkpoint_path,
                             const std::string& log_path,
                             const RecoveryOptions& options = {},
                             RecoveryReport* report = nullptr);

}  // namespace promises

#endif  // PROMISES_CORE_CHECKPOINT_H_

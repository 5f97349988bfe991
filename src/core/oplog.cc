#include "core/oplog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace promises {

namespace {

struct OplogMetrics {
  Counter* records_total;
  Counter* groups_total;
  Counter* append_errors_total;
  Counter* truncations_total;
  Counter* compacted_bytes_total;
  Counter* scan_discarded_bytes_total;
  // The registry has no label support: one counter per stop reason,
  // reason encoded in the name (oplog_scan_stopped_total{reason}).
  Counter* scan_stopped_eof;
  Counter* scan_stopped_torn_tail;
  Counter* scan_stopped_bad_record;
  Counter* scan_stopped_sequence_regression;
  Gauge* queue_depth;
  Histogram* group_size;
  Histogram* commit_wait_us;
};

OplogMetrics& Metrics() {
  static OplogMetrics m = [] {
    auto& reg = MetricsRegistry::Global();
    return OplogMetrics{
        reg.GetCounter("promises_oplog_records_total"),
        reg.GetCounter("promises_oplog_groups_total"),
        reg.GetCounter("promises_oplog_append_errors_total"),
        reg.GetCounter("promises_oplog_truncations_total"),
        reg.GetCounter("promises_oplog_compacted_bytes_total"),
        reg.GetCounter("promises_oplog_scan_discarded_bytes_total"),
        reg.GetCounter("promises_oplog_scan_stopped_total_eof"),
        reg.GetCounter("promises_oplog_scan_stopped_total_torn_tail"),
        reg.GetCounter("promises_oplog_scan_stopped_total_bad_record"),
        reg.GetCounter(
            "promises_oplog_scan_stopped_total_sequence_regression"),
        reg.GetGauge("promises_oplog_queue_depth"),
        reg.GetHistogram("promises_oplog_group_size",
                         {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
        reg.GetHistogram("promises_oplog_commit_wait_us"),
    };
  }();
  return m;
}

Counter* StopReasonCounter(ScanStopReason reason) {
  switch (reason) {
    case ScanStopReason::kEndOfFile: return Metrics().scan_stopped_eof;
    case ScanStopReason::kTornTail: return Metrics().scan_stopped_torn_tail;
    case ScanStopReason::kBadRecord: return Metrics().scan_stopped_bad_record;
    case ScanStopReason::kSequenceRegression:
      return Metrics().scan_stopped_sequence_regression;
  }
  return Metrics().scan_stopped_eof;
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t FnvFold(uint32_t sum, std::string_view bytes) {
  for (unsigned char c : bytes) {
    sum ^= c;
    sum *= 16777619u;
  }
  return sum;
}

// The header fields a v2/v3 record checksum covers, formatted once:
// "<length>|<sequence>|<timestamp>|<promise-id>|". A v3 record splices
// its checksum in at `length_end`, just past "<length>|".
struct RecordHeader {
  char bytes[4 * 21];  // four fields of at most 20 chars, each + '|'
  size_t size = 0;
  size_t length_end = 0;

  template <typename Int>
  void Append(Int value) {
    char* end = std::to_chars(bytes + size, bytes + sizeof(bytes), value).ptr;
    *end = '|';
    size = static_cast<size_t>(end - bytes) + 1;
  }
  std::string_view view() const { return {bytes, size}; }
};

RecordHeader FormatHeader(size_t length, uint64_t sequence,
                          Timestamp timestamp, uint64_t promise_id) {
  RecordHeader header;
  header.Append(length);
  header.length_end = header.size;
  header.Append(sequence);
  header.Append(timestamp);
  header.Append(promise_id);
  return header;
}

// A flush leader lingers until the group holds this many records.
size_t LingerBatch(const GroupCommitConfig& config) {
  return std::min(config.max_batch, config.queue_capacity);
}

enum class ParseStatus { kOk, kTorn, kBadRecord, kSequenceRegression };

// Checks a record's checksum and sequence and fills *out. `v1` records
// carry no sequence or promise id and checksum their payload alone.
ParseStatus FinishRecord(bool v1, int64_t length, int64_t checksum,
                         int64_t sequence, int64_t timestamp,
                         int64_t promise_id, std::string_view payload,
                         uint64_t prev_sequence, LogRecord* out) {
  if (static_cast<int64_t>(payload.size()) != length) {
    return ParseStatus::kBadRecord;
  }
  std::string body(payload);
  if (v1) {
    if (OperationLog::Checksum(body) != static_cast<uint32_t>(checksum)) {
      return ParseStatus::kBadRecord;
    }
    // v1 records predate explicit sequencing: number them by position
    // from the scan's sequence base (0 for a whole log, the marker LSN
    // for a compacted tail).
    out->sequence = prev_sequence + 1;
    out->timestamp = timestamp;
    out->promise_id = 0;
  } else {
    if (OperationLog::RecordChecksum(body.size(),
                                     static_cast<uint64_t>(sequence),
                                     timestamp,
                                     static_cast<uint64_t>(promise_id),
                                     body) != static_cast<uint32_t>(checksum)) {
      return ParseStatus::kBadRecord;
    }
    // Sequence regression means the tail was written against a state
    // recovery cannot have reached; treat it as corruption.
    if (static_cast<uint64_t>(sequence) <= prev_sequence) {
      return ParseStatus::kSequenceRegression;
    }
    out->sequence = static_cast<uint64_t>(sequence);
    out->timestamp = timestamp;
    out->promise_id = static_cast<uint64_t>(promise_id);
  }
  out->payload = std::move(body);
  return ParseStatus::kOk;
}

// Walks the records of a log image in file order. Every reader of the
// format goes through it: the scan, its corruption probe and
// compaction. v1 and v2 records are single lines. A v3 record is
// framed by the length in its header, so its payload may hold any
// byte; its '\n' terminator is checked, never searched for.
class RecordCursor {
 public:
  RecordCursor(std::string_view contents, size_t offset,
               uint64_t prev_sequence)
      : contents_(contents), offset_(offset), prev_sequence_(prev_sequence) {}

  size_t offset() const { return offset_; }
  bool at_end() const { return offset_ >= contents_.size(); }

  // Parses the record at offset(). kOk fills *out and steps past the
  // record; any other status leaves the cursor where it was. kTorn
  // means the bytes end inside the record.
  ParseStatus Next(LogRecord* out) {
    std::string_view rest = contents_.substr(offset_);
    size_t end = 0;
    ParseStatus st = rest.rfind("v3|", 0) == 0
                         ? ParseFramed(rest, out, &end)
                         : ParseLine(rest, out, &end);
    if (st == ParseStatus::kOk) {
      offset_ += end;
      prev_sequence_ = out->sequence;
    }
    return st;
  }

  // Steps to just past the next '\n' beyond offset(). After a damaged
  // record this is the only way to find a boundary; false at the end.
  bool Resync() {
    size_t nl = contents_.find('\n', offset_);
    if (nl == std::string_view::npos) {
      offset_ = contents_.size();
      return false;
    }
    offset_ = nl + 1;
    return true;
  }

 private:
  // v3|<length>|<checksum>|<sequence>|<timestamp>|<promise-id>|<payload>\n
  ParseStatus ParseFramed(std::string_view rest, LogRecord* out,
                          size_t* end) const {
    int64_t fields[5];
    size_t pos = 3;
    for (int64_t& field : fields) {
      size_t begin = pos;
      while (pos < rest.size() && rest[pos] != '|') {
        char c = rest[pos];
        if ((c < '0' || c > '9') && c != '-') return ParseStatus::kBadRecord;
        ++pos;
      }
      if (pos == rest.size()) return ParseStatus::kTorn;
      Result<int64_t> v = ParseInt64(rest.substr(begin, pos - begin));
      if (!v.ok()) return ParseStatus::kBadRecord;
      field = *v;
      ++pos;
    }
    const int64_t length = fields[0];
    if (length < 0) return ParseStatus::kBadRecord;
    if (static_cast<uint64_t>(length) >= rest.size() - pos) {
      return ParseStatus::kTorn;  // payload or terminator missing
    }
    size_t payload_end = pos + static_cast<size_t>(length);
    if (rest[payload_end] != '\n') return ParseStatus::kBadRecord;
    *end = payload_end + 1;
    return FinishRecord(false, length, fields[1], fields[2], fields[3],
                        fields[4], rest.substr(pos, payload_end - pos),
                        prev_sequence_, out);
  }

  // v2|<length>|<checksum>|<sequence>|<timestamp>|<promise-id>|<payload>
  // or v1 <length>|<checksum>|<timestamp>|<payload>, one line each.
  ParseStatus ParseLine(std::string_view rest, LogRecord* out,
                        size_t* end) const {
    size_t eol = rest.find('\n');
    if (eol == std::string_view::npos) return ParseStatus::kTorn;
    *end = eol + 1;
    std::string_view line = rest.substr(0, eol);
    bool v2 = line.rfind("v2|", 0) == 0;
    if (v2) line.remove_prefix(3);
    size_t fields = v2 ? 5 : 3;  // separators before the payload
    size_t cuts[5];
    size_t pos = 0;
    for (size_t i = 0; i < fields; ++i) {
      pos = line.find('|', pos);
      if (pos == std::string_view::npos) return ParseStatus::kBadRecord;
      cuts[i] = pos++;
    }
    int64_t values[5] = {0, 0, 0, 0, 0};
    for (size_t i = 0; i < fields; ++i) {
      size_t begin = i == 0 ? 0 : cuts[i - 1] + 1;
      Result<int64_t> v = ParseInt64(line.substr(begin, cuts[i] - begin));
      if (!v.ok()) return ParseStatus::kBadRecord;
      values[i] = *v;
    }
    std::string_view payload = line.substr(cuts[fields - 1] + 1);
    return v2 ? FinishRecord(false, values[0], values[1], values[2],
                             values[3], values[4], payload, prev_sequence_,
                             out)
              : FinishRecord(true, values[0], values[1], 0, values[2], 0,
                             payload, prev_sequence_, out);
  }

  std::string_view contents_;
  size_t offset_;
  uint64_t prev_sequence_;
};

// Compaction marker checksum: FNV over the three numeric fields.
uint32_t MarkerChecksum(uint64_t lsn, Timestamp timestamp,
                        uint64_t watermark) {
  return OperationLog::Checksum(std::to_string(lsn) + "|" +
                                std::to_string(timestamp) + "|" +
                                std::to_string(watermark));
}

std::string EncodeMarker(uint64_t lsn, Timestamp timestamp,
                         uint64_t watermark) {
  return "trunc|" + std::to_string(lsn) + "|" + std::to_string(timestamp) +
         "|" + std::to_string(watermark) + "|" +
         std::to_string(MarkerChecksum(lsn, timestamp, watermark)) + "\n";
}

// Parses `trunc|<lsn>|<timestamp>|<watermark>|<checksum>`. Only valid
// at file offset zero; anywhere else it is an ordinary bad record.
bool ParseMarker(std::string_view line, uint64_t* lsn, Timestamp* timestamp,
                 uint64_t* watermark) {
  if (line.rfind("trunc|", 0) != 0) return false;
  auto fields = Split(line.substr(6), '|');
  if (fields.size() != 4) return false;
  Result<int64_t> l = ParseInt64(fields[0]);
  Result<int64_t> ts = ParseInt64(fields[1]);
  Result<int64_t> wm = ParseInt64(fields[2]);
  Result<int64_t> sum = ParseInt64(fields[3]);
  if (!l.ok() || !ts.ok() || !wm.ok() || !sum.ok()) return false;
  if (MarkerChecksum(static_cast<uint64_t>(*l), *ts,
                     static_cast<uint64_t>(*wm)) !=
      static_cast<uint32_t>(*sum)) {
    return false;
  }
  *lsn = static_cast<uint64_t>(*l);
  *timestamp = *ts;
  *watermark = static_cast<uint64_t>(*wm);
  return true;
}

// fsync the file at `path` (data + metadata: a truncation changes the
// size) and then its directory, so the change survives a crash.
Status SyncFileAndDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::Unavailable("cannot open '" + path +
                               "' for fsync: " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    Status st = Status::Unavailable("fsync('" + path +
                                    "') failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  ::close(fd);
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) {
    return Status::Unavailable("cannot open directory '" + dir +
                               "' for fsync: " + std::strerror(errno));
  }
  if (::fsync(dfd) != 0) {
    Status st = Status::Unavailable("fsync('" + dir +
                                    "') failed: " + std::strerror(errno));
    ::close(dfd);
    return st;
  }
  ::close(dfd);
  return Status::OK();
}

std::string ReadWholeFile(std::FILE* f) {
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  return contents;
}

// Single streaming pass over the log file at `path`: intact records
// are appended to `records` (when non-null) and the stats report the
// clean-prefix length, stop reason and discarded bytes. Missing file:
// exists=false, zero records. A compaction marker at offset zero
// seeds the sequence base / timestamp / promise-id watermark.
LogScanStats ScanLog(const std::string& path,
                     std::vector<LogRecord>* records) {
  LogScanStats stats;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return stats;
  stats.exists = true;
  std::string contents = ReadWholeFile(f);
  std::fclose(f);
  stats.total_bytes = contents.size();

  // A compaction marker is honored only at offset zero.
  if (contents.rfind("trunc|", 0) == 0) {
    size_t eol = contents.find('\n');
    uint64_t lsn = 0, watermark = 0;
    Timestamp timestamp = 0;
    if (eol == std::string::npos ||
        !ParseMarker(std::string_view(contents).substr(0, eol), &lsn,
                     &timestamp, &watermark)) {
      stats.stop_reason = eol == std::string::npos ? ScanStopReason::kTornTail
                                                   : ScanStopReason::kBadRecord;
    } else {
      stats.base_sequence = lsn;
      stats.last_sequence = lsn;
      stats.last_timestamp = timestamp;
      stats.max_promise_id = watermark;
      stats.valid_bytes = eol + 1;
    }
  }
  RecordCursor cursor(contents, stats.valid_bytes, stats.last_sequence);
  while (stats.stop_reason == ScanStopReason::kEndOfFile &&
         !cursor.at_end()) {
    LogRecord record;
    ParseStatus parsed = cursor.Next(&record);
    if (parsed != ParseStatus::kOk) {
      stats.stop_reason =
          parsed == ParseStatus::kTorn ? ScanStopReason::kTornTail
          : parsed == ParseStatus::kSequenceRegression
              ? ScanStopReason::kSequenceRegression
              : ScanStopReason::kBadRecord;
      break;
    }
    stats.last_sequence = record.sequence;
    stats.last_timestamp = std::max(stats.last_timestamp, record.timestamp);
    stats.max_promise_id = std::max(stats.max_promise_id, record.promise_id);
    if (records != nullptr) records->push_back(std::move(record));
    stats.valid_bytes = cursor.offset();
  }
  stats.discarded_bytes = stats.total_bytes - stats.valid_bytes;

  // Is the stop a torn tail or mid-log corruption? A record that
  // regressed the sequence is itself intact evidence. Otherwise look
  // for any later checksum-valid record (sequence continuity
  // deliberately ignored: intact bytes past the stop point are the
  // signal, whatever their numbering). A v3 length damaged into
  // running past the end reads as torn, so torn stops are probed too;
  // a genuine torn tail has nothing intact beyond it.
  if (stats.stop_reason == ScanStopReason::kSequenceRegression) {
    stats.valid_beyond_stop = true;
  } else if (stats.stop_reason != ScanStopReason::kEndOfFile) {
    RecordCursor probe(contents, stats.valid_bytes, 0);
    while (!stats.valid_beyond_stop && probe.Resync()) {
      LogRecord ignored;
      stats.valid_beyond_stop = probe.Next(&ignored) == ParseStatus::kOk;
    }
  }

  StopReasonCounter(stats.stop_reason)->Increment();
  if (stats.discarded_bytes > 0) {
    Metrics().scan_discarded_bytes_total->Increment(
        static_cast<int64_t>(stats.discarded_bytes));
  }
  return stats;
}

}  // namespace

std::string_view ScanStopReasonToString(ScanStopReason reason) {
  switch (reason) {
    case ScanStopReason::kEndOfFile: return "eof";
    case ScanStopReason::kTornTail: return "torn_tail";
    case ScanStopReason::kBadRecord: return "bad_record";
    case ScanStopReason::kSequenceRegression: return "sequence_regression";
  }
  return "unknown";
}

OperationLog::~OperationLog() { Close(); }

Status OperationLog::Open(const std::string& path,
                          bool allow_mid_log_corruption) {
  Close();
  // Truncate any torn tail before appending: a record written after a
  // partial record would be unreachable to recovery (the scan stops at
  // the tear), silently losing committed operations.
  LogScanStats scan = ScanLog(path, nullptr);
  if (scan.exists && scan.valid_beyond_stop && !allow_mid_log_corruption) {
    return Status::DataLoss(
        "log '" + path + "' scan stopped (" +
        std::string(ScanStopReasonToString(scan.stop_reason)) + ", " +
        std::to_string(scan.discarded_bytes) +
        " bytes discarded) with checksum-valid records beyond the stop "
        "point: mid-log corruption, refusing to truncate over it");
  }
  if (scan.exists && scan.total_bytes > scan.valid_bytes) {
    if (::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) != 0) {
      return Status::Unavailable("cannot truncate torn log '" + path +
                                 "': " + std::strerror(errno));
    }
    // Make the truncation itself durable: without the fsync a crash
    // after truncate-then-append can resurrect the discarded torn
    // bytes under the new records and corrupt the next recovery.
    PROMISES_RETURN_IF_ERROR(SyncFileAndDir(path));
  }
  std::lock_guard<std::mutex> lock(mu_);
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Unavailable("cannot open log '" + path +
                               "': " + std::strerror(errno));
  }
  path_ = path;
  next_sequence_ = scan.last_sequence + 1;
  durable_sequence_ = scan.last_sequence;
  promise_id_watermark_ = scan.max_promise_id;
  last_timestamp_ = scan.last_timestamp;
  unwaited_sequence_ = 0;
  kick_ = false;
  failed_ = Status::OK();
  return Status::OK();
}

void OperationLog::Close() {
  StopGroupCommit();
  std::unique_lock<std::mutex> lock(mu_);
  durable_cv_.wait(lock, [this] { return !flushing_; });
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool OperationLog::IsOpen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

void OperationLog::Abandon() {
  std::unique_lock<std::mutex> lock(mu_);
  // Poison first: blocked appenders and WaitDurable callers must see
  // a failure, not a success, for the records the crash ate — their
  // clients re-send and the recovered world re-executes them.
  failed_ = Status::Unavailable("log abandoned (simulated crash)");
  queue_.clear();
  Metrics().queue_depth->Set(0);
  config_.mode = DurabilityMode::kSync;
  durable_cv_.notify_all();
  // A group already handed to the kernel completes (a crash does not
  // unwrite it); the file closes only once its leader is out.
  durable_cv_.wait(lock, [this] { return !flushing_; });
  if (file_ != nullptr) {
    // No unflushed stdio data can exist here: every written group
    // ends in fflush, and the queue above was dropped unwritten.
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status OperationLog::StartGroupCommit(const GroupCommitConfig& config,
                                      Clock* clock) {
  if (clock == nullptr) {
    return Status::InvalidArgument("group commit needs a clock");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("operation log is not open");
  }
  if (config_.mode != DurabilityMode::kSync) {
    return Status::FailedPrecondition("group commit already running");
  }
  config_ = config;
  config_.max_batch = std::max<size_t>(1, config_.max_batch);
  config_.queue_capacity = std::max<size_t>(1, config_.queue_capacity);
  clock_ = clock;
  return Status::OK();
}

void OperationLog::StopGroupCommit() {
  std::unique_lock<std::mutex> lock(mu_);
  if (config_.mode == DurabilityMode::kSync) return;
  // Drain what is queued in whole groups, cutting any linger short,
  // then go synchronous.
  if (!queue_.empty()) {
    kick_ = true;
    durable_cv_.notify_all();
  }
  FlushThroughLocked(lock, next_sequence_ - 1, /*linger=*/false);
  config_.mode = DurabilityMode::kSync;
}

uint32_t OperationLog::Checksum(const std::string& payload) {
  return FnvFold(2166136261u, payload);  // FNV-1a
}

uint32_t OperationLog::RecordChecksum(size_t length, uint64_t sequence,
                                      Timestamp timestamp,
                                      uint64_t promise_id,
                                      const std::string& payload) {
  RecordHeader header = FormatHeader(length, sequence, timestamp, promise_id);
  return FnvFold(FnvFold(2166136261u, header.view()), payload);
}

std::string OperationLog::EncodeRecord(uint64_t sequence,
                                       Timestamp timestamp,
                                       uint64_t promise_id,
                                       const std::string& payload) {
  RecordHeader header =
      FormatHeader(payload.size(), sequence, timestamp, promise_id);
  char checksum[10];
  char* checksum_end =
      std::to_chars(checksum, checksum + sizeof(checksum),
                    FnvFold(FnvFold(2166136261u, header.view()), payload))
          .ptr;
  // v3|<length>|<checksum>|<sequence>|<timestamp>|<promise-id>|<payload>\n
  std::string record;
  record.reserve(3 + header.size + sizeof(checksum) + 1 + payload.size() + 1);
  record.append("v3|")
      .append(header.bytes, header.length_end)
      .append(checksum, checksum_end)
      .append("|")
      .append(header.bytes + header.length_end,
              header.size - header.length_end)
      .append(payload)
      .append("\n");
  return record;
}

Status OperationLog::WriteBuffer(const std::string& buf,
                                 bool use_fdatasync) {
  size_t torn = torn_write_bytes_.exchange(kNoTornWrite,
                                           std::memory_order_acq_rel);
  if (torn != kNoTornWrite) {
    size_t bytes = std::min(torn, buf.size());
    if (bytes > 0) std::fwrite(buf.data(), 1, bytes, file_);
    std::fflush(file_);
    return Status::Unavailable("injected crash mid-append (" +
                               std::to_string(bytes) + " of " +
                               std::to_string(buf.size()) +
                               " bytes reached the log)");
  }
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
    return Status::Unavailable("log append failed");
  }
  if (std::fflush(file_) != 0) {
    return Status::Unavailable("log flush failed");
  }
  if (use_fdatasync && ::fdatasync(fileno(file_)) != 0) {
    return Status::Unavailable(std::string("log fdatasync failed: ") +
                               std::strerror(errno));
  }
  return Status::OK();
}

Result<uint64_t> OperationLog::AppendLocked(std::unique_lock<std::mutex>& lock,
                                            Clock* clock, Timestamp timestamp,
                                            uint64_t promise_id,
                                            const std::string& payload) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("operation log is not open");
  }
  // A full queue waits for the flush in progress, or writes a group.
  while (queue_.size() >= config_.queue_capacity && failed_.ok()) {
    if (flushing_) {
      durable_cv_.wait(lock);
    } else {
      LeadFlushLocked(lock, /*linger=*/false);
    }
  }
  if (!failed_.ok()) return failed_;
  // The timestamp is read inside the sequencing critical section (and
  // after any wait for room) so it is monotone in log order — replay
  // advances the clock per record and must never travel backwards.
  if (clock != nullptr) timestamp = clock->Now();
  const bool lingering = config_.mode == DurabilityMode::kGroup &&
                         config_.max_delay_ms > 0;
  uint64_t sequence = next_sequence_++;
  last_timestamp_ = std::max(last_timestamp_, timestamp);
  promise_id_watermark_ = std::max(promise_id_watermark_, promise_id);
  queue_.push_back(Pending{sequence,
                           EncodeRecord(sequence, timestamp, promise_id,
                                        payload),
                           lingering ? clock_->Now() : 0});
  Metrics().queue_depth->Set(static_cast<int64_t>(queue_.size()));
  if (config_.mode == DurabilityMode::kSync) {
    FlushThroughLocked(lock, sequence, /*linger=*/false);
    if (durable_sequence_ < sequence) {
      return failed_.ok() ? Status::Unavailable("log closed mid-append")
                          : failed_;
    }
  } else if (flushing_ && queue_.size() == LingerBatch(config_)) {
    durable_cv_.notify_all();  // the lingering leader's batch is full
  }
  return sequence;
}

Status OperationLog::Append(Timestamp timestamp,
                            const std::string& payload) {
  std::unique_lock<std::mutex> lock(mu_);
  PROMISES_ASSIGN_OR_RETURN(
      uint64_t sequence,
      AppendLocked(lock, nullptr, timestamp, /*promise_id=*/0, payload));
  lock.unlock();
  return WaitDurable(sequence);
}

Result<uint64_t> OperationLog::AppendOperation(Clock* clock,
                                               const std::string& payload,
                                               uint64_t promise_id) {
  std::unique_lock<std::mutex> lock(mu_);
  return AppendLocked(lock, clock, 0, promise_id, payload);
}

Status OperationLog::WaitDurable(uint64_t sequence) {
  int64_t start_us = SteadyNowUs();
  std::unique_lock<std::mutex> lock(mu_);
  if (config_.mode == DurabilityMode::kAsync) {
    // Fire-and-forget: the caller opted out of the ack, not the write.
    lock.unlock();
    FlushWithoutWaiting(sequence);
    return Status::OK();
  }
  FlushThroughLocked(lock, sequence, /*linger=*/true);
  Metrics().commit_wait_us->Observe(SteadyNowUs() - start_us);
  if (durable_sequence_ >= sequence) return Status::OK();
  if (!failed_.ok()) return failed_;
  return Status::Unavailable("log record " + std::to_string(sequence) +
                             " is not queued: the log was reopened before "
                             "it became durable");
}

void OperationLog::FlushWithoutWaiting(uint64_t sequence) {
  std::unique_lock<std::mutex> lock(mu_);
  // A flush in progress re-checks unwaited_sequence_ before it ends.
  unwaited_sequence_ = std::max(unwaited_sequence_, sequence);
  if (!flushing_ && durable_sequence_ < sequence) {
    LeadFlushLocked(lock, /*linger=*/false);
  }
}

void OperationLog::FlushThroughLocked(std::unique_lock<std::mutex>& lock,
                                      uint64_t sequence, bool linger) {
  while (durable_sequence_ < sequence) {
    if (flushing_) {
      // Even a failed log waits out the flush in progress: the record
      // may be in its group, and the answer must match the file.
      durable_cv_.wait(lock);
    } else if (!failed_.ok() || queue_.empty()) {
      return;  // lost with the log, or never queued
    } else {
      LeadFlushLocked(lock, linger);
    }
  }
}

void OperationLog::LeadFlushLocked(std::unique_lock<std::mutex>& lock,
                                   bool linger) {
  flushing_ = true;
  // Linger: grow the group until it is full or its oldest record has
  // waited max_delay_ms on the injected clock. The wait_for quantum is
  // real time so a SimulatedClock advanced by another thread is
  // noticed promptly; a full batch or KickFlush ends it early.
  while (linger && config_.mode == DurabilityMode::kGroup &&
         config_.max_delay_ms > 0 && !kick_ && failed_.ok() &&
         !queue_.empty() && queue_.size() < LingerBatch(config_) &&
         clock_->Now() - queue_.front().enqueued_at < config_.max_delay_ms) {
    durable_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
  const bool use_fdatasync = config_.use_fdatasync;
  // Sync mode writes (and syncs) every record on its own.
  const size_t batch =
      config_.mode == DurabilityMode::kSync ? 1 : config_.max_batch;
  while (failed_.ok() && !queue_.empty()) {
    size_t n = std::min(queue_.size(), batch);
    uint64_t last_sequence = 0;
    group_buf_.clear();
    for (size_t i = 0; i < n; ++i) {
      group_buf_ += queue_.front().encoded;
      last_sequence = queue_.front().sequence;
      queue_.pop_front();
    }
    // A kick covers everything queued at the boundary; once the queue
    // drains the next group forms (and lingers) normally.
    if (queue_.empty()) kick_ = false;
    Metrics().queue_depth->Set(static_cast<int64_t>(queue_.size()));
    io_in_flight_ = true;
    lock.unlock();
    Status st = WriteBuffer(group_buf_, use_fdatasync);
    lock.lock();
    io_in_flight_ = false;
    if (st.ok()) {
      durable_sequence_ = last_sequence;
      Metrics().records_total->Increment(n);
      Metrics().groups_total->Increment();
      Metrics().group_size->Observe(static_cast<int64_t>(n));
    } else {
      // Every queued record is past the torn tail: report it lost.
      failed_ = st;
      Metrics().append_errors_total->Increment();
      queue_.clear();
      Metrics().queue_depth->Set(0);
    }
    // Nobody waits on an unwaited record, so its flush cannot be left
    // to the next waiter.
    if (unwaited_sequence_ <= durable_sequence_) break;
    durable_cv_.notify_all();
  }
  flushing_ = false;
  durable_cv_.notify_all();
}

void OperationLog::KickFlush() {
  std::lock_guard<std::mutex> lock(mu_);
  // Nothing queued means everything sequenced is written or in a
  // leader's hands already; setting the kick would only rob the NEXT
  // group of its linger.
  if (config_.mode != DurabilityMode::kGroup || queue_.empty()) return;
  kick_ = true;
  if (flushing_) durable_cv_.notify_all();
}

Result<LogCut> OperationLog::CutPoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("operation log is not open");
  }
  if (!failed_.ok()) return failed_;
  LogCut cut;
  cut.sequence = next_sequence_ - 1;
  cut.last_timestamp = last_timestamp_;
  cut.promise_id_watermark = promise_id_watermark_;
  return cut;
}

Status OperationLog::TruncateBefore(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("operation log is not open");
  }
  if (!failed_.ok()) return failed_;
  if (lsn > durable_sequence_) {
    return Status::FailedPrecondition(
        "cannot compact before LSN " + std::to_string(lsn) +
        ": durable prefix ends at " + std::to_string(durable_sequence_));
  }
  // Wait out a flush leader's unlocked write. Queued records are
  // untouched — they all have sequence > durable_sequence_ >= lsn.
  durable_cv_.wait(lock, [this] { return !io_in_flight_; });
  if (!failed_.ok()) return failed_;

  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) {
    return Status::Unavailable("cannot reread log '" + path_ +
                               "': " + std::strerror(errno));
  }
  std::string contents = ReadWholeFile(in);
  std::fclose(in);

  // Walk the records to find the tail offset and the marker fields:
  // the marker inherits the max timestamp and promise-id watermark of
  // everything it swallows (plus a previous marker's).
  uint64_t base = 0, watermark = 0;
  Timestamp base_ts = 0;
  size_t start = 0;
  size_t eol = contents.find('\n');
  if (eol != std::string::npos &&
      ParseMarker(std::string_view(contents).substr(0, eol), &base, &base_ts,
                  &watermark)) {
    start = eol + 1;
  }
  if (lsn <= base) return Status::OK();  // already compacted past lsn
  Timestamp marker_ts = base_ts;
  size_t tail_offset = start;
  RecordCursor cursor(contents, start, base);
  while (!cursor.at_end()) {
    LogRecord record;
    ParseStatus parsed = cursor.Next(&record);
    if (parsed == ParseStatus::kTorn) {
      return Status::Internal("open log has a torn tail during compaction");
    }
    if (parsed != ParseStatus::kOk) {
      return Status::Internal("open log has a bad record during compaction");
    }
    if (record.sequence > lsn) break;
    marker_ts = std::max(marker_ts, record.timestamp);
    watermark = std::max(watermark, record.promise_id);
    tail_offset = cursor.offset();
  }

  const std::string tmp_path = path_ + ".compact.tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::Unavailable("cannot create '" + tmp_path +
                               "': " + std::strerror(errno));
  }
  std::string marker = EncodeMarker(lsn, marker_ts, watermark);
  bool wrote =
      std::fwrite(marker.data(), 1, marker.size(), out) == marker.size() &&
      (tail_offset >= contents.size() ||
       std::fwrite(contents.data() + tail_offset, 1,
                   contents.size() - tail_offset,
                   out) == contents.size() - tail_offset);
  if (!wrote || std::fflush(out) != 0 || ::fsync(fileno(out)) != 0) {
    std::fclose(out);
    std::remove(tmp_path.c_str());
    return Status::Unavailable("cannot write compacted log '" + tmp_path +
                               "': " + std::strerror(errno));
  }
  std::fclose(out);
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Unavailable("cannot install compacted log: " +
                               std::string(std::strerror(errno)));
  }
  Status sync_st = SyncFileAndDir(path_);
  if (!sync_st.ok()) {
    // The rename already landed; appending to the old inode would
    // silently lose records. Poison until reopened.
    failed_ = sync_st;
    return failed_;
  }

  // Swap the append handle onto the new inode. Sequencing state is
  // untouched: the cut names the same LSNs before and after.
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    failed_ = Status::Unavailable("cannot reopen compacted log '" + path_ +
                                  "': " + std::strerror(errno));
    return failed_;
  }
  Metrics().truncations_total->Increment();
  Metrics().compacted_bytes_total->Increment(
      static_cast<int64_t>(tail_offset));
  return Status::OK();
}

Result<std::vector<LogRecord>> OperationLog::ReadAll(
    const std::string& path) {
  std::vector<LogRecord> records;
  LogScanStats scan = ScanLog(path, &records);
  if (!scan.exists) {
    return Status::NotFound("no log at '" + path + "'");
  }
  return records;
}

Result<std::vector<LogRecord>> OperationLog::ReadForRecovery(
    const std::string& path, LogScanStats* stats,
    bool allow_mid_log_corruption) {
  std::vector<LogRecord> records;
  LogScanStats scan = ScanLog(path, &records);
  if (stats != nullptr) *stats = scan;
  if (!scan.exists) {
    return Status::NotFound("no log at '" + path + "'");
  }
  if (scan.valid_beyond_stop && !allow_mid_log_corruption) {
    return Status::DataLoss(
        "log '" + path + "' scan stopped (" +
        std::string(ScanStopReasonToString(scan.stop_reason)) + ", " +
        std::to_string(scan.discarded_bytes) +
        " bytes discarded) with checksum-valid records beyond the stop "
        "point: refusing to recover past mid-log corruption");
  }
  return records;
}

}  // namespace promises

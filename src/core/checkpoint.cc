#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"
#include "core/promise_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "predicate/parser.h"

namespace promises {

namespace {

struct CheckpointMetrics {
  Counter* installs;
  Counter* install_failures;
  Counter* snapshot_recoveries;
  Counter* full_replays;
  Counter* periodic_captures;
  Counter* periodic_skips;

  static CheckpointMetrics& Get() {
    static CheckpointMetrics m{
        MetricsRegistry::Global().GetCounter(
            "promises_checkpoint_installs_total"),
        MetricsRegistry::Global().GetCounter(
            "promises_checkpoint_install_failures_total"),
        MetricsRegistry::Global().GetCounter(
            "promises_recovery_snapshot_total"),
        MetricsRegistry::Global().GetCounter(
            "promises_recovery_full_replay_total"),
        MetricsRegistry::Global().GetCounter(
            "promises_checkpoint_periodic_captures_total"),
        MetricsRegistry::Global().GetCounter(
            "promises_checkpoint_periodic_skips_total"),
    };
    return m;
  }
};

Status SyncFileAndDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::Unavailable("open for fsync failed for '" + path +
                               "': " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    Status st = Status::Unavailable("fsync failed for '" + path +
                                    "': " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  ::close(fd);
  std::string dir = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) {
    return Status::Unavailable("open for fsync failed for directory '" + dir +
                               "': " + std::strerror(errno));
  }
  if (::fsync(dfd) != 0) {
    Status st = Status::Unavailable("fsync failed for directory '" + dir +
                                    "': " + std::strerror(errno));
    ::close(dfd);
    return st;
  }
  ::close(dfd);
  return Status::OK();
}

void EncodeU64(std::string* out, uint64_t v) {
  EncodeField(out, std::to_string(v));
}

void EncodeI64(std::string* out, int64_t v) {
  EncodeField(out, std::to_string(v));
}

Result<int64_t> DecodeI64(std::string_view* cursor) {
  PROMISES_ASSIGN_OR_RETURN(std::string field, DecodeField(cursor));
  return ParseInt64(field);
}

Result<uint64_t> DecodeU64(std::string_view* cursor) {
  PROMISES_ASSIGN_OR_RETURN(int64_t v, DecodeI64(cursor));
  if (v < 0) return Status::DataLoss("negative value in checkpoint field");
  return static_cast<uint64_t>(v);
}

// Values carry an explicit type tag so restore never depends on the
// lossy textual heuristics of Value::FromText (a *string* property
// that happens to look like a number must stay a string).
void EncodeValue(std::string* out, const Value& v) {
  std::string repr;
  switch (v.type()) {
    case ValueType::kBool:
      repr = v.as_bool() ? "b:1" : "b:0";
      break;
    case ValueType::kInt:
      repr = "i:" + std::to_string(v.as_int());
      break;
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "d:%.17g", v.as_double());
      repr = buf;
      break;
    }
    case ValueType::kString:
      repr = "s:" + v.as_string();
      break;
  }
  EncodeField(out, repr);
}

Result<Value> DecodeValue(std::string_view* cursor) {
  std::string field;
  PROMISES_ASSIGN_OR_RETURN(field, DecodeField(cursor));
  if (field.size() < 2 || field[1] != ':') {
    return Status::DataLoss("malformed value field in checkpoint");
  }
  std::string body = field.substr(2);
  switch (field[0]) {
    case 'b':
      return Value(body == "1");
    case 'i': {
      PROMISES_ASSIGN_OR_RETURN(int64_t i, ParseInt64(body));
      return Value(i);
    }
    case 'd': {
      char* end = nullptr;
      double d = std::strtod(body.c_str(), &end);
      if (end == body.c_str() || *end != '\0') {
        return Status::DataLoss("malformed double in checkpoint: " + body);
      }
      return Value(d);
    }
    case 's':
      return Value(std::move(body));
  }
  return Status::DataLoss("unknown value type tag in checkpoint: " + field);
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no checkpoint at '" + path + "'");
  }
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::Unavailable("read failed for '" + path + "'");
  }
  return contents;
}

}  // namespace

std::string SerializeCheckpoint(const CheckpointData& data) {
  std::string body;
  EncodeU64(&body, data.cut_lsn);
  EncodeI64(&body, data.captured_at);
  EncodeU64(&body, data.promise_id_watermark);

  EncodeU64(&body, data.clients.size());
  for (const auto& [id, name] : data.clients) {
    EncodeU64(&body, id);
    EncodeField(&body, name);
  }

  EncodeU64(&body, data.pools.size());
  for (const auto& [cls, quantity] : data.pools) {
    EncodeField(&body, cls);
    EncodeI64(&body, quantity);
  }

  EncodeU64(&body, data.instances.size());
  for (const auto& [cls, instances] : data.instances) {
    EncodeField(&body, cls);
    EncodeU64(&body, instances.size());
    for (const InstanceView& inst : instances) {
      EncodeField(&body, inst.id);
      EncodeI64(&body, static_cast<int64_t>(inst.status));
      EncodeU64(&body, inst.properties.size());
      for (const auto& [name, value] : inst.properties) {
        EncodeField(&body, name);
        EncodeValue(&body, value);
      }
    }
  }

  EncodeU64(&body, data.promises.size());
  for (const auto& [id, rec] : data.promises) {
    EncodeU64(&body, id);
    EncodeU64(&body, rec.owner.value());
    EncodeI64(&body, rec.granted_at);
    EncodeI64(&body, rec.expires_at);
    EncodeI64(&body, static_cast<int64_t>(rec.state));
    EncodeU64(&body, rec.predicates.size());
    for (const Predicate& pred : rec.predicates) {
      EncodeField(&body, pred.ToString());
    }
  }

  EncodeU64(&body, data.engine_state.size());
  for (const auto& [cls, blob] : data.engine_state) {
    EncodeField(&body, cls);
    EncodeField(&body, blob);
  }

  EncodeU64(&body, data.dedup.size());
  for (const CheckpointDedupEntry& entry : data.dedup) {
    EncodeField(&body, entry.from);
    EncodeU64(&body, entry.message_id);
    EncodeU64(&body, entry.lsn);
    EncodeField(&body, entry.reply);
  }

  std::string out = "pmckpt|2|" + std::to_string(body.size()) + "|" +
                    std::to_string(OperationLog::Checksum(body)) + "\n";
  out += body;
  return out;
}

Result<CheckpointData> ParseCheckpoint(const std::string& content) {
  size_t newline = content.find('\n');
  if (newline == std::string::npos) {
    return Status::DataLoss("checkpoint has no header line");
  }
  std::vector<std::string> header = Split(content.substr(0, newline), '|');
  if (header.size() != 4 || header[0] != "pmckpt") {
    return Status::DataLoss("checkpoint header is malformed");
  }
  // Version 2 differs from 1 only in how dedup replies are encoded,
  // and restore decodes both encodings.
  if (header[1] != "1" && header[1] != "2") {
    return Status::DataLoss("unsupported checkpoint version '" + header[1] +
                            "'");
  }
  Result<int64_t> length = ParseInt64(header[2]);
  Result<int64_t> checksum = ParseInt64(header[3]);
  if (!length.ok() || !checksum.ok()) {
    return Status::DataLoss("checkpoint header is malformed");
  }
  std::string_view body(content);
  body.remove_prefix(newline + 1);
  if (static_cast<int64_t>(body.size()) != *length) {
    return Status::DataLoss("checkpoint body truncated: header claims " +
                            std::to_string(*length) + " bytes, file has " +
                            std::to_string(body.size()));
  }
  if (OperationLog::Checksum(std::string(body)) !=
      static_cast<uint32_t>(*checksum)) {
    return Status::DataLoss("checkpoint checksum mismatch");
  }

  std::string_view cursor = body;
  CheckpointData data;
  PROMISES_ASSIGN_OR_RETURN(data.cut_lsn, DecodeU64(&cursor));
  PROMISES_ASSIGN_OR_RETURN(data.captured_at, DecodeI64(&cursor));
  PROMISES_ASSIGN_OR_RETURN(data.promise_id_watermark, DecodeU64(&cursor));

  PROMISES_ASSIGN_OR_RETURN(uint64_t nclients, DecodeU64(&cursor));
  for (uint64_t i = 0; i < nclients; ++i) {
    PROMISES_ASSIGN_OR_RETURN(uint64_t id, DecodeU64(&cursor));
    PROMISES_ASSIGN_OR_RETURN(std::string name, DecodeField(&cursor));
    data.clients.emplace_back(id, std::move(name));
  }

  PROMISES_ASSIGN_OR_RETURN(uint64_t npools, DecodeU64(&cursor));
  for (uint64_t i = 0; i < npools; ++i) {
    PROMISES_ASSIGN_OR_RETURN(std::string cls, DecodeField(&cursor));
    PROMISES_ASSIGN_OR_RETURN(int64_t quantity, DecodeI64(&cursor));
    data.pools[std::move(cls)] = quantity;
  }

  PROMISES_ASSIGN_OR_RETURN(uint64_t nclasses, DecodeU64(&cursor));
  for (uint64_t i = 0; i < nclasses; ++i) {
    PROMISES_ASSIGN_OR_RETURN(std::string cls, DecodeField(&cursor));
    PROMISES_ASSIGN_OR_RETURN(uint64_t ninst, DecodeU64(&cursor));
    std::vector<InstanceView> instances;
    for (uint64_t j = 0; j < ninst; ++j) {
      InstanceView inst;
      PROMISES_ASSIGN_OR_RETURN(inst.id, DecodeField(&cursor));
      PROMISES_ASSIGN_OR_RETURN(int64_t status, DecodeI64(&cursor));
      if (status < 0 || status > 2) {
        return Status::DataLoss("invalid instance status in checkpoint");
      }
      inst.status = static_cast<InstanceStatus>(status);
      PROMISES_ASSIGN_OR_RETURN(uint64_t nprops, DecodeU64(&cursor));
      for (uint64_t k = 0; k < nprops; ++k) {
        PROMISES_ASSIGN_OR_RETURN(std::string name, DecodeField(&cursor));
        PROMISES_ASSIGN_OR_RETURN(Value value, DecodeValue(&cursor));
        inst.properties[std::move(name)] = std::move(value);
      }
      instances.push_back(std::move(inst));
    }
    data.instances[std::move(cls)] = std::move(instances);
  }

  PROMISES_ASSIGN_OR_RETURN(uint64_t npromises, DecodeU64(&cursor));
  for (uint64_t i = 0; i < npromises; ++i) {
    PROMISES_ASSIGN_OR_RETURN(uint64_t id, DecodeU64(&cursor));
    PromiseRecord rec;
    rec.id = PromiseId(id);
    PROMISES_ASSIGN_OR_RETURN(uint64_t owner, DecodeU64(&cursor));
    rec.owner = ClientId(owner);
    PROMISES_ASSIGN_OR_RETURN(rec.granted_at, DecodeI64(&cursor));
    PROMISES_ASSIGN_OR_RETURN(rec.expires_at, DecodeI64(&cursor));
    PROMISES_ASSIGN_OR_RETURN(int64_t state, DecodeI64(&cursor));
    if (state < 0 || state > 3) {
      return Status::DataLoss("invalid promise state in checkpoint");
    }
    rec.state = static_cast<PromiseState>(state);
    PROMISES_ASSIGN_OR_RETURN(uint64_t npreds, DecodeU64(&cursor));
    for (uint64_t j = 0; j < npreds; ++j) {
      PROMISES_ASSIGN_OR_RETURN(std::string text, DecodeField(&cursor));
      PROMISES_ASSIGN_OR_RETURN(Predicate pred, ParsePredicate(text));
      rec.predicates.push_back(std::move(pred));
    }
    data.promises.emplace(id, std::move(rec));
  }

  PROMISES_ASSIGN_OR_RETURN(uint64_t nengines, DecodeU64(&cursor));
  for (uint64_t i = 0; i < nengines; ++i) {
    PROMISES_ASSIGN_OR_RETURN(std::string cls, DecodeField(&cursor));
    PROMISES_ASSIGN_OR_RETURN(std::string blob, DecodeField(&cursor));
    data.engine_state[std::move(cls)] = std::move(blob);
  }

  PROMISES_ASSIGN_OR_RETURN(uint64_t ndedup, DecodeU64(&cursor));
  for (uint64_t i = 0; i < ndedup; ++i) {
    CheckpointDedupEntry entry;
    PROMISES_ASSIGN_OR_RETURN(entry.from, DecodeField(&cursor));
    PROMISES_ASSIGN_OR_RETURN(entry.message_id, DecodeU64(&cursor));
    PROMISES_ASSIGN_OR_RETURN(entry.lsn, DecodeU64(&cursor));
    PROMISES_ASSIGN_OR_RETURN(entry.reply, DecodeField(&cursor));
    data.dedup.push_back(std::move(entry));
  }

  if (!cursor.empty()) {
    return Status::DataLoss("checkpoint has " +
                            std::to_string(cursor.size()) +
                            " trailing bytes");
  }
  return data;
}

Status WriteCheckpointFile(const std::string& path,
                           const CheckpointData& data) {
  std::string contents = SerializeCheckpoint(data);
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("cannot create '" + tmp +
                               "': " + std::strerror(errno));
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  bool flushed = std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (written != contents.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Unavailable("short write installing checkpoint '" + path +
                               "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::Unavailable("rename failed installing checkpoint '" +
                                    path + "': " + std::strerror(errno));
    std::remove(tmp.c_str());
    return st;
  }
  // The rename itself must survive a crash: fsync the directory.
  return SyncFileAndDir(path);
}

Result<CheckpointData> LoadCheckpointFile(const std::string& path) {
  PROMISES_ASSIGN_OR_RETURN(std::string contents, ReadWholeFile(path));
  return ParseCheckpoint(contents);
}

// ---------------------------------------------------------------------
// CheckpointWriter

CheckpointWriter::CheckpointWriter(PromiseManager* pm, OperationLog* log,
                                   std::string path)
    : pm_(pm), log_(log), path_(std::move(path)) {}

CheckpointWriter::~CheckpointWriter() { Stop(); }

Result<uint64_t> CheckpointWriter::RunOnce() {
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  Result<CheckpointData> data = pm_->CaptureCheckpoint();
  if (!data.ok()) {
    metrics.install_failures->Increment();
    return data.status();
  }
  // The snapshot reflects every record up to the cut; none of them may
  // be lost to a crash after the old log prefix is truncated, so the
  // cut must be durable before the checkpoint is published.
  Status st = log_->WaitDurable(data->cut_lsn);
  ScopedSpan install_span("checkpoint-install");
  if (st.ok()) st = WriteCheckpointFile(path_, *data);
  if (st.ok()) {
    // Compaction strictly after the rename landed: until then the full
    // log is the only recoverable copy of the prefix.
    st = log_->TruncateBefore(data->cut_lsn);
  }
  if (!st.ok()) {
    install_span.set_status(StatusCodeToString(st.code()));
    metrics.install_failures->Increment();
    return st;
  }
  metrics.installs->Increment();
  last_installed_lsn_.store(data->cut_lsn, std::memory_order_relaxed);
  return data->cut_lsn;
}

void CheckpointWriter::TickOnce() {
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  // Idle servers checkpoint nothing: when no LSN landed since the last
  // install, re-capturing would rewrite an identical snapshot and
  // re-truncate an already-compacted prefix for no recovery benefit.
  Result<LogCut> cut = log_->CutPoint();
  if (cut.ok() &&
      cut->sequence <= last_installed_lsn_.load(std::memory_order_relaxed)) {
    periodic_skips_.fetch_add(1, std::memory_order_relaxed);
    metrics.periodic_skips->Increment();
    return;
  }
  ScopedSpan span("checkpoint-capture");
  periodic_captures_.fetch_add(1, std::memory_order_relaxed);
  metrics.periodic_captures->Increment();
  Result<uint64_t> installed = RunOnce();
  if (!installed.ok()) {
    span.set_status(StatusCodeToString(installed.status().code()));
  }
}

Status CheckpointWriter::Start(DurationMs interval_ms) {
  if (interval_ms <= 0) {
    return Status::InvalidArgument("checkpoint interval must be > 0");
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (running_) {
    return Status::FailedPrecondition("checkpoint writer already running");
  }
  stopping_ = false;
  running_ = true;
  worker_ = std::thread([this, interval_ms] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                       [this] { return stopping_; })) {
        break;
      }
      lock.unlock();
      // Failures are loud through metrics/spans but do not stop the
      // cadence; the next tick retries with a fresh cut.
      TickOnce();
      lock.lock();
    }
  });
  return Status::OK();
}

void CheckpointWriter::Stop() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return;
    stopping_ = true;
    running_ = false;
    worker = std::move(worker_);
  }
  cv_.notify_all();
  if (worker.joinable()) worker.join();
}

// ---------------------------------------------------------------------
// Recovery

Status RecoverWithCheckpoint(PromiseManager* pm, SimulatedClock* clock,
                             const std::string& checkpoint_path,
                             const std::string& log_path,
                             const RecoveryOptions& options,
                             RecoveryReport* report) {
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  RecoveryReport local;
  RecoveryReport* rep = report != nullptr ? report : &local;
  *rep = RecoveryReport{};

  // A crash during install can leave the temp file behind; its rename
  // never published it, so it is not part of the recoverable state.
  std::remove((checkpoint_path + ".tmp").c_str());

  Result<CheckpointData> ckpt = LoadCheckpointFile(checkpoint_path);
  if (!ckpt.ok() && !ckpt.status().IsNotFound() &&
      !ckpt.status().IsDataLoss()) {
    return ckpt.status();
  }

  std::vector<LogRecord> records;
  LogScanStats stats{};
  Result<std::vector<LogRecord>> read = OperationLog::ReadForRecovery(
      log_path, &stats, options.allow_mid_log_corruption);
  if (read.ok()) {
    records = std::move(*read);
  } else if (!read.status().IsNotFound()) {
    return read.status();  // e.g. refusing to scan past mid-log corruption
  }
  rep->scan = stats;
  rep->total_records = records.size();

  if (!read.ok() && !ckpt.ok()) {
    return Status::NotFound("nothing to recover: no checkpoint at '" +
                            checkpoint_path + "' and no log at '" + log_path +
                            "'");
  }

  if (ckpt.ok()) {
    if (stats.exists && stats.base_sequence > ckpt->cut_lsn) {
      return Status::DataLoss(
          "log was compacted past the checkpoint cut (log base " +
          std::to_string(stats.base_sequence) + " > cut " +
          std::to_string(ckpt->cut_lsn) +
          "): records between them are unrecoverable");
    }
    std::vector<LogRecord> tail;
    tail.reserve(records.size());
    for (LogRecord& record : records) {
      if (record.sequence > ckpt->cut_lsn) tail.push_back(std::move(record));
    }
    rep->used_checkpoint = true;
    rep->checkpoint_lsn = ckpt->cut_lsn;
    rep->tail_records = tail.size();
    PROMISES_RETURN_IF_ERROR(pm->RestoreCheckpoint(*ckpt, clock));
    PROMISES_RETURN_IF_ERROR(
        pm->ReplayLogParallel(tail, clock, options.replay_workers));
    metrics.snapshot_recoveries->Increment();
    return Status::OK();
  }

  // No usable checkpoint. Full replay is sound only while the log still
  // starts at its origin; once compacted, the prefix lives exclusively
  // in the (damaged or missing) checkpoint.
  if (stats.exists && stats.base_sequence != 0) {
    if (ckpt.status().IsDataLoss()) {
      return Status::DataLoss("checkpoint at '" + checkpoint_path +
                              "' is damaged and the log prefix before " +
                              std::to_string(stats.base_sequence) +
                              " has been compacted away: " +
                              ckpt.status().ToString());
    }
    return Status::DataLoss(
        "log prefix before " + std::to_string(stats.base_sequence) +
        " has been compacted away but no checkpoint exists at '" +
        checkpoint_path + "'");
  }
  rep->tail_records = records.size();
  PROMISES_RETURN_IF_ERROR(
      pm->ReplayLogParallel(records, clock, options.replay_workers));
  metrics.full_replays->Increment();
  return Status::OK();
}

}  // namespace promises

#include "wsba/business_activity.h"

#include <optional>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace promises {

namespace {

// Protocol messages ride as <action> bodies with service "wsba".
constexpr char kService[] = "wsba";

// Retry-after hint returned to a get_outcome query while the activity
// is still undecided: the coordinator genuinely has nothing to report,
// so pace the participant's re-query instead of letting it spin.
constexpr int64_t kUndecidedRetryAfterMs = 10;

struct WsbaMetrics {
  Counter* activities;
  Counter* registrations;
  Counter* signals;
  Counter* duplicate_signals;
  Counter* decisions_close;
  Counter* decisions_cancel;
  Counter* outcomes_closed;
  Counter* outcomes_compensated;
  Counter* outcomes_mixed;
  Counter* order_retransmissions;
  Counter* recovered_activities;
  Counter* presumed_aborts;
  Counter* outcome_queries;
  Counter* order_dedup;
  Gauge* open_activities;

  static WsbaMetrics& Get() {
    static WsbaMetrics m = [] {
      auto& reg = MetricsRegistry::Global();
      WsbaMetrics x;
      x.activities = reg.GetCounter("promises_wsba_activities_total");
      x.registrations = reg.GetCounter("promises_wsba_registrations_total");
      x.signals = reg.GetCounter("promises_wsba_signals_total");
      x.duplicate_signals =
          reg.GetCounter("promises_wsba_duplicate_signals_total");
      x.decisions_close =
          reg.GetCounter("promises_wsba_decisions_close_total");
      x.decisions_cancel =
          reg.GetCounter("promises_wsba_decisions_cancel_total");
      x.outcomes_closed = reg.GetCounter("promises_wsba_outcomes_closed_total");
      x.outcomes_compensated =
          reg.GetCounter("promises_wsba_outcomes_compensated_total");
      x.outcomes_mixed = reg.GetCounter("promises_wsba_outcomes_mixed_total");
      x.order_retransmissions =
          reg.GetCounter("promises_wsba_order_retransmissions_total");
      x.recovered_activities =
          reg.GetCounter("promises_wsba_recovered_activities_total");
      x.presumed_aborts = reg.GetCounter("promises_wsba_presumed_aborts_total");
      x.outcome_queries = reg.GetCounter("promises_wsba_outcome_queries_total");
      x.order_dedup = reg.GetCounter("promises_wsba_order_dedup_total");
      x.open_activities = reg.GetGauge("promises_wsba_open_activities");
      return x;
    }();
    return m;
  }
};

// Public coordinator/participant entry points are trace roots when no
// ambient context exists (direct API use) and children otherwise
// (driven from a traced workload).
void BeginOpSpan(std::optional<ScopedSpan>& span, std::string_view name) {
  if (CurrentTraceContext() != nullptr) {
    span.emplace(name);
  } else {
    span.emplace(Tracer::Global().StartTrace(), name);
  }
}

Envelope ProtocolMessage(Transport* transport, const std::string& from,
                         const std::string& to, const std::string& kind,
                         ActivityId activity, ParticipantId participant,
                         const std::string& detail = "") {
  Envelope env;
  env.message_id = transport->NextMessageId();
  env.from = from;
  env.to = to;
  ActionBody action;
  action.service = kService;
  action.operation = kind;
  action.params["activity"] = Value(static_cast<int64_t>(activity.value()));
  action.params["participant"] =
      Value(static_cast<int64_t>(participant.value()));
  if (!detail.empty()) action.params["detail"] = Value(detail);
  env.action = std::move(action);
  return env;
}

Envelope Ack(Transport* transport, const Envelope& in, bool ok,
             const std::string& error = "",
             std::map<std::string, Value> outputs = {}) {
  Envelope reply;
  reply.message_id = transport->NextMessageId();
  reply.from = in.to;
  reply.to = in.from;
  ActionResultBody result;
  result.ok = ok;
  result.error = error;
  result.outputs = std::move(outputs);
  reply.action_result = std::move(result);
  return reply;
}

// Log fields are '|'-separated, so endpoints must stay out of the
// delimiter alphabet (the payload itself must also stay one line for
// the oplog record framing).
bool LoggableEndpoint(const std::string& endpoint) {
  return endpoint.find('|') == std::string::npos &&
         endpoint.find('\n') == std::string::npos;
}

uint64_t FieldId(const std::string& field) {
  Result<int64_t> v = ParseInt64(field);
  return v.ok() ? static_cast<uint64_t>(*v) : 0;
}

}  // namespace

std::string_view ParticipantStateToString(ParticipantState s) {
  switch (s) {
    case ParticipantState::kActive: return "active";
    case ParticipantState::kCompleted: return "completed";
    case ParticipantState::kClosing: return "closing";
    case ParticipantState::kCompensating: return "compensating";
    case ParticipantState::kCancelling: return "cancelling";
    case ParticipantState::kEnded: return "ended";
    case ParticipantState::kExited: return "exited";
    case ParticipantState::kFaulted: return "faulted";
  }
  return "unknown";
}

std::string_view ActivityOutcomeToString(ActivityOutcome o) {
  switch (o) {
    case ActivityOutcome::kOpen: return "open";
    case ActivityOutcome::kClosed: return "closed";
    case ActivityOutcome::kCompensated: return "compensated";
    case ActivityOutcome::kMixed: return "mixed";
  }
  return "unknown";
}

std::string_view ActivityDecisionToString(ActivityDecision d) {
  switch (d) {
    case ActivityDecision::kNone: return "none";
    case ActivityDecision::kClose: return "close";
    case ActivityDecision::kCancel: return "cancel";
  }
  return "unknown";
}

// ---- Coordinator -----------------------------------------------------

BusinessActivityCoordinator::BusinessActivityCoordinator(
    std::string endpoint, Transport* transport, CoordinatorOptions options)
    : endpoint_(std::move(endpoint)),
      transport_(transport),
      options_(options),
      retry_rng_(options.retry_seed) {
  if (options_.clock == nullptr) {
    owned_clock_ = std::make_unique<SystemClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = options_.clock;
  }
  if (options_.retry.clock == nullptr) options_.retry.clock = clock_;
  transport_->Register(endpoint_, [this](const Envelope& env) {
    return HandleSignal(env);
  });
}

BusinessActivityCoordinator::~BusinessActivityCoordinator() {
  // A crashed coordinator died without unregistering; by the time its
  // corpse is destroyed a recovered twin may own the endpoint, and
  // unregistering here would silently unplug it.
  bool crashed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    crashed = crashed_;
  }
  if (!crashed) transport_->Unregister(endpoint_);
}

void BusinessActivityCoordinator::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
}

Status BusinessActivityCoordinator::AppendRecord(const std::string& payload,
                                                 bool durable) {
  if (options_.log == nullptr) return Status::OK();
  Result<uint64_t> seq =
      options_.log->AppendOperation(clock_, payload, /*promise_id=*/0);
  if (!seq.ok()) return seq.status();
  if (durable) return options_.log->WaitDurable(*seq);
  // Nobody waits on this record, but it must still reach the file
  // without a later commit.
  options_.log->FlushWithoutWaiting(*seq);
  return Status::OK();
}

bool BusinessActivityCoordinator::CrashAt(const char* point) {
  if (options_.crash_points == nullptr) return false;
  if (!options_.crash_points->AtCrashPoint(point)) return false;
  crashed_ = true;
  return true;
}

bool BusinessActivityCoordinator::crashed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return crashed_;
}

uint64_t BusinessActivityCoordinator::retransmissions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return retransmissions_;
}

ActivityId BusinessActivityCoordinator::CreateActivity() {
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "wsba-create");
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return ActivityId();  // "no id": coordinator is dead.
  ActivityId id = activity_ids_.Next();
  if (!AppendRecord("ba|create|" + std::to_string(id.value()),
                    /*durable=*/false)
           .ok()) {
    return ActivityId();
  }
  activities_[id] = Activity{};
  WsbaMetrics::Get().activities->Increment();
  WsbaMetrics::Get().open_activities->Add(1);
  return id;
}

Result<ParticipantId> BusinessActivityCoordinator::Register(
    ActivityId activity, const std::string& participant_endpoint) {
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "wsba-register");
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return Status::Unavailable("coordinator crashed");
  if (!LoggableEndpoint(participant_endpoint)) {
    return Status::InvalidArgument("endpoint contains log delimiters");
  }
  auto it = activities_.find(activity);
  if (it == activities_.end()) {
    return Status::NotFound("unknown activity " + activity.ToString());
  }
  if (it->second.outcome != ActivityOutcome::kOpen ||
      it->second.decision != ActivityDecision::kNone) {
    return Status::FailedPrecondition("activity " + activity.ToString() +
                                      " already ended");
  }
  // A duplicated Register delivery must not enlist a twin: the same
  // endpoint re-registering gets its existing enlistment back.
  for (const auto& [existing_id, p] : it->second.participants) {
    if (p.endpoint == participant_endpoint) {
      WsbaMetrics::Get().duplicate_signals->Increment();
      return existing_id;
    }
  }
  ParticipantId id = participant_ids_.Next();
  PROMISES_RETURN_IF_ERROR(AppendRecord(
      "ba|register|" + std::to_string(activity.value()) + "|" +
          std::to_string(id.value()) + "|" + participant_endpoint,
      /*durable=*/false));
  it->second.participants[id] =
      Participant{participant_endpoint, ParticipantState::kActive};
  WsbaMetrics::Get().registrations->Increment();
  return id;
}

Result<Envelope> BusinessActivityCoordinator::HandleSignal(
    const Envelope& envelope) {
  if (!envelope.action || envelope.action->service != kService) {
    return Status::InvalidArgument("not a wsba protocol message");
  }
  const ActionBody& action = *envelope.action;
  auto aid = action.params.find("activity");
  if (aid == action.params.end()) {
    return Status::InvalidArgument("wsba message missing activity id");
  }
  ActivityId activity(static_cast<uint64_t>(aid->second.as_int()));
  const std::string& kind = action.operation;

  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return Status::Unavailable("coordinator crashed");

  // Timeout path: a participant asking for the durable outcome. An
  // activity this coordinator has never heard of is reported unknown —
  // under presumed abort the participant treats that as Cancel.
  if (kind == "get_outcome") {
    WsbaMetrics::Get().outcome_queries->Increment();
    auto ait = activities_.find(activity);
    std::map<std::string, Value> outputs;
    if (ait == activities_.end()) {
      outputs["known"] = Value(false);
      outputs["decision"] = Value("none");
    } else {
      outputs["known"] = Value(true);
      outputs["decision"] =
          Value(std::string(ActivityDecisionToString(ait->second.decision)));
      if (ait->second.decision == ActivityDecision::kNone) {
        outputs["retry_after_ms"] = Value(kUndecidedRetryAfterMs);
      }
    }
    return Ack(transport_, envelope, true, "", std::move(outputs));
  }

  auto pid = action.params.find("participant");
  if (pid == action.params.end()) {
    return Status::InvalidArgument("wsba message missing participant id");
  }
  ParticipantId participant(static_cast<uint64_t>(pid->second.as_int()));

  auto ait = activities_.find(activity);
  if (ait == activities_.end()) {
    return Ack(transport_, envelope, false,
               "unknown activity " + activity.ToString());
  }
  auto it = ait->second.participants.find(participant);
  if (it == ait->second.participants.end()) {
    return Ack(transport_, envelope, false,
               "unknown participant " + participant.ToString());
  }
  Participant& p = it->second;
  WsbaMetrics::Get().signals->Increment();

  // Signals are deduplicated, not rejected, when the participant is
  // already in the signalled state: retransmitted signals (lost acks,
  // duplicated deliveries) must converge, not fault the activity.
  auto log_signal = [&]() {
    return AppendRecord("ba|signal|" + std::to_string(activity.value()) +
                            "|" + std::to_string(participant.value()) + "|" +
                            kind,
                        /*durable=*/false);
  };
  if (kind == "completed") {
    if (p.state == ParticipantState::kCompleted) {
      WsbaMetrics::Get().duplicate_signals->Increment();
      return Ack(transport_, envelope, true);
    }
    if (p.state != ParticipantState::kActive) {
      return Ack(transport_, envelope, false,
                 "completed in state " +
                     std::string(ParticipantStateToString(p.state)));
    }
    Status logged = log_signal();
    if (!logged.ok()) {
      return Ack(transport_, envelope, false, logged.ToString());
    }
    p.state = ParticipantState::kCompleted;
    return Ack(transport_, envelope, true);
  }
  if (kind == "exit") {
    if (p.state == ParticipantState::kExited) {
      WsbaMetrics::Get().duplicate_signals->Increment();
      return Ack(transport_, envelope, true);
    }
    if (p.state != ParticipantState::kActive) {
      return Ack(transport_, envelope, false,
                 "exit in state " +
                     std::string(ParticipantStateToString(p.state)));
    }
    Status logged = log_signal();
    if (!logged.ok()) {
      return Ack(transport_, envelope, false, logged.ToString());
    }
    p.state = ParticipantState::kExited;
    return Ack(transport_, envelope, true);
  }
  if (kind == "fault") {
    if (p.state == ParticipantState::kFaulted) {
      WsbaMetrics::Get().duplicate_signals->Increment();
      return Ack(transport_, envelope, true);
    }
    if (p.state != ParticipantState::kActive &&
        p.state != ParticipantState::kCompleted) {
      return Ack(transport_, envelope, false,
                 "fault in state " +
                     std::string(ParticipantStateToString(p.state)));
    }
    Status logged = log_signal();
    if (!logged.ok()) {
      return Ack(transport_, envelope, false, logged.ToString());
    }
    p.state = ParticipantState::kFaulted;
    ait->second.faulted = true;
    return Ack(transport_, envelope, true);
  }
  return Ack(transport_, envelope, false, "unknown signal '" + kind + "'");
}

Result<ActivityOutcome> BusinessActivityCoordinator::DecideLocked(
    ActivityId id, Activity* activity, ActivityDecision decision) {
  if (CrashAt("wsba-pre-decision")) {
    // Died before the decision reached the log: recovery sees an
    // undecided activity and presumes abort.
    return Status::Unavailable("coordinator crashed before decision");
  }
  {
    ScopedSpan log_span("wsba-decision-log");
    // Write-ahead: the decision must be durable before ANY outcome
    // order leaves, or a crash after a sent Close could recover into a
    // presumed abort that compensates a closed participant.
    Status logged = AppendRecord(
        "ba|decision|" + std::to_string(id.value()) + "|" +
            std::string(ActivityDecisionToString(decision)),
        /*durable=*/true);
    if (!logged.ok()) {
      log_span.set_status("error");
      return logged;
    }
  }
  activity->decision = decision;
  if (decision == ActivityDecision::kClose) {
    WsbaMetrics::Get().decisions_close->Increment();
  } else {
    WsbaMetrics::Get().decisions_cancel->Increment();
  }
  if (CrashAt("wsba-post-decision")) {
    // Died with a durable decision but no orders sent: recovery
    // re-drives to exactly this outcome.
    return Status::Unavailable("coordinator crashed after decision");
  }
  return DriveOutcomeLocked(id, activity);
}

Result<ActivityOutcome> BusinessActivityCoordinator::DriveOutcomeLocked(
    ActivityId id, Activity* activity) {
  bool all_reachable = true;
  for (auto& [pid, p] : activity->participants) {
    std::string order_kind;
    ParticipantState in_flight;
    switch (p.state) {
      case ParticipantState::kCompleted:
      case ParticipantState::kClosing:
      case ParticipantState::kCompensating:
        if (activity->decision == ActivityDecision::kClose) {
          order_kind = "close";
          in_flight = ParticipantState::kClosing;
        } else {
          order_kind = "compensate";
          in_flight = ParticipantState::kCompensating;
        }
        break;
      case ParticipantState::kActive:
      case ParticipantState::kCancelling:
        // Still-active participants only exist under a cancel decision
        // (close refuses while anyone is active): nothing completed,
        // nothing to undo.
        order_kind = "cancel";
        in_flight = ParticipantState::kCancelling;
        break;
      default:
        continue;  // ended / exited / faulted
    }
    if (CrashAt("wsba-pre-notify")) {
      return Status::Unavailable("coordinator crashed before notify");
    }
    p.state = in_flight;
    Envelope order = ProtocolMessage(transport_, endpoint_, p.endpoint,
                                     order_kind, id, pid);
    Result<Envelope> reply = Status::Unavailable("not sent");
    {
      ScopedSpan notify_span("wsba-notify");
      // Identical envelope on every attempt: the participant dedups
      // per activity, so a lost ack retransmit cannot double-run the
      // compensation.
      uint64_t retries = 0;
      reply = CallWithRetry(
          options_.retry, &retry_rng_,
          [&] { return transport_->Send(order); }, &retries,
          [&] { transport_->NoteRetry(p.endpoint); });
      retransmissions_ += retries;
      if (retries > 0) {
        WsbaMetrics::Get().order_retransmissions->Increment(retries);
      }
      if (!reply.ok()) notify_span.set_status("unreachable");
    }
    if (!reply.ok()) {
      // Unreachable through the retry budget: leave the participant
      // in-flight for a later ReDrive — faulting it here would turn a
      // transient partition into a permanent mixed outcome.
      all_reachable = false;
      continue;
    }
    if (!reply->action_result || !reply->action_result->ok) {
      p.state = ParticipantState::kFaulted;
      p.order_failed = true;
      activity->faulted = true;
      (void)AppendRecord("ba|acked|" + std::to_string(id.value()) + "|" +
                             std::to_string(pid.value()) + "|failed",
                         /*durable=*/false);
      continue;
    }
    p.state = ParticipantState::kEnded;
    (void)AppendRecord("ba|acked|" + std::to_string(id.value()) + "|" +
                           std::to_string(pid.value()) + "|" + order_kind,
                       /*durable=*/false);
    if (CrashAt("wsba-post-notify")) {
      return Status::Unavailable("coordinator crashed after notify");
    }
  }
  if (!all_reachable) {
    return Status::Unavailable(
        "participants unreachable; decision durable, re-drive later");
  }

  bool any_failed = false;
  for (const auto& [pid, p] : activity->participants) {
    (void)pid;
    if (p.order_failed) any_failed = true;
  }
  ActivityOutcome outcome;
  if (any_failed) {
    outcome = ActivityOutcome::kMixed;
  } else if (activity->decision == ActivityDecision::kClose) {
    outcome = ActivityOutcome::kClosed;
  } else {
    outcome = ActivityOutcome::kCompensated;
  }
  if (CrashAt("wsba-pre-ended")) {
    return Status::Unavailable("coordinator crashed before ended record");
  }
  PROMISES_RETURN_IF_ERROR(AppendRecord(
      "ba|ended|" + std::to_string(id.value()) + "|" +
          std::string(ActivityOutcomeToString(outcome)),
      /*durable=*/false));
  activity->outcome = outcome;
  WsbaMetrics::Get().open_activities->Sub(1);
  switch (outcome) {
    case ActivityOutcome::kClosed:
      WsbaMetrics::Get().outcomes_closed->Increment();
      break;
    case ActivityOutcome::kCompensated:
      WsbaMetrics::Get().outcomes_compensated->Increment();
      break;
    case ActivityOutcome::kMixed:
      WsbaMetrics::Get().outcomes_mixed->Increment();
      break;
    case ActivityOutcome::kOpen:
      break;
  }
  return outcome;
}

Result<ActivityOutcome> BusinessActivityCoordinator::CloseActivity(
    ActivityId activity) {
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "wsba-close");
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return Status::Unavailable("coordinator crashed");
  auto it = activities_.find(activity);
  if (it == activities_.end()) {
    return Status::NotFound("unknown activity " + activity.ToString());
  }
  Activity& act = it->second;
  if (act.outcome != ActivityOutcome::kOpen) return act.outcome;
  if (act.decision == ActivityDecision::kCancel) {
    return Status::FailedPrecondition(
        "activity already decided cancel; re-drive instead");
  }
  if (act.decision == ActivityDecision::kClose) {
    return DriveOutcomeLocked(activity, &act);
  }
  if (act.faulted) {
    return Status::FailedPrecondition(
        "activity has faulted participants; cancel it instead");
  }
  for (auto& [id, p] : act.participants) {
    if (p.state == ParticipantState::kActive) {
      return Status::FailedPrecondition(
          "participant " + id.ToString() +
          " is still active; it must complete or exit before close");
    }
  }
  return DecideLocked(activity, &act, ActivityDecision::kClose);
}

Result<ActivityOutcome> BusinessActivityCoordinator::CancelActivity(
    ActivityId activity) {
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "wsba-cancel");
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return Status::Unavailable("coordinator crashed");
  auto it = activities_.find(activity);
  if (it == activities_.end()) {
    return Status::NotFound("unknown activity " + activity.ToString());
  }
  Activity& act = it->second;
  if (act.outcome != ActivityOutcome::kOpen) return act.outcome;
  if (act.decision == ActivityDecision::kClose) {
    return Status::FailedPrecondition(
        "activity already decided close; re-drive instead");
  }
  if (act.decision == ActivityDecision::kCancel) {
    return DriveOutcomeLocked(activity, &act);
  }
  return DecideLocked(activity, &act, ActivityDecision::kCancel);
}

Result<ActivityOutcome> BusinessActivityCoordinator::ReDrive(
    ActivityId activity) {
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "wsba-redrive");
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return Status::Unavailable("coordinator crashed");
  auto it = activities_.find(activity);
  if (it == activities_.end()) {
    return Status::NotFound("unknown activity " + activity.ToString());
  }
  Activity& act = it->second;
  if (act.outcome != ActivityOutcome::kOpen) return act.outcome;
  if (act.decision == ActivityDecision::kNone) {
    return Status::FailedPrecondition(
        "no durable decision to re-drive; close or cancel it");
  }
  return DriveOutcomeLocked(activity, &act);
}

std::vector<ActivityId> BusinessActivityCoordinator::UnresolvedActivities()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ActivityId> out;
  for (const auto& [id, act] : activities_) {
    if (act.outcome == ActivityOutcome::kOpen) out.push_back(id);
  }
  return out;
}

Result<ParticipantState> BusinessActivityCoordinator::StateOf(
    ActivityId activity, ParticipantId participant) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = activities_.find(activity);
  if (it == activities_.end()) {
    return Status::NotFound("unknown activity " + activity.ToString());
  }
  auto pit = it->second.participants.find(participant);
  if (pit == it->second.participants.end()) {
    return Status::NotFound("unknown participant " + participant.ToString());
  }
  return pit->second.state;
}

Result<ActivityOutcome> BusinessActivityCoordinator::OutcomeOf(
    ActivityId activity) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = activities_.find(activity);
  if (it == activities_.end()) {
    return Status::NotFound("unknown activity " + activity.ToString());
  }
  return it->second.outcome;
}

Result<ActivityDecision> BusinessActivityCoordinator::DecisionOf(
    ActivityId activity) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = activities_.find(activity);
  if (it == activities_.end()) {
    return Status::NotFound("unknown activity " + activity.ToString());
  }
  return it->second.decision;
}

size_t BusinessActivityCoordinator::ParticipantCount(
    ActivityId activity) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = activities_.find(activity);
  return it == activities_.end() ? 0 : it->second.participants.size();
}

bool BusinessActivityCoordinator::HasFault(ActivityId activity) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = activities_.find(activity);
  return it != activities_.end() && it->second.faulted;
}

void BusinessActivityCoordinator::LoadRecoveredRecords(
    const std::vector<LogRecord>& records) {
  uint64_t max_activity = 0;
  uint64_t max_participant = 0;
  for (const LogRecord& record : records) {
    std::vector<std::string> f = Split(record.payload, '|');
    if (f.size() < 3 || f[0] != "ba") continue;
    const std::string& op = f[1];
    ActivityId aid(FieldId(f[2]));
    if (!aid.valid()) continue;
    max_activity = std::max(max_activity, aid.value());
    if (op == "create") {
      activities_[aid] = Activity{};
      WsbaMetrics::Get().open_activities->Add(1);
      continue;
    }
    auto ait = activities_.find(aid);
    if (ait == activities_.end()) continue;
    Activity& act = ait->second;
    if (op == "register" && f.size() >= 5) {
      ParticipantId pid(FieldId(f[3]));
      if (!pid.valid()) continue;
      max_participant = std::max(max_participant, pid.value());
      act.participants[pid] = Participant{f[4], ParticipantState::kActive};
    } else if (op == "signal" && f.size() >= 5) {
      auto pit = act.participants.find(ParticipantId(FieldId(f[3])));
      if (pit == act.participants.end()) continue;
      if (f[4] == "completed") {
        pit->second.state = ParticipantState::kCompleted;
      } else if (f[4] == "exit") {
        pit->second.state = ParticipantState::kExited;
      } else if (f[4] == "fault") {
        pit->second.state = ParticipantState::kFaulted;
        act.faulted = true;
      }
    } else if (op == "decision" && f.size() >= 4) {
      act.decision = f[3] == "close" ? ActivityDecision::kClose
                                     : ActivityDecision::kCancel;
    } else if (op == "acked" && f.size() >= 5) {
      auto pit = act.participants.find(ParticipantId(FieldId(f[3])));
      if (pit == act.participants.end()) continue;
      if (f[4] == "failed") {
        pit->second.state = ParticipantState::kFaulted;
        pit->second.order_failed = true;
        act.faulted = true;
      } else {
        pit->second.state = ParticipantState::kEnded;
      }
    } else if (op == "ended" && f.size() >= 4) {
      ActivityOutcome outcome = ActivityOutcome::kOpen;
      if (f[3] == "closed") outcome = ActivityOutcome::kClosed;
      else if (f[3] == "compensated") outcome = ActivityOutcome::kCompensated;
      else if (f[3] == "mixed") outcome = ActivityOutcome::kMixed;
      if (outcome != ActivityOutcome::kOpen &&
          act.outcome == ActivityOutcome::kOpen) {
        act.outcome = outcome;
        WsbaMetrics::Get().open_activities->Sub(1);
      }
    }
  }
  // Pin past the replayed maxima so new ids never collide with
  // recovered ones.
  activity_ids_.Pin(max_activity + 1);
  participant_ids_.Pin(max_participant + 1);
}

CoordinatorRecovery BusinessActivityCoordinator::ReDriveUnresolvedLocked() {
  CoordinatorRecovery recovery;
  recovery.activities = activities_.size();
  for (auto& [id, act] : activities_) {
    if (act.outcome != ActivityOutcome::kOpen) {
      ++recovery.already_ended;
      continue;
    }
    const bool undecided = act.decision == ActivityDecision::kNone;
    Result<ActivityOutcome> driven =
        undecided
            // Presumed abort: no durable decision means no Close was
            // ever sent, so Cancel is always safe.
            ? DecideLocked(id, &act, ActivityDecision::kCancel)
            : DriveOutcomeLocked(id, &act);
    if (!driven.ok()) recovery.complete = false;
    if (undecided) {
      ++recovery.presumed_abort;
      WsbaMetrics::Get().presumed_aborts->Increment();
    } else {
      ++recovery.redriven;
    }
    if (crashed_) break;  // a crash point fired during recovery itself
  }
  return recovery;
}

Result<CoordinatorRecovery> RecoverCoordinator(
    BusinessActivityCoordinator* coordinator, const std::string& log_path) {
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "wsba-recover");
  LogScanStats stats;
  PROMISES_ASSIGN_OR_RETURN(
      std::vector<LogRecord> records,
      OperationLog::ReadForRecovery(log_path, &stats,
                                    /*allow_mid_log_corruption=*/false));
  std::lock_guard<std::mutex> lk(coordinator->mu_);
  if (!coordinator->activities_.empty()) {
    return Status::FailedPrecondition(
        "recover into a fresh coordinator, not one already serving");
  }
  coordinator->LoadRecoveredRecords(records);
  CoordinatorRecovery recovery = coordinator->ReDriveUnresolvedLocked();
  WsbaMetrics::Get().recovered_activities->Increment(recovery.activities);
  return recovery;
}

// ---- Participant -----------------------------------------------------

BusinessActivityParticipant::BusinessActivityParticipant(
    std::string endpoint, Transport* transport, Callbacks callbacks,
    ParticipantOptions options)
    : endpoint_(std::move(endpoint)),
      transport_(transport),
      callbacks_(std::move(callbacks)),
      options_(options),
      retry_rng_(options.retry_seed) {
  if (options_.clock == nullptr) {
    owned_clock_ = std::make_unique<SystemClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = options_.clock;
  }
  if (options_.retry.clock == nullptr) options_.retry.clock = clock_;
  transport_->Register(endpoint_, [this](const Envelope& env) {
    return HandleOrder(env);
  });
}

BusinessActivityParticipant::~BusinessActivityParticipant() {
  transport_->Unregister(endpoint_);
}

Status BusinessActivityParticipant::AppendRecord(const std::string& payload) {
  if (options_.log == nullptr) return Status::OK();
  PROMISES_ASSIGN_OR_RETURN(
      uint64_t seq,
      options_.log->AppendOperation(clock_, payload, /*promise_id=*/0));
  return options_.log->WaitDurable(seq);
}

void BusinessActivityParticipant::Enlist(
    const std::string& coordinator_endpoint, ActivityId activity,
    ParticipantId id) {
  std::lock_guard<std::mutex> lk(mu_);
  Enlistment& e = enlistments_[activity.value()];
  e.id = id;
  e.coordinator = coordinator_endpoint;
  current_ = activity;
  (void)AppendRecord("bp|enlist|" + endpoint_ + "|" +
                     std::to_string(activity.value()) + "|" +
                     std::to_string(id.value()) + "|" + coordinator_endpoint);
}

Status BusinessActivityParticipant::Signal(ActivityId activity,
                                           const std::string& kind,
                                           const std::string& detail) {
  std::string coordinator;
  ParticipantId id;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = enlistments_.find(activity.value());
    if (it == enlistments_.end()) {
      return Status::FailedPrecondition("participant not enlisted");
    }
    coordinator = it->second.coordinator;
    id = it->second.id;
    if (kind == "completed") it->second.completed = true;
  }
  if (kind == "completed") {
    // Write-ahead vote: the durable completed record is what tells a
    // restarted participant its work still needs undoing, so it must
    // hit the log before the coordinator can learn of the completion.
    PROMISES_RETURN_IF_ERROR(AppendRecord(
        "bp|completed|" + endpoint_ + "|" + std::to_string(activity.value())));
  }
  WsbaMetrics::Get().signals->Increment();
  Envelope env = ProtocolMessage(transport_, endpoint_, coordinator, kind,
                                 activity, id, detail);
  // mu_ is NOT held across the send: the coordinator may concurrently
  // hold its own lock while ordering this participant, and the
  // in-process transport runs handlers on the caller's thread.
  Result<Envelope> reply = CallWithRetry(
      options_.retry, &retry_rng_, [&] { return transport_->Send(env); },
      /*retries=*/nullptr, [&] { transport_->NoteRetry(coordinator); });
  PROMISES_RETURN_IF_ERROR(reply.status());
  if (!reply->action_result || !reply->action_result->ok) {
    return Status::FailedPrecondition(
        "coordinator refused '" + kind + "': " +
        (reply->action_result ? reply->action_result->error : "no result"));
  }
  return Status::OK();
}

Status BusinessActivityParticipant::SignalCompleted() {
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "wsba-complete");
  ActivityId target;
  {
    std::lock_guard<std::mutex> lk(mu_);
    target = current_;
  }
  return Signal(target, "completed", "");
}

Status BusinessActivityParticipant::SignalCompleted(ActivityId activity) {
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "wsba-complete");
  return Signal(activity, "completed", "");
}

Status BusinessActivityParticipant::SignalExit() {
  ActivityId target;
  {
    std::lock_guard<std::mutex> lk(mu_);
    target = current_;
  }
  return Signal(target, "exit", "");
}

Status BusinessActivityParticipant::SignalFault(const std::string& reason) {
  ActivityId target;
  {
    std::lock_guard<std::mutex> lk(mu_);
    target = current_;
  }
  return Signal(target, "fault", reason);
}

std::string BusinessActivityParticipant::EffectiveOrder(
    const Enlistment& enlistment, const std::string& kind) {
  // Cancel of an enlistment that already completed means the
  // coordinator decided abort after our vote: the work exists and must
  // be undone, so the cancel is executed as a compensate.
  return kind == "cancel" && enlistment.completed ? "compensate" : kind;
}

Status BusinessActivityParticipant::RunClaimedOrder(
    ActivityId activity, const std::string& effective) {
  Status st = Status::OK();
  if (effective == "close") {
    if (callbacks_.on_close) st = callbacks_.on_close();
  } else if (effective == "compensate") {
    if (callbacks_.on_compensate) st = callbacks_.on_compensate();
  } else {  // cancel of never-completed work
    if (callbacks_.on_cancel) callbacks_.on_cancel();
  }
  // Durable before the ack: once the coordinator hears "done" it will
  // never re-send, so losing this record to a crash would strand a
  // retransmitted order with no dedup memory and re-run the callback.
  if (st.ok()) {
    st = AppendRecord("bp|done|" + endpoint_ + "|" +
                      std::to_string(activity.value()) + "|" + effective);
  }
  std::lock_guard<std::mutex> lk(mu_);
  Enlistment& e = enlistments_[activity.value()];
  e.running = false;
  if (st.ok()) e.executed = effective;
  return st;
}

Result<Envelope> BusinessActivityParticipant::HandleOrder(
    const Envelope& envelope) {
  if (!envelope.action || envelope.action->service != kService) {
    return Status::InvalidArgument("not a wsba protocol message");
  }
  const ActionBody& action = *envelope.action;
  const std::string& kind = action.operation;
  if (kind != "close" && kind != "compensate" && kind != "cancel") {
    return Ack(transport_, envelope, false, "unknown order '" + kind + "'");
  }
  auto aid = action.params.find("activity");
  if (aid == action.params.end()) {
    return Status::InvalidArgument("wsba order missing activity id");
  }
  ActivityId activity(static_cast<uint64_t>(aid->second.as_int()));

  std::string effective;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = enlistments_.find(activity.value());
    if (it == enlistments_.end()) {
      if (kind == "close") {
        // A Close can only follow our own Completed signal, which can
        // only follow a durable enlistment — an unknown activity here is
        // a protocol error, not an amnesiac restart.
        return Ack(transport_, envelope, false,
                   "close for unknown activity " + activity.ToString());
      }
      // Presumed abort from the participant's side: no durable
      // enlistment means no completed work, so there is nothing to undo
      // and the cancel/compensate can be acked as done.
      return Ack(transport_, envelope, true);
    }
    Enlistment& e = it->second;
    effective = EffectiveOrder(e, kind);
    if (!e.executed.empty()) {
      if (e.executed == effective) {
        // Retransmitted order (lost ack, duplicated delivery, re-drive
        // after coordinator crash): ack without re-running the callback.
        WsbaMetrics::Get().order_dedup->Increment();
        return Ack(transport_, envelope, true);
      }
      return Ack(transport_, envelope, false,
                 "conflicting order '" + kind + "' after '" + e.executed +
                     "'");
    }
    // A retransmission racing the running callback must not run it
    // twice; the coordinator retries and then finds it executed.
    if (e.running) return OrderRunning(activity);
    e.running = true;
  }
  Status st = RunClaimedOrder(activity, effective);
  return Ack(transport_, envelope, st.ok(), st.ok() ? "" : st.ToString());
}

Result<ActivityOutcome> BusinessActivityParticipant::QueryOutcome() {
  ActivityId target;
  {
    std::lock_guard<std::mutex> lk(mu_);
    target = current_;
  }
  return QueryOutcome(target);
}

Result<ActivityOutcome> BusinessActivityParticipant::QueryOutcome(
    ActivityId activity) {
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "wsba-outcome-query");
  std::string coordinator;
  ParticipantId id;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = enlistments_.find(activity.value());
    if (it == enlistments_.end()) {
      return Status::FailedPrecondition("participant not enlisted");
    }
    coordinator = it->second.coordinator;
    id = it->second.id;
  }
  Envelope env = ProtocolMessage(transport_, endpoint_, coordinator,
                                 "get_outcome", activity, id);
  Result<Envelope> reply = CallWithRetry(
      options_.retry, &retry_rng_, [&] { return transport_->Send(env); },
      /*retries=*/nullptr, [&] { transport_->NoteRetry(coordinator); });
  PROMISES_RETURN_IF_ERROR(reply.status());
  if (!reply->action_result || !reply->action_result->ok) {
    return Status::Internal("get_outcome refused: " +
                            (reply->action_result ? reply->action_result->error
                                                  : "no result"));
  }
  const auto& outputs = reply->action_result->outputs;
  auto known_it = outputs.find("known");
  auto decision_it = outputs.find("decision");
  bool known = known_it != outputs.end() && known_it->second.as_bool();
  std::string decision =
      decision_it != outputs.end() ? decision_it->second.as_string() : "none";

  // Unknown activity = the coordinator never durably decided =
  // presumed abort. Same local action as an explicit cancel.
  const bool abort = !known || decision == "cancel";
  if (!abort && decision != "close") {
    // Undecided: still open; re-query after the coordinator's
    // retry_after_ms hint.
    return ActivityOutcome::kOpen;
  }
  std::string effective;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = enlistments_.find(activity.value());
    if (it == enlistments_.end()) {
      return Status::FailedPrecondition("participant not enlisted");
    }
    Enlistment& e = it->second;
    if (e.executed.empty()) {
      if (e.running) return OrderRunning(activity);
      e.running = true;
      effective = EffectiveOrder(e, abort ? "cancel" : "close");
    }
  }
  if (!effective.empty()) {
    PROMISES_RETURN_IF_ERROR(RunClaimedOrder(activity, effective));
  }
  return abort ? ActivityOutcome::kCompensated : ActivityOutcome::kClosed;
}

Status BusinessActivityParticipant::OrderRunning(ActivityId activity) {
  return Status::Unavailable("an outcome order for activity " +
                             activity.ToString() + " is running");
}

std::string BusinessActivityParticipant::ExecutedOutcome(
    ActivityId activity) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = enlistments_.find(activity.value());
  return it == enlistments_.end() ? "" : it->second.executed;
}

Status RecoverParticipant(BusinessActivityParticipant* participant,
                          const std::string& log_path) {
  LogScanStats stats;
  PROMISES_ASSIGN_OR_RETURN(
      std::vector<LogRecord> records,
      OperationLog::ReadForRecovery(log_path, &stats,
                                    /*allow_mid_log_corruption=*/false));
  std::lock_guard<std::mutex> lk(participant->mu_);
  for (const LogRecord& record : records) {
    std::vector<std::string> f = Split(record.payload, '|');
    if (f.size() < 4 || f[0] != "bp" || f[2] != participant->endpoint_) {
      continue;
    }
    const std::string& op = f[1];
    if (op == "enlist" && f.size() >= 6) {
      uint64_t activity = FieldId(f[3]);
      if (activity == 0) continue;
      BusinessActivityParticipant::Enlistment& e =
          participant->enlistments_[activity];
      e.id = ParticipantId(FieldId(f[4]));
      e.coordinator = f[5];
      participant->current_ = ActivityId(activity);
    } else if (op == "completed") {
      auto it = participant->enlistments_.find(FieldId(f[3]));
      if (it != participant->enlistments_.end()) it->second.completed = true;
    } else if (op == "done" && f.size() >= 5) {
      auto it = participant->enlistments_.find(FieldId(f[3]));
      if (it != participant->enlistments_.end()) it->second.executed = f[4];
    }
  }
  return Status::OK();
}

}  // namespace promises

#include "shard/router.h"

#include <optional>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "predicate/parser.h"

namespace promises {

namespace {

struct ShardMetrics {
  Counter* fast_path_grants;
  Counter* federated_grants;
  Counter* federated_rejects;
  Counter* intent_probes;
  Counter* orphan_releases;

  static ShardMetrics& Get() {
    static ShardMetrics m{
        MetricsRegistry::Global().GetCounter("promises_shard_fast_path_total"),
        MetricsRegistry::Global().GetCounter("promises_shard_federated_total"),
        MetricsRegistry::Global().GetCounter(
            "promises_shard_federated_rejects_total"),
        MetricsRegistry::Global().GetCounter(
            "promises_shard_intent_probes_total"),
        MetricsRegistry::Global().GetCounter(
            "promises_shard_orphan_releases_total"),
    };
    return m;
  }
};

/// Roots a span when no ambient context exists (direct API use),
/// parents under it otherwise (traced workload) — wsba idiom.
void BeginOpSpan(std::optional<ScopedSpan>& span, std::string_view name) {
  if (CurrentTraceContext() != nullptr) {
    span.emplace(name);
  } else {
    span.emplace(Tracer::Global().StartTrace(), name);
  }
}

std::string PredicateListText(const std::vector<Predicate>& predicates) {
  std::vector<std::string> parts;
  parts.reserve(predicates.size());
  for (const Predicate& p : predicates) parts.push_back(p.ToString());
  return Join(parts, "; ");
}

std::string PromiseIdListText(const std::vector<PromiseId>& ids) {
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (PromiseId id : ids) parts.push_back(std::to_string(id.value()));
  return Join(parts, ";");
}

bool ParseU64Field(const std::string& field, uint64_t* out) {
  Result<int64_t> parsed = ParseInt64(field);
  if (!parsed.ok() || *parsed < 0) return false;
  *out = static_cast<uint64_t>(*parsed);
  return true;
}

CoordinatorOptions CoordOptionsFor(const ShardRouterOptions& options,
                                   Clock* clock) {
  CoordinatorOptions c;
  c.log = options.log;
  c.clock = clock;
  c.retry = options.retry;
  c.retry_seed = options.retry_seed * 17 + 1;
  c.crash_points = options.crash_points;
  return c;
}

}  // namespace

// --------------------------------------------------------------------
// FederatedGrantCoordinator

FederatedGrantCoordinator::FederatedGrantCoordinator(
    const ShardRouterOptions& options)
    : options_(options),
      owned_clock_(options.clock == nullptr ? std::make_unique<SystemClock>()
                                            : nullptr),
      clock_(options.clock != nullptr ? options.clock : owned_clock_.get()),
      coordinator_(options.name + "/ba", options.control,
                   CoordOptionsFor(options, clock_)) {}

FederatedGrantCoordinator::~FederatedGrantCoordinator() = default;

std::string FederatedGrantCoordinator::AgentEndpoint(uint64_t activity,
                                                     int shard) const {
  return options_.name + "/a" + std::to_string(activity) + "/s" +
         std::to_string(shard);
}

Status FederatedGrantCoordinator::AppendRecord(const std::string& payload,
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

bool FederatedGrantCoordinator::CrashAt(const char* point) {
  if (options_.crash_points == nullptr) return false;
  if (!options_.crash_points->AtCrashPoint(point)) return false;
  crashed_.store(true, std::memory_order_release);
  coordinator_.SimulateCrash();
  return true;
}

void FederatedGrantCoordinator::SimulateCrash() {
  crashed_.store(true, std::memory_order_release);
  coordinator_.SimulateCrash();
}

Result<Envelope> FederatedGrantCoordinator::CallShard(
    int shard, const Envelope& envelope) {
  if (shard < 0 || shard >= static_cast<int>(options_.channels.size())) {
    return Status::InvalidArgument("no channel for shard " +
                                   std::to_string(shard));
  }
  Rng rng(options_.retry_seed * 1000003 +
          call_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  uint64_t retries = 0;
  Result<Envelope> out = CallWithRetry(
      options_.retry, &rng,
      [&]() -> Result<Envelope> { return options_.channels[shard](envelope); },
      &retries);
  shard_retransmissions_.fetch_add(retries, std::memory_order_relaxed);
  return out;
}

Status FederatedGrantCoordinator::ReleaseShardGrants(uint64_t activity,
                                                     int shard) {
  std::vector<PromiseId> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = worlds_.find(activity);
    if (it == worlds_.end()) return Status::OK();
    auto g = it->second.grants.find(shard);
    if (g == it->second.grants.end()) return Status::OK();
    ids = g->second;
  }
  if (ids.empty()) return Status::OK();
  Envelope env;
  env.message_id = options_.control->NextMessageId();
  env.from = options_.name;
  env.to = options_.topology.endpoint(shard);
  RouteHeader route;
  route.shard = shard;
  route.topology_version = options_.topology.version();
  env.route = route;
  ReleaseHeader release;
  release.promises = std::move(ids);
  env.release = std::move(release);
  PROMISES_ASSIGN_OR_RETURN(Envelope reply, CallShard(shard, env));
  (void)reply;  // Release replies carry no payload; unknown ids skipped.
  return Status::OK();
}

std::unique_ptr<BusinessActivityParticipant>
FederatedGrantCoordinator::BuildAgent(uint64_t activity, int shard) {
  BusinessActivityParticipant::Callbacks callbacks;
  // Close confirms the grant: the promises stay with the caller.
  callbacks.on_close = [] { return Status::OK(); };
  // Compensate undoes a completed sub-grant; cancel catches the window
  // where the grant was journaled but the completed vote never made it
  // (best-effort — an unreachable shard leaves the lease expiry as the
  // backstop). Both are idempotent: released ids are unknown to the
  // shard afterwards and silently skipped.
  callbacks.on_compensate = [this, activity, shard] {
    return ReleaseShardGrants(activity, shard);
  };
  callbacks.on_cancel = [this, activity, shard] {
    (void)ReleaseShardGrants(activity, shard);
  };
  ParticipantOptions popts;
  popts.log = options_.log;
  popts.clock = clock_;
  popts.retry = options_.retry;
  popts.retry_seed =
      options_.retry_seed * 31 + activity * 7 + static_cast<uint64_t>(shard);
  return std::make_unique<BusinessActivityParticipant>(
      AgentEndpoint(activity, shard), options_.control, std::move(callbacks),
      popts);
}

Result<ParticipantId> FederatedGrantCoordinator::MakeAgent(
    ActivityId activity, int shard) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    World& world = worlds_[activity.value()];
    auto existing = world.enlistments.find(shard);
    if (existing != world.enlistments.end()) return existing->second;
  }
  // Build, register and enlist with mu_ released: the WS-BA side runs
  // our compensation callbacks under its own locks, and they take mu_
  // (ReleaseShardGrants), so holding mu_ across these calls would
  // close a lock-order cycle.
  std::unique_ptr<BusinessActivityParticipant> agent =
      BuildAgent(activity.value(), shard);
  PROMISES_ASSIGN_OR_RETURN(ParticipantId pid,
                            coordinator_.Register(activity, agent->endpoint()));
  agent->Enlist(coordinator_.endpoint(), activity, pid);
  std::lock_guard<std::mutex> lock(mu_);
  World& world = worlds_[activity.value()];
  auto [it, fresh] = world.enlistments.emplace(shard, pid);
  if (fresh) {
    world.agents[shard] = std::move(agent);
  } else {
    // A racing enlister got there first. Register is idempotent per
    // endpoint, so both agents hold the same participant id; keep ours
    // alive with the world, since destroying it would unregister the
    // endpoint the two share.
    world.spare_agents.push_back(std::move(agent));
  }
  return it->second;
}

void FederatedGrantCoordinator::NoteResolved(ActivityId activity) {
  Result<ActivityOutcome> outcome = coordinator_.OutcomeOf(activity);
  if (!outcome.ok()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (*outcome) {
      case ActivityOutcome::kClosed:
        ++tally_.closed;
        break;
      case ActivityOutcome::kCompensated:
        ++tally_.compensated;
        break;
      case ActivityOutcome::kMixed:
        ++tally_.mixed;
        break;
      case ActivityOutcome::kOpen:
        return;  // Still owed work; keep the world alive.
    }
    worlds_.erase(activity.value());  // Agents unregister: safe, resolved.
  }
  (void)AppendRecord("fg|resolved|" + std::to_string(activity.value()) + "|" +
                         std::string(ActivityOutcomeToString(*outcome)),
                     /*durable=*/false);
}

Result<RoutedGrant> FederatedGrantCoordinator::Grant(
    const std::map<int, std::vector<Predicate>>& by_shard,
    DurationMs duration_ms) {
  if (crashed()) return Status::Unavailable("shard router crashed");
  if (options_.log == nullptr) {
    return Status::FailedPrecondition(
        "federated grants need a journal (ShardRouterOptions.log)");
  }
  if (by_shard.size() < 2) {
    return Status::InvalidArgument("federated grant needs >= 2 shards");
  }
  DurationMs duration =
      duration_ms > 0 ? duration_ms : options_.default_duration_ms;
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "fedgrant");

  ActivityId activity = coordinator_.CreateActivity();
  if (activity.value() == 0) {
    return Status::Unavailable("activity creation failed");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    worlds_[activity.value()];
  }

  std::string reject;
  Status infra = Status::OK();
  for (const auto& [shard, predicates] : by_shard) {
    if (shard < 0 || shard >= options_.topology.num_shards()) {
      infra = Status::InvalidArgument("shard " + std::to_string(shard) +
                                      " out of topology range");
      break;
    }
    Result<ParticipantId> pid = MakeAgent(activity, shard);
    if (!pid.ok()) {
      infra = pid.status();
      break;
    }
    // Durable intent BEFORE the sub-grant leaves: a twin can replay
    // the identical envelope (same from + message id) and the shard's
    // dedup table makes the probe exactly-once.
    MessageId msgid = options_.control->NextMessageId();
    Status logged = AppendRecord(
        "fg|intent|" + std::to_string(activity.value()) + "|" +
            std::to_string(shard) + "|" + std::to_string(msgid.value()) + "|" +
            std::to_string(duration) + "|" + PredicateListText(predicates),
        /*durable=*/true);
    if (!logged.ok()) {
      infra = logged;
      break;
    }
    if (CrashAt("fedgrant-pre-subgrant")) {
      return Status::Unavailable("router crashed at fedgrant-pre-subgrant");
    }
    Envelope env;
    env.message_id = msgid;
    env.from = options_.name;
    env.to = options_.topology.endpoint(shard);
    RouteHeader route;
    route.shard = shard;
    route.topology_version = options_.topology.version();
    env.route = route;
    PromiseRequestHeader req;
    req.request_id = request_ids_.Next();
    req.predicates = predicates;
    req.duration_ms = duration;
    env.promise_request = std::move(req);

    Result<Envelope> reply = CallShard(shard, env);
    if (!reply.ok()) {
      reject = "shard " + std::to_string(shard) +
               " unreachable: " + reply.status().ToString();
      break;
    }
    if (!reply->promise_response) {
      reject = "shard " + std::to_string(shard) + " sent no promise-response";
      break;
    }
    const PromiseResponseHeader& resp = *reply->promise_response;
    if (resp.result != PromiseResultCode::kAccepted) {
      reject = "shard " + std::to_string(shard) + ": " +
               (resp.reason.empty() ? "rejected" : resp.reason);
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      worlds_[activity.value()].grants[shard].push_back(resp.promise_id);
    }
    // Durable grant record BEFORE the completed vote: compensation
    // always knows the ids it must release.
    logged = AppendRecord("fg|grant|" + std::to_string(activity.value()) +
                              "|" + std::to_string(shard) + "|" +
                              PromiseIdListText({resp.promise_id}),
                          /*durable=*/true);
    if (!logged.ok()) {
      infra = logged;
      break;
    }
    if (CrashAt("fedgrant-post-subgrant")) {
      return Status::Unavailable("router crashed at fedgrant-post-subgrant");
    }
    BusinessActivityParticipant* agent = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      agent = worlds_[activity.value()].agents[shard].get();
    }
    Status completed = agent->SignalCompleted(activity);
    if (!completed.ok()) {
      reject = "shard " + std::to_string(shard) +
               " completion signal: " + completed.ToString();
      break;
    }
  }

  if (!infra.ok()) {
    (void)coordinator_.CancelActivity(activity);
    NoteResolved(activity);
    if (span) span->set_status("infra-error");
    return infra;
  }

  RoutedGrant out;
  out.federated = true;
  out.activity = activity.value();
  if (reject.empty()) {
    Result<ActivityOutcome> closed = coordinator_.CloseActivity(activity);
    if (!closed.ok() &&
        closed.status().code() != StatusCode::kUnavailable) {
      if (span) span->set_status("close-failed");
      return closed.status();
    }
    // kUnavailable = decision durable, some acks pending: the grant
    // stands; ReDriveUnresolved finishes the fan-out later.
    out.granted = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out.promises = worlds_[activity.value()].grants;
    }
    NoteResolved(activity);
    ShardMetrics::Get().federated_grants->Increment();
    if (span) span->set_status("granted");
    return out;
  }
  // A shard said no (or went silent): cancel. Completed agents
  // compensate (releasing their sub-grants); never-completed ones get
  // cancel, which releases any journaled-but-unvoted grant.
  (void)coordinator_.CancelActivity(activity);
  NoteResolved(activity);
  out.granted = false;
  out.reject_reason = reject;
  ShardMetrics::Get().federated_rejects->Increment();
  if (span) span->set_status("rejected");
  return out;
}

size_t FederatedGrantCoordinator::ReDriveUnresolved(int max_rounds) {
  for (int round = 0; round < max_rounds; ++round) {
    std::vector<ActivityId> open = coordinator_.UnresolvedActivities();
    if (open.empty()) break;
    for (ActivityId activity : open) {
      (void)coordinator_.ReDrive(activity);
      NoteResolved(activity);
    }
  }
  return coordinator_.UnresolvedActivities().size();
}

FederatedGrantCoordinator::OutcomeTally FederatedGrantCoordinator::tally()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_;
}

Result<FederatedGrantCoordinator::RecoveryReport>
FederatedGrantCoordinator::Recover() {
  if (options_.log == nullptr || options_.log_path.empty()) {
    return Status::FailedPrecondition(
        "recovery needs ShardRouterOptions.log + log_path");
  }
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "fedgrant-recover");
  RecoveryReport report;
  LogScanStats scan_stats;
  PROMISES_ASSIGN_OR_RETURN(
      std::vector<LogRecord> records,
      OperationLog::ReadForRecovery(options_.log_path, &scan_stats));

  struct Intent {
    uint64_t msgid = 0;
    DurationMs duration = 0;
    std::string predicates;
    bool granted = false;
  };
  struct Rec {
    std::map<int, Intent> intents;
    std::map<int, std::vector<PromiseId>> grants;
    bool resolved = false;
  };
  std::map<uint64_t, Rec> recs;
  for (const LogRecord& record : records) {
    std::vector<std::string> f = Split(record.payload, '|');
    if (f.size() < 3 || f[0] != "fg") continue;
    uint64_t aid = 0;
    if (!ParseU64Field(f[2], &aid)) continue;
    if (f[1] == "intent" && f.size() >= 7) {
      uint64_t shard = 0, msgid = 0, duration = 0;
      if (!ParseU64Field(f[3], &shard) || !ParseU64Field(f[4], &msgid) ||
          !ParseU64Field(f[5], &duration)) {
        continue;
      }
      Intent& intent = recs[aid].intents[static_cast<int>(shard)];
      intent.msgid = msgid;
      intent.duration = static_cast<DurationMs>(duration);
      // Predicate text may itself contain '|' (the OR operator):
      // rejoin everything after the fixed fields.
      intent.predicates =
          Join(std::vector<std::string>(f.begin() + 6, f.end()), "|");
    } else if (f[1] == "grant" && f.size() == 5) {
      uint64_t shard = 0;
      if (!ParseU64Field(f[3], &shard)) continue;
      Rec& rec = recs[aid];
      rec.intents[static_cast<int>(shard)].granted = true;
      std::vector<PromiseId>& ids = rec.grants[static_cast<int>(shard)];
      ids.clear();
      for (const std::string& id_text : Split(f[4], ';')) {
        uint64_t value = 0;
        if (ParseU64Field(id_text, &value)) ids.push_back(PromiseId(value));
      }
    } else if (f[1] == "resolved") {
      recs[aid].resolved = true;
    }
  }

  // Rebuild the conversation worlds for unresolved activities so the
  // coming decision-log replay can reach their agents. Endpoints are
  // deterministic, so the twin's agents answer for the corpse's.
  std::vector<std::pair<uint64_t, int>> rebuilt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [aid, rec] : recs) {
      if (rec.resolved) continue;
      World& world = worlds_[aid];
      world.grants = rec.grants;
      for (const auto& [shard, intent] : rec.intents) {
        (void)intent;
        world.agents[shard] = BuildAgent(aid, shard);
        rebuilt.emplace_back(aid, shard);
      }
      ++report.worlds_rebuilt;
    }
  }
  for (const auto& [aid, shard] : rebuilt) {
    BusinessActivityParticipant* agent = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      agent = worlds_[aid].agents[shard].get();
    }
    PROMISES_RETURN_IF_ERROR(RecoverParticipant(agent, options_.log_path));
  }

  // Probe dangling intents (journaled, no grant record) with the
  // corpse's exact envelope: the shard's dedup table replays the
  // cached reply if the sub-grant landed, or executes it fresh —
  // either way the twin now holds the promise and releases it, since
  // an undecided activity is presumed aborted.
  for (const auto& [aid, rec] : recs) {
    if (rec.resolved) continue;
    for (const auto& [shard, intent] : rec.intents) {
      if (intent.granted) continue;
      ++report.intents_probed;
      ShardMetrics::Get().intent_probes->Increment();
      Result<std::vector<Predicate>> predicates =
          ParsePredicateList(intent.predicates);
      if (!predicates.ok()) continue;
      Envelope env;
      env.message_id = MessageId(intent.msgid);
      env.from = options_.name;
      env.to = options_.topology.endpoint(shard);
      RouteHeader route;
      route.shard = shard;
      route.topology_version = options_.topology.version();
      env.route = route;
      PromiseRequestHeader req;
      req.request_id = request_ids_.Next();
      req.predicates = std::move(*predicates);
      req.duration_ms = intent.duration;
      env.promise_request = std::move(req);
      Result<Envelope> reply = CallShard(shard, env);
      if (!reply.ok() || !reply->promise_response) continue;
      if (reply->promise_response->result != PromiseResultCode::kAccepted) {
        continue;  // Never landed and cannot land now: nothing to undo.
      }
      Envelope release_env;
      release_env.message_id = options_.control->NextMessageId();
      release_env.from = options_.name;
      release_env.to = options_.topology.endpoint(shard);
      release_env.route = route;
      ReleaseHeader release;
      release.promises = {reply->promise_response->promise_id};
      release_env.release = std::move(release);
      if (CallShard(shard, release_env).ok()) {
        ++report.orphan_releases;
        ShardMetrics::Get().orphan_releases->Increment();
      }
    }
  }

  // Replay the WS-BA decision log: durable decisions re-driven,
  // undecided activities presumed aborted — compensations flow
  // through the rebuilt agents and release journaled sub-grants.
  PROMISES_ASSIGN_OR_RETURN(report.wsba,
                            RecoverCoordinator(&coordinator_,
                                               options_.log_path));
  report.complete = report.wsba.complete;

  // Tear down worlds whose activities are now resolved.
  std::vector<uint64_t> alive;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [aid, world] : worlds_) alive.push_back(aid);
  }
  for (uint64_t aid : alive) NoteResolved(ActivityId(aid));
  return report;
}

// --------------------------------------------------------------------
// ShardRouter

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)) {
  if (options_.control != nullptr) {
    federated_ = std::make_unique<FederatedGrantCoordinator>(options_);
  }
}

Envelope ShardRouter::RoutedEnvelope(int shard) const {
  Envelope env;
  env.message_id = options_.control->NextMessageId();
  env.from = options_.name;
  env.to = options_.topology.endpoint(shard);
  RouteHeader route;
  route.shard = shard;
  route.topology_version = options_.topology.version();
  env.route = route;
  return env;
}

Result<Envelope> ShardRouter::CallShard(int shard, const Envelope& envelope) {
  if (shard < 0 || shard >= static_cast<int>(options_.channels.size())) {
    return Status::InvalidArgument("no channel for shard " +
                                   std::to_string(shard));
  }
  Rng rng(options_.retry_seed * 7919 +
          call_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  return CallWithRetry(options_.retry, &rng, [&]() -> Result<Envelope> {
    return options_.channels[shard](envelope);
  });
}

Result<RoutedGrant> ShardRouter::Request(
    const std::vector<Predicate>& predicates, DurationMs duration_ms) {
  if (options_.control == nullptr || federated_ == nullptr) {
    return Status::FailedPrecondition("router needs a control transport");
  }
  if (federated_->crashed()) {
    return Status::Unavailable("shard router crashed");
  }
  if (predicates.empty()) {
    return Status::InvalidArgument("empty predicate set");
  }
  std::map<int, std::vector<Predicate>> by_shard;
  for (const Predicate& p : predicates) {
    PROMISES_ASSIGN_OR_RETURN(int shard,
                              options_.topology.ShardOf(p.resource_class()));
    by_shard[shard].push_back(p);
  }
  DurationMs duration =
      duration_ms > 0 ? duration_ms : options_.default_duration_ms;

  if (by_shard.size() > 1) {
    PROMISES_ASSIGN_OR_RETURN(RoutedGrant grant,
                              federated_->Grant(by_shard, duration));
    std::lock_guard<std::mutex> lock(mu_);
    if (grant.granted) {
      ++stats_.federated_grants;
    } else {
      ++stats_.rejects;
    }
    return grant;
  }

  // Fast path: one shard, one routed envelope, zero coordination.
  std::optional<ScopedSpan> span;
  BeginOpSpan(span, "shard-fast-grant");
  int shard = by_shard.begin()->first;
  Envelope env = RoutedEnvelope(shard);
  PromiseRequestHeader req;
  req.request_id = request_ids_.Next();
  req.predicates = std::move(by_shard.begin()->second);
  req.duration_ms = duration;
  env.promise_request = std::move(req);
  PROMISES_ASSIGN_OR_RETURN(Envelope reply, CallShard(shard, env));
  if (!reply.promise_response) {
    return Status::Internal("shard sent no promise-response");
  }
  const PromiseResponseHeader& resp = *reply.promise_response;
  RoutedGrant out;
  if (resp.result == PromiseResultCode::kAccepted) {
    out.granted = true;
    out.promises[shard].push_back(resp.promise_id);
    ShardMetrics::Get().fast_path_grants->Increment();
    if (span) span->set_status("granted");
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.fast_path_grants;
  } else {
    out.reject_reason = resp.reason.empty() ? "rejected" : resp.reason;
    if (span) span->set_status("rejected");
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejects;
  }
  return out;
}

Status ShardRouter::Release(const RoutedGrant& grant) {
  Status worst = Status::OK();
  for (const auto& [shard, ids] : grant.promises) {
    if (ids.empty()) continue;
    Envelope env = RoutedEnvelope(shard);
    ReleaseHeader release;
    release.promises = ids;
    env.release = std::move(release);
    Result<Envelope> reply = CallShard(shard, env);
    if (!reply.ok()) worst = reply.status();
  }
  return worst;
}

Result<ActionResultBody> ShardRouter::Act(
    int shard, const ActionBody& action,
    const std::vector<PromiseId>& environment, bool release_after) {
  if (shard < 0 || shard >= options_.topology.num_shards()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of topology range");
  }
  Envelope env = RoutedEnvelope(shard);
  env.action = action;
  if (!environment.empty()) {
    EnvironmentHeader header;
    for (PromiseId id : environment) {
      header.entries.push_back({id, release_after});
    }
    env.environment = std::move(header);
  }
  PROMISES_ASSIGN_OR_RETURN(Envelope reply, CallShard(shard, env));
  if (!reply.action_result) {
    return Status::Internal("shard sent no action-result");
  }
  return *reply.action_result;
}

ShardRouter::Stats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace promises

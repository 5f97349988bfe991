// Twin-world crash matrix for the crash-tolerant WS-BusinessActivity
// coordinator: for every crash point in the outcome fan-out (before
// the decision append, after it, before each participant notification,
// after one, before the ended record) a coordinator is killed mid-
// protocol, a twin is rebuilt from the reopened decision log via
// RecoverCoordinator, and the world must converge to ONE consistent
// outcome — presumed abort when the decision never became durable,
// the decided outcome when it did. Participant-side durability gets
// the same treatment: restarts mid-compensation, duplicate orders,
// outcome queries against an amnesiac coordinator.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/oplog.h"
#include "protocol/fault_injector.h"
#include "wsba/business_activity.h"

namespace promises {
namespace {

class TempLogFile {
 public:
  explicit TempLogFile(const std::string& tag)
      : path_("/tmp/promises_wsba_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log") {
    std::remove(path_.c_str());
  }
  ~TempLogFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Work {
  int closed = 0;
  int compensated = 0;
  int cancelled = 0;
  BusinessActivityParticipant::Callbacks Callbacks() {
    return {
        [this] { ++closed; return Status::OK(); },
        [this] { ++compensated; return Status::OK(); },
        [this] { ++cancelled; },
    };
  }
  int undone() const { return compensated + cancelled; }
};

// One twin-world run: drive a K-participant activity to the brink of
// `decision`, crash the coordinator at `crash_point` (passage
// `passage`), recover a twin from the log and return what the world
// converged to.
struct CrashRunResult {
  bool crashed = false;            ///< The armed point actually fired.
  CoordinatorRecovery recovery;
  ActivityOutcome outcome = ActivityOutcome::kOpen;
  std::vector<std::string> executed;  ///< Per-participant executed order.
  int closes = 0;
  int undos = 0;
};

CrashRunResult RunCrashMatrixCell(const std::string& crash_point,
                                  uint64_t passage, bool close,
                                  size_t participants) {
  TempLogFile file("matrix");
  Transport transport;
  FaultInjector injector;
  CrashRunResult result;

  std::vector<std::unique_ptr<Work>> works;
  std::vector<std::unique_ptr<BusinessActivityParticipant>> parts;
  for (size_t i = 0; i < participants; ++i) {
    works.push_back(std::make_unique<Work>());
    parts.push_back(std::make_unique<BusinessActivityParticipant>(
        "part-" + std::to_string(i), &transport, works.back()->Callbacks()));
  }

  ActivityId activity;
  {
    OperationLog log;
    EXPECT_TRUE(log.Open(file.path()).ok());
    CoordinatorOptions opts;
    opts.log = &log;
    opts.crash_points = &injector;
    BusinessActivityCoordinator coordinator("coordinator", &transport, opts);
    activity = coordinator.CreateActivity();
    for (size_t i = 0; i < participants; ++i) {
      auto id = coordinator.Register(activity, parts[i]->endpoint());
      EXPECT_TRUE(id.ok());
      parts[i]->Enlist("coordinator", activity, *id);
      EXPECT_TRUE(parts[i]->SignalCompleted().ok());
    }
    injector.InjectCrashAt(crash_point, passage);
    auto outcome = close ? coordinator.CloseActivity(activity)
                         : coordinator.CancelActivity(activity);
    result.crashed = coordinator.crashed();
    if (result.crashed) {
      EXPECT_FALSE(outcome.ok());
      EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
      // A dead coordinator answers nothing.
      EXPECT_FALSE(coordinator.CloseActivity(activity).ok());
      EXPECT_FALSE(parts[0]->SignalCompleted().ok());
    }
    // Coordinator object destroyed here = the crash; the log's Close
    // flushes what the group-commit queue already accepted, mimicking
    // durable-at-append semantics for the matrix.
  }

  // Twin world: reopen the log (torn-tail scan), rebuild, recover.
  OperationLog log;
  EXPECT_TRUE(log.Open(file.path()).ok());
  CoordinatorOptions opts;
  opts.log = &log;
  BusinessActivityCoordinator twin("coordinator", &transport, opts);
  auto recovery = RecoverCoordinator(&twin, file.path());
  EXPECT_TRUE(recovery.ok()) << recovery.status().ToString();
  result.recovery = *recovery;
  auto outcome = twin.OutcomeOf(activity);
  EXPECT_TRUE(outcome.ok());
  result.outcome = *outcome;
  for (size_t i = 0; i < participants; ++i) {
    result.executed.push_back(parts[i]->ExecutedOutcome(activity));
    result.closes += works[i]->closed;
    result.undos += works[i]->undone();
    // Exactly-once at every cell: no participant ever ran more than
    // one callback, crash or no crash.
    EXPECT_LE(works[i]->closed + works[i]->undone(), 1)
        << "participant " << i << " ran callbacks twice";
  }
  return result;
}

// The full matrix: every crash window of the close fan-out, for both
// decisions, must recover to a single consistent outcome.
TEST(WsbaRecoveryTest, CrashMatrixConvergesToSingleOutcome) {
  constexpr size_t kParticipants = 3;
  struct Cell {
    const char* point;
    uint64_t passage;
  };
  std::vector<Cell> cells = {
      {"wsba-pre-decision", 1},
      {"wsba-post-decision", 1},
      {"wsba-pre-notify", 1},
      {"wsba-pre-notify", 2},
      {"wsba-pre-notify", 3},
      {"wsba-post-notify", 1},
      {"wsba-post-notify", 2},
      {"wsba-post-notify", 3},
      {"wsba-pre-ended", 1},
  };
  for (bool close : {true, false}) {
    for (const Cell& cell : cells) {
      SCOPED_TRACE(std::string(cell.point) + " passage " +
                   std::to_string(cell.passage) +
                   (close ? " close" : " cancel"));
      CrashRunResult r =
          RunCrashMatrixCell(cell.point, cell.passage, close, kParticipants);
      ASSERT_TRUE(r.crashed);
      // Recovery converged: the activity ended, nobody is stranded.
      ASSERT_NE(r.outcome, ActivityOutcome::kOpen);
      ASSERT_NE(r.outcome, ActivityOutcome::kMixed);
      // Never a mixed world: participants all confirmed or all undone.
      EXPECT_TRUE(r.closes == 0 || r.undos == 0)
          << "mixed outcomes: " << r.closes << " closed, " << r.undos
          << " undone";
      EXPECT_EQ(r.closes + r.undos, static_cast<int>(kParticipants));
      if (std::string(cell.point) == "wsba-pre-decision") {
        // The decision never became durable: presumed abort, even for
        // an intended close.
        EXPECT_EQ(r.outcome, ActivityOutcome::kCompensated);
        EXPECT_EQ(r.recovery.presumed_abort, 1u);
        EXPECT_EQ(r.undos, static_cast<int>(kParticipants));
      } else {
        // Decision durable before the crash: recovery re-drives to
        // exactly the decided outcome.
        EXPECT_EQ(r.outcome, close ? ActivityOutcome::kClosed
                                   : ActivityOutcome::kCompensated);
        EXPECT_EQ(r.recovery.redriven, 1u);
        EXPECT_EQ(r.recovery.presumed_abort, 0u);
      }
    }
  }
}

// A torn decision record (the append itself died mid-write) must read
// as "no decision": the torn tail is truncated on reopen and recovery
// presumes abort.
TEST(WsbaRecoveryTest, TornDecisionRecordPresumesAbort) {
  TempLogFile file("torn");
  Transport transport;
  Work work;
  BusinessActivityParticipant part("part-0", &transport, work.Callbacks());

  ActivityId activity;
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    CoordinatorOptions opts;
    opts.log = &log;
    BusinessActivityCoordinator coordinator("coordinator", &transport, opts);
    activity = coordinator.CreateActivity();
    auto id = coordinator.Register(activity, "part-0");
    part.Enlist("coordinator", activity, *id);
    ASSERT_TRUE(part.SignalCompleted().ok());
    // The next physical write (the close decision) tears after a few
    // bytes, as if the process died inside fwrite.
    log.InjectTornWrite(5);
    auto outcome = coordinator.CloseActivity(activity);
    EXPECT_FALSE(outcome.ok());
  }

  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  CoordinatorOptions opts;
  opts.log = &log;
  BusinessActivityCoordinator twin("coordinator", &transport, opts);
  auto recovery = RecoverCoordinator(&twin, file.path());
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->presumed_abort, 1u);
  EXPECT_EQ(*twin.OutcomeOf(activity), ActivityOutcome::kCompensated);
  EXPECT_EQ(work.compensated, 1);
  EXPECT_EQ(work.closed, 0);
}

// Recovery re-drive must not double-run participants that were already
// acked before the crash: the acked records gate the retransmission
// and the participant's own dedup is the second line of defense.
TEST(WsbaRecoveryTest, RecoveryDoesNotRerunAckedParticipants) {
  CrashRunResult r = RunCrashMatrixCell("wsba-post-notify", 2, /*close=*/true,
                                        /*participants=*/3);
  ASSERT_TRUE(r.crashed);
  EXPECT_EQ(r.outcome, ActivityOutcome::kClosed);
  EXPECT_EQ(r.closes, 3);  // each exactly once (checked per-cell too)
}

// Participant restart mid-activity: the replacement recovers its
// enlistment and completed vote from the log, so a compensate
// retransmitted by the coordinator's re-drive runs exactly once and a
// second retransmission acks from the durable done record.
TEST(WsbaRecoveryTest, CompensationRetriedAcrossParticipantRestart) {
  TempLogFile coord_file("coord");
  TempLogFile part_file("part");
  Transport transport;

  OperationLog coord_log;
  ASSERT_TRUE(coord_log.Open(coord_file.path()).ok());
  CoordinatorOptions copts;
  copts.log = &coord_log;
  // One quick attempt: the first cancel hits a dead endpoint and must
  // leave the activity decided-but-unresolved for the re-drive.
  copts.retry.max_attempts = 1;
  BusinessActivityCoordinator coordinator("coordinator", &transport, copts);

  OperationLog part_log;
  ASSERT_TRUE(part_log.Open(part_file.path()).ok());
  ActivityId activity = coordinator.CreateActivity();
  ParticipantId pid;
  {
    Work lost_work;
    ParticipantOptions popts;
    popts.log = &part_log;
    BusinessActivityParticipant part("part-0", &transport,
                                     lost_work.Callbacks(), popts);
    auto id = coordinator.Register(activity, "part-0");
    ASSERT_TRUE(id.ok());
    pid = *id;
    part.Enlist("coordinator", activity, pid);
    ASSERT_TRUE(part.SignalCompleted().ok());
    // Participant dies here (destroyed, endpoint unregistered) before
    // any outcome order reaches it.
  }

  // The cancel decision goes durable but the participant is gone:
  // unresolved, not faulted.
  auto outcome = coordinator.CancelActivity(activity);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(*coordinator.DecisionOf(activity), ActivityDecision::kCancel);
  EXPECT_EQ(*coordinator.OutcomeOf(activity), ActivityOutcome::kOpen);
  ASSERT_EQ(coordinator.UnresolvedActivities().size(), 1u);

  // Restarted participant: fresh object + RecoverParticipant.
  Work work;
  ParticipantOptions popts;
  popts.log = &part_log;
  BusinessActivityParticipant revived("part-0", &transport, work.Callbacks(),
                                      popts);
  ASSERT_TRUE(RecoverParticipant(&revived, part_file.path()).ok());

  // Re-drive: the retransmitted cancel finds a completed vote in the
  // revived participant and compensates exactly once.
  auto redriven = coordinator.ReDrive(activity);
  ASSERT_TRUE(redriven.ok()) << redriven.status().ToString();
  EXPECT_EQ(*redriven, ActivityOutcome::kCompensated);
  EXPECT_EQ(work.compensated, 1);
  EXPECT_EQ(work.cancelled, 0);
  EXPECT_EQ(revived.ExecutedOutcome(activity), "compensate");

  // A second restart after the ack: the done record survives, so yet
  // another retransmission dedups instead of compensating again.
  Work work2;
  BusinessActivityParticipant revived2("part-0", &transport,
                                       work2.Callbacks(), popts);
  // revived is still registered; drop it so the endpoint re-binds.
  // (Transport Register replaces, but be explicit about the restart.)
  auto again = coordinator.ReDrive(activity);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, ActivityOutcome::kCompensated);
  EXPECT_EQ(work2.compensated, 0);
}

// Participant timeout path: the coordinator dies before sending any
// order; the participant gives up waiting, asks a recovered
// coordinator for the outcome and applies it locally.
TEST(WsbaRecoveryTest, ParticipantQueryAppliesRecoveredOutcome) {
  TempLogFile file("query");
  Transport transport;
  FaultInjector injector;
  Work work;
  BusinessActivityParticipant part("part-0", &transport, work.Callbacks());

  ActivityId activity;
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    CoordinatorOptions opts;
    opts.log = &log;
    opts.crash_points = &injector;
    BusinessActivityCoordinator coordinator("coordinator", &transport, opts);
    activity = coordinator.CreateActivity();
    auto id = coordinator.Register(activity, "part-0");
    part.Enlist("coordinator", activity, *id);
    ASSERT_TRUE(part.SignalCompleted().ok());
    injector.InjectCrashAt("wsba-post-decision");
    EXPECT_FALSE(coordinator.CloseActivity(activity).ok());
    // While the coordinator is dead the query fails through the retry
    // budget with a transport-shaped error, not a wrong outcome.
    auto blind = part.QueryOutcome();
    EXPECT_FALSE(blind.ok());
  }

  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  CoordinatorOptions opts;
  opts.log = &log;
  BusinessActivityCoordinator twin("coordinator", &transport, opts);
  auto recovery = RecoverCoordinator(&twin, file.path());
  ASSERT_TRUE(recovery.ok());
  // Recovery already re-drove the close; the participant's own query
  // now agrees with what it was ordered to do.
  auto queried = part.QueryOutcome();
  ASSERT_TRUE(queried.ok()) << queried.status().ToString();
  EXPECT_EQ(*queried, ActivityOutcome::kClosed);
  EXPECT_EQ(work.closed, 1);
}

// Presumed abort from the participant's chair: the coordinator that
// answers the query has no durable record of the activity, so the
// completed participant must undo its work.
TEST(WsbaRecoveryTest, UnknownActivityQueryPresumesAbort) {
  TempLogFile file("amnesia");
  Transport transport;
  Work work;
  BusinessActivityParticipant part("part-0", &transport, work.Callbacks());

  ActivityId activity;
  {
    // Volatile coordinator: nothing it does survives.
    BusinessActivityCoordinator coordinator("coordinator", &transport);
    activity = coordinator.CreateActivity();
    auto id = coordinator.Register(activity, "part-0");
    part.Enlist("coordinator", activity, *id);
    ASSERT_TRUE(part.SignalCompleted().ok());
  }

  // Replacement coordinator with an empty (fresh) log world.
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  CoordinatorOptions opts;
  opts.log = &log;
  BusinessActivityCoordinator amnesiac("coordinator", &transport, opts);

  auto outcome = part.QueryOutcome();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(*outcome, ActivityOutcome::kCompensated);
  EXPECT_EQ(work.compensated, 1);
  EXPECT_EQ(work.closed, 0);
  // The query is idempotent: asking again does not undo twice.
  ASSERT_TRUE(part.QueryOutcome().ok());
  EXPECT_EQ(work.compensated, 1);
}

// The compensation callback runs without the participant's lock held:
// it may signal the coordinator through the same participant (here an
// exit from a second activity) without deadlocking, and the executed
// record is still durable before the query reports the outcome.
TEST(WsbaRecoveryTest, CompensationCallbackReentersParticipant) {
  TempLogFile part_file("reenter_part");
  OperationLog part_log;
  ASSERT_TRUE(part_log.Open(part_file.path()).ok());
  Transport transport;
  BusinessActivityParticipant* self = nullptr;
  int compensated = 0;
  Status exit_status = Status::Internal("callback never ran");
  BusinessActivityParticipant::Callbacks callbacks;
  callbacks.on_compensate = [&] {
    ++compensated;
    exit_status = self->SignalExit();  // the current enlistment
    return Status::OK();
  };
  ParticipantOptions part_opts;
  part_opts.log = &part_log;
  BusinessActivityParticipant part("part-0", &transport, callbacks,
                                   part_opts);
  self = &part;

  ActivityId forgotten;
  {
    // Volatile coordinator: the completed activity dies with it.
    BusinessActivityCoordinator coordinator("coordinator", &transport);
    (void)coordinator.CreateActivity();  // ids differ from the next one's
    forgotten = coordinator.CreateActivity();
    auto id = coordinator.Register(forgotten, "part-0");
    part.Enlist("coordinator", forgotten, *id);
    ASSERT_TRUE(part.SignalCompleted().ok());
  }
  BusinessActivityCoordinator amnesiac("coordinator", &transport);
  ActivityId live = amnesiac.CreateActivity();
  auto live_id = amnesiac.Register(live, "part-0");
  ASSERT_TRUE(live_id.ok());
  part.Enlist("coordinator", live, *live_id);

  // Presumed abort: the participant undoes its work locally, and the
  // callback exits the live activity on the way.
  auto outcome = part.QueryOutcome(forgotten);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(*outcome, ActivityOutcome::kCompensated);
  EXPECT_EQ(compensated, 1);
  EXPECT_TRUE(exit_status.ok()) << exit_status.ToString();
  EXPECT_EQ(*amnesiac.StateOf(live, *live_id), ParticipantState::kExited);
  EXPECT_EQ(part.ExecutedOutcome(forgotten), "compensate");
  // Exactly once: a second query does not undo again.
  ASSERT_TRUE(part.QueryOutcome(forgotten).ok());
  EXPECT_EQ(compensated, 1);

  auto records = OperationLog::ReadAll(part_file.path());
  ASSERT_TRUE(records.ok());
  const std::string done =
      "bp|done|part-0|" + std::to_string(forgotten.value()) + "|compensate";
  int done_records = 0;
  for (const LogRecord& r : *records) done_records += r.payload == done;
  EXPECT_EQ(done_records, 1);
}

// An undecided activity answers the query with kOpen plus a pacing
// hint rather than guessing.
TEST(WsbaRecoveryTest, UndecidedQueryStaysOpen) {
  TempLogFile file("open");
  Transport transport;
  Work work;
  BusinessActivityParticipant part("part-0", &transport, work.Callbacks());
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  CoordinatorOptions opts;
  opts.log = &log;
  BusinessActivityCoordinator coordinator("coordinator", &transport, opts);
  ActivityId activity = coordinator.CreateActivity();
  auto id = coordinator.Register(activity, "part-0");
  part.Enlist("coordinator", activity, *id);
  ASSERT_TRUE(part.SignalCompleted().ok());

  auto outcome = part.QueryOutcome();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ActivityOutcome::kOpen);
  EXPECT_EQ(work.closed + work.compensated + work.cancelled, 0);

  ASSERT_TRUE(coordinator.CloseActivity(activity).ok());
  outcome = part.QueryOutcome();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ActivityOutcome::kClosed);
}

// Ended activities replay as ended: a recovered coordinator must not
// re-drive (or re-count) activities whose ended record is durable.
TEST(WsbaRecoveryTest, EndedActivitiesReplayAsEnded) {
  TempLogFile file("ended");
  Transport transport;
  Work work;
  BusinessActivityParticipant part("part-0", &transport, work.Callbacks());

  ActivityId activity;
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    CoordinatorOptions opts;
    opts.log = &log;
    BusinessActivityCoordinator coordinator("coordinator", &transport, opts);
    activity = coordinator.CreateActivity();
    auto id = coordinator.Register(activity, "part-0");
    part.Enlist("coordinator", activity, *id);
    ASSERT_TRUE(part.SignalCompleted().ok());
    ASSERT_TRUE(coordinator.CloseActivity(activity).ok());
  }

  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  CoordinatorOptions opts;
  opts.log = &log;
  BusinessActivityCoordinator twin("coordinator", &transport, opts);
  auto recovery = RecoverCoordinator(&twin, file.path());
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->activities, 1u);
  EXPECT_EQ(recovery->already_ended, 1u);
  EXPECT_EQ(recovery->redriven, 0u);
  EXPECT_EQ(*twin.OutcomeOf(activity), ActivityOutcome::kClosed);
  EXPECT_EQ(work.closed, 1);  // never re-driven

  // New ids never collide with recovered ones.
  ActivityId fresh = twin.CreateActivity();
  EXPECT_GT(fresh.value(), activity.value());
}

}  // namespace
}  // namespace promises

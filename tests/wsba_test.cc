// Tests for the WS-BusinessActivity coordination substrate and its
// integration with promises (§10 future work).

#include <gtest/gtest.h>

#include "core/promise_manager.h"
#include "service/client.h"
#include "service/services.h"
#include "wsba/business_activity.h"

namespace promises {
namespace {

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
};

class WsbaTest : public ::testing::Test {
 protected:
  WsbaTest() : coordinator_("coordinator", &transport_) {}

  Transport transport_;
  BusinessActivityCoordinator coordinator_;
};

TEST_F(WsbaTest, HappyPathCloses) {
  Work a_work, b_work;
  BusinessActivityParticipant a("part-a", &transport_, a_work.Callbacks());
  BusinessActivityParticipant b("part-b", &transport_, b_work.Callbacks());

  ActivityId activity = coordinator_.CreateActivity();
  auto a_id = coordinator_.Register(activity, "part-a");
  auto b_id = coordinator_.Register(activity, "part-b");
  ASSERT_TRUE(a_id.ok() && b_id.ok());
  a.Enlist("coordinator", activity, *a_id);
  b.Enlist("coordinator", activity, *b_id);
  EXPECT_EQ(coordinator_.ParticipantCount(activity), 2u);

  ASSERT_TRUE(a.SignalCompleted().ok());
  ASSERT_TRUE(b.SignalCompleted().ok());
  EXPECT_EQ(*coordinator_.StateOf(activity, *a_id),
            ParticipantState::kCompleted);

  auto outcome = coordinator_.CloseActivity(activity);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(*outcome, ActivityOutcome::kClosed);
  EXPECT_EQ(a_work.closed, 1);
  EXPECT_EQ(b_work.closed, 1);
  EXPECT_EQ(a_work.compensated, 0);
  EXPECT_EQ(*coordinator_.StateOf(activity, *a_id),
            ParticipantState::kEnded);
}

TEST_F(WsbaTest, CancelCompensatesCompletedAndCancelsActive) {
  Work done_work, busy_work;
  BusinessActivityParticipant done("done", &transport_,
                                   done_work.Callbacks());
  BusinessActivityParticipant busy("busy", &transport_,
                                   busy_work.Callbacks());
  ActivityId activity = coordinator_.CreateActivity();
  auto done_id = coordinator_.Register(activity, "done");
  auto busy_id = coordinator_.Register(activity, "busy");
  done.Enlist("coordinator", activity, *done_id);
  busy.Enlist("coordinator", activity, *busy_id);
  ASSERT_TRUE(done.SignalCompleted().ok());
  // busy never completes.

  auto outcome = coordinator_.CancelActivity(activity);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ActivityOutcome::kCompensated);
  EXPECT_EQ(done_work.compensated, 1);
  EXPECT_EQ(done_work.closed, 0);
  EXPECT_EQ(busy_work.cancelled, 1);
  EXPECT_EQ(busy_work.compensated, 0);
}

TEST_F(WsbaTest, CloseRefusedWhileParticipantActive) {
  Work work;
  BusinessActivityParticipant p("p", &transport_, work.Callbacks());
  ActivityId activity = coordinator_.CreateActivity();
  auto id = coordinator_.Register(activity, "p");
  p.Enlist("coordinator", activity, *id);
  auto outcome = coordinator_.CloseActivity(activity);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(WsbaTest, FaultForcesCancelPath) {
  Work good_work, bad_work;
  BusinessActivityParticipant good("good", &transport_,
                                   good_work.Callbacks());
  BusinessActivityParticipant bad("bad", &transport_, bad_work.Callbacks());
  ActivityId activity = coordinator_.CreateActivity();
  auto good_id = coordinator_.Register(activity, "good");
  auto bad_id = coordinator_.Register(activity, "bad");
  good.Enlist("coordinator", activity, *good_id);
  bad.Enlist("coordinator", activity, *bad_id);
  ASSERT_TRUE(good.SignalCompleted().ok());
  ASSERT_TRUE(bad.SignalFault("exploded").ok());
  EXPECT_TRUE(coordinator_.HasFault(activity));
  // Close is refused; cancel compensates the good participant.
  EXPECT_FALSE(coordinator_.CloseActivity(activity).ok());
  auto outcome = coordinator_.CancelActivity(activity);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ActivityOutcome::kCompensated);
  EXPECT_EQ(good_work.compensated, 1);
  EXPECT_EQ(bad_work.compensated, 0);  // faulted: nothing to undo
}

TEST_F(WsbaTest, ExitedParticipantUntouchedAtClose) {
  Work work;
  BusinessActivityParticipant p("p", &transport_, work.Callbacks());
  ActivityId activity = coordinator_.CreateActivity();
  auto id = coordinator_.Register(activity, "p");
  p.Enlist("coordinator", activity, *id);
  ASSERT_TRUE(p.SignalExit().ok());
  auto outcome = coordinator_.CloseActivity(activity);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ActivityOutcome::kClosed);
  EXPECT_EQ(work.closed, 0);
  EXPECT_EQ(work.compensated, 0);
}

TEST_F(WsbaTest, CloseCallbackReentersParticipant) {
  // The close order runs its callback without the participant's lock
  // held, so the callback may call back into the participant.
  BusinessActivityParticipant* self = nullptr;
  ActivityId activity = coordinator_.CreateActivity();
  std::string seen_during_callback = "unset";
  int closed = 0;
  BusinessActivityParticipant::Callbacks callbacks;
  callbacks.on_close = [&] {
    ++closed;
    seen_during_callback = self->ExecutedOutcome(activity);
    return Status::OK();
  };
  BusinessActivityParticipant p("p", &transport_, callbacks);
  self = &p;
  auto id = coordinator_.Register(activity, "p");
  p.Enlist("coordinator", activity, *id);
  ASSERT_TRUE(p.SignalCompleted().ok());
  auto outcome = coordinator_.CloseActivity(activity);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(*outcome, ActivityOutcome::kClosed);
  EXPECT_EQ(closed, 1);
  EXPECT_EQ(seen_during_callback, "");  // stamped only after the record
  EXPECT_EQ(p.ExecutedOutcome(activity), "close");
}

TEST_F(WsbaTest, ProtocolMisuseRejected) {
  Work work;
  BusinessActivityParticipant p("p", &transport_, work.Callbacks());
  ActivityId activity = coordinator_.CreateActivity();
  auto id = coordinator_.Register(activity, "p");
  p.Enlist("coordinator", activity, *id);
  ASSERT_TRUE(p.SignalCompleted().ok());
  // A duplicated/retransmitted Completed is acked idempotently, but a
  // conflicting signal against the completed state is still rejected.
  EXPECT_TRUE(p.SignalCompleted().ok());
  EXPECT_FALSE(p.SignalExit().ok());  // cannot exit after completing
  // Registration against ended/unknown activities fails.
  ASSERT_TRUE(coordinator_.CloseActivity(activity).ok());
  EXPECT_FALSE(coordinator_.Register(activity, "p").ok());
  EXPECT_FALSE(coordinator_.Register(ActivityId(999), "p").ok());
  EXPECT_FALSE(coordinator_.CloseActivity(ActivityId(999)).ok());
  // Unenlisted participant cannot signal.
  BusinessActivityParticipant stray("stray", &transport_, work.Callbacks());
  EXPECT_FALSE(stray.SignalCompleted().ok());
}

TEST_F(WsbaTest, DuplicateRegisterReturnsExistingEnlistment) {
  // A duplicated Register delivery (the PR 2 duplicate fault) must not
  // enlist the same endpoint twice: the activity would then close with
  // a phantom participant that never completes.
  Work work;
  BusinessActivityParticipant p("p", &transport_, work.Callbacks());
  ActivityId activity = coordinator_.CreateActivity();
  auto first = coordinator_.Register(activity, "p");
  auto again = coordinator_.Register(activity, "p");
  ASSERT_TRUE(first.ok() && again.ok());
  EXPECT_EQ(*first, *again);
  EXPECT_EQ(coordinator_.ParticipantCount(activity), 1u);

  p.Enlist("coordinator", activity, *first);
  ASSERT_TRUE(p.SignalCompleted().ok());
  auto outcome = coordinator_.CloseActivity(activity);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(*outcome, ActivityOutcome::kClosed);
  EXPECT_EQ(work.closed, 1);
}

TEST_F(WsbaTest, FailingCompensationYieldsMixedOutcome) {
  Work ok_work;
  BusinessActivityParticipant good("good", &transport_, ok_work.Callbacks());
  BusinessActivityParticipant broken(
      "broken", &transport_,
      {[] { return Status::OK(); },
       [] { return Status::Internal("compensation store down"); },
       [] {}});
  ActivityId activity = coordinator_.CreateActivity();
  auto good_id = coordinator_.Register(activity, "good");
  auto broken_id = coordinator_.Register(activity, "broken");
  good.Enlist("coordinator", activity, *good_id);
  broken.Enlist("coordinator", activity, *broken_id);
  ASSERT_TRUE(good.SignalCompleted().ok());
  ASSERT_TRUE(broken.SignalCompleted().ok());
  auto outcome = coordinator_.CancelActivity(activity);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ActivityOutcome::kMixed);
  EXPECT_EQ(*coordinator_.StateOf(activity, *broken_id),
            ParticipantState::kFaulted);
  EXPECT_EQ(ok_work.compensated, 1);
}

// --- Integration: promises enlisted in a business activity -------------

TEST_F(WsbaTest, PromisesReleasedByCompensation) {
  // A travel activity spans two promise managers; when the activity is
  // cancelled, each participant's compensation releases its promises.
  SystemClock clock;
  ResourceManager flight_rm, hotel_rm;
  TransactionManager flight_tm, hotel_tm;
  ASSERT_TRUE(flight_rm.CreatePool("seat", 10).ok());
  ASSERT_TRUE(hotel_rm.CreatePool("room", 10).ok());
  PromiseManagerConfig fc;
  fc.name = "flights";
  PromiseManager flights(fc, &clock, &flight_rm, &flight_tm, &transport_);
  PromiseManagerConfig hc;
  hc.name = "hotels";
  PromiseManager hotels(hc, &clock, &hotel_rm, &hotel_tm, &transport_);

  PromiseClient flight_client("agent-flight", &transport_, "flights");
  PromiseClient hotel_client("agent-hotel", &transport_, "hotels");
  auto seat = flight_client.Request("quantity('seat') >= 2");
  auto room = hotel_client.Request("quantity('room') >= 1");
  ASSERT_TRUE(seat.ok() && room.ok());

  BusinessActivityParticipant flight_part(
      "flight-part", &transport_,
      {[&] { return flight_client.Release({seat->id}); },
       [&] { return flight_client.Release({seat->id}); },
       [] {}});
  BusinessActivityParticipant hotel_part(
      "hotel-part", &transport_,
      {[&] { return hotel_client.Release({room->id}); },
       [&] { return hotel_client.Release({room->id}); },
       [] {}});

  ActivityId activity = coordinator_.CreateActivity();
  auto f_id = coordinator_.Register(activity, "flight-part");
  auto h_id = coordinator_.Register(activity, "hotel-part");
  flight_part.Enlist("coordinator", activity, *f_id);
  hotel_part.Enlist("coordinator", activity, *h_id);
  ASSERT_TRUE(flight_part.SignalCompleted().ok());
  ASSERT_TRUE(hotel_part.SignalCompleted().ok());

  EXPECT_EQ(flights.active_promises(), 1u);
  EXPECT_EQ(hotels.active_promises(), 1u);
  auto outcome = coordinator_.CancelActivity(activity);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ActivityOutcome::kCompensated);
  EXPECT_EQ(flights.active_promises(), 0u);
  EXPECT_EQ(hotels.active_promises(), 0u);
}

}  // namespace
}  // namespace promises

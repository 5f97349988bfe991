// Workloads of the perfbench binary: the catalog each node serves, the
// seeded order stream, and the client-side state machine that turns the
// stream into grant / act / release envelopes.
//
// Both workloads follow the Figure 1 ordering process: a client waits
// for its grant before it acts, so every client is a closed loop.
//
//   checkout  one grant of quantity('item-NNNN') >= 1 on a seeded item
//             of an anonymous-pool catalog, then `purchase` under that
//             promise with release_after.
//   booking   property-view bookings on one instance class. A client
//             keeps a window of held promises; an order grants a new
//             one, books the oldest held one with release_after and
//             then vacates the booked room, so the hotel never fills.
//
// The node only ever sees the envelopes these clients build.

#ifndef PERFBENCH_ORDERS_H_
#define PERFBENCH_ORDERS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/promise_manager.h"
#include "protocol/message.h"
#include "resource/resource_manager.h"

namespace perfbench {

enum class WorkloadKind { kCheckout, kBooking };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kCheckout;
  std::string name;
  /// checkout: anonymous pools and the stock each starts with.
  int items = 0;
  int64_t stock = 0;
  /// booking: rooms of the one instance class and the promises each
  /// client keeps held.
  int rooms = 0;
  int window = 0;
  /// Orders each client runs during set-up, after its window is full.
  int warmup_orders = 0;
  /// Orders each client runs on the recovery node before it is killed.
  int recovery_orders = 0;
};

/// The two workloads, or nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Name of checkout pool `index` ("item-0042").
std::string ItemName(int index);

/// Grant predicate texts of the workload; the order stream picks one by
/// index (checkout: one per item).
const std::vector<std::string>& PredicateTexts(const WorkloadSpec& spec);

/// Defines the workload's catalog (the lifecycle's define_resources).
void DefineCatalog(const WorkloadSpec& spec, promises::ResourceManager& rm);

/// Registers the services the workload acts through.
void ConfigureServices(const WorkloadSpec& spec,
                       promises::PromiseManager& pm);

/// Seeded order stream of one client: the same (seed, stream) always
/// yields the same sequence of choices, each an index into
/// PredicateTexts (for checkout that is also the item index).
class OrderStream {
 public:
  OrderStream(const WorkloadSpec& spec, uint64_t seed, int stream);
  int Next();

 private:
  int range_;
  promises::Rng rng_;
};

/// Sends one request envelope and returns the node's reply.
using Invoke = std::function<promises::Result<promises::Envelope>(
    const promises::Envelope& request)>;

/// Client-side state of one sender: its stream, message ids, held
/// promises and what it has consumed. Single-threaded.
class Client {
 public:
  Client(const WorkloadSpec& spec, std::string sender, uint64_t seed,
         int stream);

  /// Runs one order through `invoke`. Returns false when any call was
  /// refused or failed; the failure text is kept in last_error().
  bool RunOrder(const Invoke& invoke);

  /// booking: grants until the window is full (no-op for checkout).
  bool FillWindow(const Invoke& invoke);

  /// booking: books and vacates every held promise.
  bool DrainWindow(const Invoke& invoke);

  const std::string& last_error() const { return last_error_; }
  /// Units bought per checkout item by completed orders.
  const std::map<int, int64_t>& purchased() const { return purchased_; }

 private:
  promises::Envelope NewEnvelope();
  promises::Envelope GrantRequest(int choice);
  bool Grant(const Invoke& invoke, int choice, promises::PromiseId* id);
  bool Act(const Invoke& invoke, const promises::Envelope& request,
           promises::Envelope* reply);
  bool Release(const Invoke& invoke, promises::PromiseId id);
  bool BookAndVacate(const Invoke& invoke, promises::PromiseId id);
  bool Fail(std::string error);

  const WorkloadSpec& spec_;
  std::string sender_;
  OrderStream stream_;
  uint64_t next_message_ = 1;
  std::deque<promises::PromiseId> window_;
  std::map<int, int64_t> purchased_;
  std::string last_error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORDERS_H_

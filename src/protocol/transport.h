// In-process message transport.
//
// Substitution (see DESIGN.md): the paper's prototype exchanged SOAP
// messages over web-service middleware; here endpoints live in one
// process and exchange the same envelopes synchronously. Optional
// per-hop latency injection and full encode/decode on every hop keep
// the protocol path realistic for the E9 experiment, and an optional
// FaultInjector turns the perfect bus into a lossy one (dropped
// requests/replies, duplicate deliveries, delay spikes, endpoint
// crashes) for the chaos experiments.

#ifndef PROMISES_PROTOCOL_TRANSPORT_H_
#define PROMISES_PROTOCOL_TRANSPORT_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/ids.h"
#include "common/status.h"
#include "protocol/admission.h"
#include "protocol/fault_injector.h"
#include "protocol/message.h"

namespace promises {

/// Handles one inbound envelope and produces the reply envelope.
using EndpointHandler = std::function<Result<Envelope>(const Envelope&)>;

/// Per-destination traffic breakdown.
struct EndpointStats {
  uint64_t messages = 0;        ///< Deliveries attempted to the endpoint.
  uint64_t failures = 0;        ///< Handler or parse failures.
  uint64_t faults_injected = 0; ///< Drops/dups/crashes/delays on its hops.
  uint64_t retries = 0;         ///< Client resends reported via NoteRetry.
  uint64_t sheds = 0;           ///< Requests refused by admission control.
};

struct TransportStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;           ///< Serialized request + response bytes.
  uint64_t failures = 0;        ///< Handler or parse failures.
  uint64_t faults_injected = 0; ///< Total injected faults across endpoints.
  uint64_t retries = 0;         ///< Total reported client retries.
  uint64_t sheds = 0;           ///< Total requests refused by admission.
  std::map<std::string, EndpointStats> per_endpoint;
};

/// Synchronous request/response bus between named endpoints.
class Transport {
 public:
  Transport() = default;

  /// When true (default), every Send encodes the envelope with the
  /// binary codec (Envelope::Encode) and the receiving side decodes it
  /// back — the same bytes a TCP hop carries. When false, envelopes are
  /// passed by reference (used to isolate encoding cost in E9).
  void set_encode_on_wire(bool v) { encode_on_wire_ = v; }

  /// Artificial one-way latency added to each hop, in microseconds of
  /// busy-wait (0 = off). Models WAN cost in a repeatable way.
  void set_hop_latency_us(int64_t us) { hop_latency_us_ = us; }

  /// Attaches a fault injector (non-owning; nullptr detaches). Every
  /// subsequent Send consults it. Attach before serving traffic.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// Attaches an admission controller (non-owning; nullptr detaches).
  /// The in-process bus has no real queue, so the count of deliveries
  /// currently executing a handler stands in for queue depth; a shed
  /// Send fails with the decision's kResourceExhausted status (carrying
  /// the retry-after hint) before the handler runs.
  void set_admission(AdmissionController* admission) {
    admission_.store(admission, std::memory_order_release);
  }

  /// Invoked (outside any transport lock) when an injected crash fault
  /// hits `endpoint`; the chaos harness uses this to kill and recover
  /// the manager behind the endpoint. The faulted Send itself fails
  /// with kUnavailable.
  using CrashHook = std::function<void(const std::string& endpoint)>;
  void set_crash_hook(CrashHook hook);

  /// Registers `name` as a destination. Replaces any prior handler.
  void Register(const std::string& name, EndpointHandler handler);
  void Unregister(const std::string& name);

  /// Delivers `request` to its `to` endpoint and returns the reply.
  /// With a fault injector attached, the request may be dropped before
  /// the handler (kTimeout), the reply may be dropped after it ran
  /// (kTimeout — the state change happened), the delivery may run twice
  /// (the duplicate's reply is returned; receivers deduplicate), or the
  /// endpoint may "crash" (kUnavailable).
  Result<Envelope> Send(const Envelope& request);

  /// Records that a client re-sent a message to `endpoint` (retries are
  /// a client-side decision the bus cannot observe by itself).
  void NoteRetry(const std::string& endpoint);

  /// Fresh message id for building envelopes.
  MessageId NextMessageId() { return message_ids_.Next(); }

  TransportStats stats() const;
  void ResetStats();

 private:
  void InjectLatency(int64_t extra_us) const;
  void RecordFault(const std::string& endpoint);

  mutable std::mutex mu_;
  std::map<std::string, EndpointHandler> endpoints_;
  CrashHook crash_hook_;
  IdGenerator<MessageId> message_ids_;
  bool encode_on_wire_ = true;
  std::atomic<int64_t> hop_latency_us_{0};
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  std::atomic<AdmissionController*> admission_{nullptr};
  std::atomic<int64_t> in_flight_{0};  ///< Deliveries inside a handler.
  mutable std::mutex stats_mu_;
  TransportStats stats_;
};

}  // namespace promises

#endif  // PROMISES_PROTOCOL_TRANSPORT_H_

#include "protocol/transport.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace promises {
namespace {

struct TransportCounters {
  Counter* messages;
  Counter* failures;
  Counter* faults;
  Counter* retries;
  Counter* sheds;

  static const TransportCounters& Get() {
    static TransportCounters counters = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return TransportCounters{
          reg.GetCounter("promises_transport_messages_total"),
          reg.GetCounter("promises_transport_failures_total"),
          reg.GetCounter("promises_transport_faults_injected_total"),
          reg.GetCounter("promises_transport_retries_total"),
          reg.GetCounter("promises_transport_sheds_total")};
    }();
    return counters;
  }
};

}  // namespace

void Transport::Register(const std::string& name, EndpointHandler handler) {
  std::lock_guard<std::mutex> lk(mu_);
  endpoints_[name] = std::move(handler);
}

void Transport::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  endpoints_.erase(name);
}

void Transport::set_crash_hook(CrashHook hook) {
  std::lock_guard<std::mutex> lk(mu_);
  crash_hook_ = std::move(hook);
}

void Transport::InjectLatency(int64_t extra_us) const {
  int64_t us = hop_latency_us_.load(std::memory_order_relaxed) + extra_us;
  if (us <= 0) return;
  auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  // Busy-wait: sleeps on a 1-core box have scheduler noise far larger
  // than the latencies being modelled.
  while (std::chrono::steady_clock::now() < until) {
  }
}

void Transport::RecordFault(const std::string& endpoint) {
  TransportCounters::Get().faults->Increment();
  std::lock_guard<std::mutex> sk(stats_mu_);
  ++stats_.faults_injected;
  ++stats_.per_endpoint[endpoint].faults_injected;
}

void Transport::NoteRetry(const std::string& endpoint) {
  TransportCounters::Get().retries->Increment();
  std::lock_guard<std::mutex> sk(stats_mu_);
  ++stats_.retries;
  ++stats_.per_endpoint[endpoint].retries;
}

Result<Envelope> Transport::Send(const Envelope& request) {
  EndpointHandler handler;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = endpoints_.find(request.to);
    if (it == endpoints_.end()) {
      TransportCounters::Get().failures->Increment();
      std::lock_guard<std::mutex> sk(stats_mu_);
      ++stats_.failures;
      ++stats_.per_endpoint[request.to].failures;
      return Status::Unavailable("no endpoint '" + request.to + "'");
    }
    handler = it->second;
  }

  // Rule on this delivery's fate before it touches the wire. A lost
  // request and a lost reply both surface as kTimeout: the caller
  // cannot tell them apart, which is exactly why retries need the
  // receiver-side idempotency table.
  bool drop_reply = false;
  int deliveries = 1;
  int64_t extra_delay_us = 0;
  FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
  if (injector != nullptr) {
    FaultInjector::Decision d = injector->Decide();
    extra_delay_us = d.delay_us;
    if (d.delay_us > 0) RecordFault(request.to);
    switch (d.action) {
      case FaultAction::kDeliver:
        break;
      case FaultAction::kCrash: {
        RecordFault(request.to);
        CrashHook hook;
        {
          std::lock_guard<std::mutex> lk(mu_);
          hook = crash_hook_;
        }
        if (hook) hook(request.to);
        return Status::Unavailable("injected crash of endpoint '" +
                                   request.to + "'");
      }
      case FaultAction::kDropRequest:
        RecordFault(request.to);
        InjectLatency(extra_delay_us);
        return Status::Timeout("injected request loss to '" + request.to +
                               "'");
      case FaultAction::kDropReply:
        RecordFault(request.to);
        drop_reply = true;
        break;
      case FaultAction::kDuplicate:
        RecordFault(request.to);
        deliveries = 2;
        break;
    }
  }

  InjectLatency(extra_delay_us);

  // Admission rules at the receiver's edge, after the lossy hop: a
  // dropped request never got far enough to be shed. The in-flight
  // delivery count stands in for queue depth on this queueless bus.
  AdmissionController* admission =
      admission_.load(std::memory_order_acquire);
  if (admission != nullptr) {
    // Receiver-edge admission span: terminal ("shed-<reason>") when the
    // request is turned away, so shed attempts still show in the tree.
    ScopedSpan admission_span(
        request.trace ? *request.trace : TraceContext{}, "admission");
    AdmissionController::Decision decision = admission->Admit(
        request.from,
        static_cast<size_t>(in_flight_.load(std::memory_order_relaxed)),
        request.deadline);
    if (!decision.admitted()) {
      admission_span.set_status(
          "shed-" + std::string(decision.reason_string()));
      TransportCounters::Get().sheds->Increment();
      {
        std::lock_guard<std::mutex> sk(stats_mu_);
        ++stats_.sheds;
        ++stats_.per_endpoint[request.to].sheds;
      }
      if (drop_reply) {
        // Even the shed reply is lost on this hop.
        return Status::Timeout("injected reply loss from '" + request.to +
                               "'");
      }
      return decision.ToStatus();
    }
  }

  uint64_t hop_bytes = 0;
  auto deliver_once = [&]() -> Result<Envelope> {
    if (!encode_on_wire_) return handler(request);
    std::string wire = request.Encode();
    hop_bytes += wire.size();
    PROMISES_ASSIGN_OR_RETURN(Envelope decoded, Envelope::Decode(wire));
    PROMISES_ASSIGN_OR_RETURN(Envelope response, handler(decoded));
    std::string reply_wire = response.Encode();
    hop_bytes += reply_wire.size();
    return Envelope::Decode(reply_wire);
  };

  // A duplicated delivery hands the identical envelope to the handler
  // twice, back to back, and returns the second reply — with receiver
  // dedup both replies are the same cached envelope anyway.
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  Result<Envelope> reply = deliver_once();
  for (int extra = 1; extra < deliveries; ++extra) {
    reply = deliver_once();
  }
  in_flight_.fetch_sub(1, std::memory_order_relaxed);

  InjectLatency(0);

  TransportCounters::Get().messages->Increment(
      static_cast<uint64_t>(deliveries));
  if (!reply.ok()) TransportCounters::Get().failures->Increment();
  {
    std::lock_guard<std::mutex> sk(stats_mu_);
    stats_.messages += static_cast<uint64_t>(deliveries);
    stats_.bytes += hop_bytes;
    EndpointStats& ep = stats_.per_endpoint[request.to];
    ep.messages += static_cast<uint64_t>(deliveries);
    if (!reply.ok()) {
      ++stats_.failures;
      ++ep.failures;
    }
  }
  if (drop_reply && reply.ok()) {
    return Status::Timeout("injected reply loss from '" + request.to + "'");
  }
  return reply;
}

TransportStats Transport::stats() const {
  std::lock_guard<std::mutex> sk(stats_mu_);
  return stats_;
}

void Transport::ResetStats() {
  std::lock_guard<std::mutex> sk(stats_mu_);
  stats_ = TransportStats{};
}

}  // namespace promises

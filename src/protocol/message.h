// Promise protocol envelopes (§6).
//
// Clients and promise managers exchange promise-related information in
// message *headers* (<promise-request>, <promise-response>,
// <environment>, <release>) while application requests travel in the
// message *body* (<action>) — "the promise release and the application
// request form an atomic unit" (§2). A message may carry any subset of
// these parts, related or unrelated (§6), including piggybacked
// responses.
//
// Two encodings carry an Envelope. The SOAP-style XML document
// (ToXml/FromXml) is the §6 edge rendering: what E9 measures and what a
// raw XML client speaks. Every internal hop (operation-log records,
// checkpoint dedup replies, the in-process transport, TCP frames
// between this library's own client and server) uses the compact
// binary codec (Encode). Decode sniffs the first byte, so one decoder
// reads both.

#ifndef PROMISES_PROTOCOL_MESSAGE_H_
#define PROMISES_PROTOCOL_MESSAGE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "obs/trace.h"
#include "predicate/ast.h"
#include "protocol/xml.h"
#include "resource/value.h"

namespace promises {

/// <promise-request>: asks the promise maker to guarantee a set of
/// predicates for a duration (§6). All predicates are granted
/// atomically or the request is rejected (§4). `release_on_grant`
/// carries the "optional set of promise identifiers that refer to
/// existing promises that can be released if this new promise request
/// is successfully granted" — the atomic-update primitive.
struct PromiseRequestHeader {
  RequestId request_id;
  std::vector<Predicate> predicates;
  DurationMs duration_ms = 0;
  std::vector<PromiseId> release_on_grant;
  /// §6 'pending': when true, an ungrantable request joins the maker's
  /// wait queue instead of being rejected; the response carries
  /// kPending with a ticket to poll.
  bool queue_if_unavailable = false;
};

enum class PromiseResultCode { kAccepted, kRejected, kPending };

std::string_view PromiseResultCodeToString(PromiseResultCode c);

/// <promise-response>: grant/reject outcome correlated to a request.
struct PromiseResponseHeader {
  PromiseId promise_id;                    // valid only when accepted
  PromiseResultCode result = PromiseResultCode::kRejected;
  DurationMs granted_duration_ms = 0;      // may be shorter than asked (§6)
  RequestId correlation;
  std::string reason;                      // human-readable rejection cause
  /// Wait-queue ticket when result is kPending; poll with <poll>.
  uint64_t pending_ticket = 0;
  /// §6 "accepted with the condition XX": on rejection, the strongest
  /// weaker predicate list the maker could grant instead (textual
  /// predicate-list form). Empty when no counter-offer applies.
  std::string counter_offer;
};

/// <environment>: the promises an action executes under, each with a
/// release option ("whether the associated promises should be released
/// after the request has completed", §6).
struct EnvironmentHeader {
  struct Entry {
    PromiseId promise;
    bool release_after = false;
  };
  std::vector<Entry> entries;
};

/// <release>: explicit promise release without an accompanying action.
struct ReleaseHeader {
  std::vector<PromiseId> promises;
};

/// <poll>: asks the maker to resolve a queued request's ticket. The
/// reply carries a <promise-response> with kPending (still waiting),
/// kAccepted (granted meanwhile) or kRejected (patience lapsed).
struct PollHeader {
  uint64_t ticket = 0;
};

/// <overload>: the receiver shed this request under overload instead of
/// processing it (admission queue full, per-client quota exceeded, or
/// the envelope's propagated deadline had already expired). Carries a
/// retry-after hint so well-behaved clients pace their retries instead
/// of amplifying the load.
struct OverloadHeader {
  std::string reason;            ///< "queue-full" | "quota" | "deadline".
  DurationMs retry_after_ms = 0; ///< 0 = no hint (e.g. deadline sheds).
};

/// <route>: federated-cluster routing stamp (DESIGN.md §13). The
/// sender records which shard index it planned this envelope onto and
/// the version of the shard topology it planned with; a shard
/// configured with a shard guard refuses envelopes whose stamp does
/// not match its own identity (wrong shard, or a stale/newer topology)
/// with kFailedPrecondition, so re-sharding can never silently land a
/// request on the wrong shard's books. Absent on unrouted traffic.
struct RouteHeader {
  int32_t shard = 0;             ///< Planned destination shard index.
  uint64_t topology_version = 0; ///< Topology the plan was made under.
};

/// <action>: one application request for a service.
struct ActionBody {
  std::string service;
  std::string operation;
  std::map<std::string, Value> params;
};

/// <action-result>: service reply passed back through the manager.
struct ActionResultBody {
  bool ok = false;
  std::string error;                        // status text when !ok
  std::map<std::string, Value> outputs;
};

/// The two renderings of an Envelope (see the file comment).
enum class EnvelopeEncoding { kXml, kBinary };

/// One transport message: any subset of headers plus at most one body
/// part in each direction.
struct Envelope {
  MessageId message_id;
  std::string from;
  std::string to;

  /// Absolute deadline (ms in the shared Clock epoch; 0 = none). Set by
  /// the client from its per-call budget, propagated unchanged across
  /// retries and hops, and checked server-side before any work: a
  /// request whose deadline has passed is shed without touching the
  /// promise manager's lock stripes — the client has already given up.
  Timestamp deadline = 0;

  /// Distributed-tracing context (<trace> header element): the trace
  /// id is stamped once by the client and reused verbatim across
  /// retries; the span id is the sender's attempt span, which the
  /// receiver parents its own spans under. Absent (or unsampled) when
  /// the request was not selected for tracing — absent contexts cost
  /// nothing on the wire or in the receiver.
  std::optional<TraceContext> trace;

  std::optional<PromiseRequestHeader> promise_request;
  std::optional<PromiseResponseHeader> promise_response;
  std::optional<EnvironmentHeader> environment;
  std::optional<ReleaseHeader> release;
  std::optional<PollHeader> poll;
  std::optional<OverloadHeader> overload;
  std::optional<RouteHeader> route;
  std::optional<ActionBody> action;
  std::optional<ActionResultBody> action_result;

  /// Error-status view of an <overload> reply: kResourceExhausted with
  /// the retry-after hint encoded (see RetryAfterHintMs), or OK when
  /// the envelope carries no overload header. Lets every client path
  /// (in-process status, TCP reply envelope) surface sheds uniformly.
  Status ShedStatus() const;

  /// Serializes to a SOAP-style <envelope><header>…</header><body>…
  /// </body></envelope> document.
  std::string ToXml(bool pretty = false) const;

  /// Parses a document produced by ToXml (predicates are re-parsed from
  /// their textual form).
  static Result<Envelope> FromXml(std::string_view xml);

  /// Renders the envelope in `encoding`. The binary codec is versioned
  /// and self-delimiting: a leading version byte that is never '<' or
  /// ASCII, LEB128 varints (zigzag for signed fields), length-prefixed
  /// strings, a presence mask for the optional parts, type-tagged
  /// values with doubles stored as their exact bits, and predicates as
  /// their canonical ToString() text. Every field is carried, trace
  /// included.
  std::string Encode(EnvelopeEncoding encoding = EnvelopeEncoding::kBinary)
      const;

  /// Which encoding `bytes` holds: '<' is XML, the binary version byte
  /// is binary; nullopt for anything else (e.g. a non-envelope log
  /// payload).
  static std::optional<EnvelopeEncoding> Sniff(std::string_view bytes);

  /// The one decoder for both encodings: binary when the first byte is
  /// the codec's version byte, FromXml otherwise. Malformed input of
  /// either kind is an error, never a crash.
  static Result<Envelope> Decode(std::string_view bytes);
};

}  // namespace promises

#endif  // PROMISES_PROTOCOL_MESSAGE_H_

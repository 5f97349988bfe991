#include "protocol/message.h"

#include <cstring>

#include "common/string_util.h"
#include "predicate/parser.h"
#include "protocol/retry_policy.h"

namespace promises {

std::string_view PromiseResultCodeToString(PromiseResultCode c) {
  switch (c) {
    case PromiseResultCode::kAccepted: return "accepted";
    case PromiseResultCode::kRejected: return "rejected";
    case PromiseResultCode::kPending: return "pending";
  }
  return "unknown";
}

namespace {

void WriteParams(const std::map<std::string, Value>& params,
                 XmlElement* parent) {
  for (const auto& [name, value] : params) {
    XmlElement* p = parent->AddChild("param");
    p->SetAttr("name", name);
    p->SetAttr("type", std::string(ValueTypeToString(value.type())));
    p->set_text(value.ToString());
  }
}

Result<std::map<std::string, Value>> ReadParams(const XmlElement& parent) {
  std::map<std::string, Value> out;
  for (const XmlElement* p : parent.Children("param")) {
    const std::string& name = p->Attr("name");
    if (name.empty()) {
      return Status::InvalidArgument("<param> missing name attribute");
    }
    const std::string& type = p->Attr("type");
    const std::string& text = p->text();
    if (type == "bool") {
      out[name] = Value(text == "true");
    } else if (type == "int") {
      PROMISES_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      out[name] = Value(v);
    } else if (type == "double") {
      PROMISES_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      out[name] = Value(v);
    } else if (type == "string") {
      out[name] = Value(text);
    } else {
      return Status::InvalidArgument("unknown param type '" + type + "'");
    }
  }
  return out;
}

Result<uint64_t> ReadIdAttr(const XmlElement& e, const std::string& attr) {
  PROMISES_ASSIGN_OR_RETURN(int64_t v, ParseInt64(e.Attr(attr)));
  if (v < 0) return Status::InvalidArgument("negative id");
  return static_cast<uint64_t>(v);
}

// --- Binary codec --------------------------------------------------------

// Version byte of the binary codec; a later layout takes 0xB2. Never
// '<' and never ASCII, so Sniff cannot confuse it with XML or with the
// text payloads the operation log also carries.
constexpr uint8_t kBinaryMagic = 0xB1;

// Presence mask: one bit per optional part, written in this order.
constexpr uint64_t kHasTrace = 1 << 0;
constexpr uint64_t kHasPromiseRequest = 1 << 1;
constexpr uint64_t kHasPromiseResponse = 1 << 2;
constexpr uint64_t kHasEnvironment = 1 << 3;
constexpr uint64_t kHasRelease = 1 << 4;
constexpr uint64_t kHasPoll = 1 << 5;
constexpr uint64_t kHasOverload = 1 << 6;
constexpr uint64_t kHasRoute = 1 << 7;
constexpr uint64_t kHasAction = 1 << 8;
constexpr uint64_t kHasActionResult = 1 << 9;
constexpr uint64_t kAllParts = (1 << 10) - 1;

class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void Byte(uint8_t b) { out_->push_back(static_cast<char>(b)); }
  void U64(uint64_t v) {
    while (v >= 0x80) {
      Byte(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    Byte(static_cast<uint8_t>(v));
  }
  void S64(int64_t v) {
    U64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }
  void Fixed64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Bool(bool b) { Byte(b ? 1 : 0); }
  void Str(std::string_view s) {
    U64(s.size());
    out_->append(s);
  }
  void Val(const Value& v) {
    Byte(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case ValueType::kBool: Bool(v.as_bool()); break;
      case ValueType::kInt: S64(v.as_int()); break;
      case ValueType::kDouble: {
        double d = v.as_double();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        Fixed64(bits);
        break;
      }
      case ValueType::kString: Str(v.as_string()); break;
    }
  }
  void Params(const std::map<std::string, Value>& params) {
    U64(params.size());
    for (const auto& [name, value] : params) {
      Str(name);
      Val(value);
    }
  }

 private:
  std::string* out_;
};

// Sticky-error reader: the first malformed or truncated field records
// an error and every later read returns a zero value, so decoding code
// reads straight through and checks once. Loops over a decoded count
// must test ok() per element: a garbage count ends at the first
// failed read rather than allocating.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view in) : in_(in) {}

  bool ok() const { return error_.empty(); }
  bool done() const { return in_.empty(); }
  const std::string& error() const { return error_; }
  void Fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
    in_ = {};
  }

  uint8_t Byte() {
    if (in_.empty()) {
      Fail("truncated");
      return 0;
    }
    uint8_t b = static_cast<uint8_t>(in_.front());
    in_.remove_prefix(1);
    return b;
  }
  uint64_t U64() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t b = Byte();
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    Fail("varint longer than 10 bytes");
    return 0;
  }
  int64_t S64() {
    uint64_t z = U64();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  uint64_t Fixed64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(Byte()) << (8 * i);
    return v;
  }
  bool Bool() {
    uint8_t b = Byte();
    if (b > 1) Fail("bad bool byte");
    return b == 1;
  }
  std::string Str() {
    uint64_t n = U64();
    if (n > in_.size()) {
      Fail("truncated string");
      return {};
    }
    std::string s(in_.substr(0, n));
    in_.remove_prefix(n);
    return s;
  }
  Value Val() {
    switch (Byte()) {
      case static_cast<uint8_t>(ValueType::kBool): return Value(Bool());
      case static_cast<uint8_t>(ValueType::kInt): return Value(S64());
      case static_cast<uint8_t>(ValueType::kDouble): {
        uint64_t bits = Fixed64();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return Value(d);
      }
      case static_cast<uint8_t>(ValueType::kString): return Value(Str());
      default:
        Fail("unknown value type");
        return Value();
    }
  }
  std::map<std::string, Value> Params() {
    std::map<std::string, Value> out;
    uint64_t n = U64();
    for (uint64_t i = 0; i < n && ok(); ++i) {
      std::string name = Str();
      // Same rule as the XML reader: a param must be named.
      if (ok() && name.empty()) Fail("param without a name");
      out[std::move(name)] = Val();
    }
    return out;
  }

 private:
  std::string_view in_;
  std::string error_;
};

Result<Envelope> DecodeBinary(std::string_view bytes) {
  BinaryReader r(bytes);
  r.Byte();  // version, checked by the caller
  Envelope env;
  env.message_id = MessageId(r.U64());
  env.from = r.Str();
  env.to = r.Str();
  env.deadline = r.S64();
  uint64_t mask = r.U64();
  if (r.ok() && (mask & ~kAllParts) != 0) {
    r.Fail("unknown part bits");
  }
  if (mask & kHasTrace) {
    TraceContext& t = env.trace.emplace();
    t.trace_hi = r.Fixed64();
    t.trace_lo = r.Fixed64();
    t.span_id = r.Fixed64();
    t.parent_span_id = r.Fixed64();
    t.sampled = r.Bool();
  }
  if (mask & kHasPromiseRequest) {
    PromiseRequestHeader& h = env.promise_request.emplace();
    h.request_id = RequestId(r.U64());
    h.duration_ms = r.S64();
    h.queue_if_unavailable = r.Bool();
    uint64_t n = r.U64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      std::string text = r.Str();
      if (!r.ok()) break;
      PROMISES_ASSIGN_OR_RETURN(Predicate p, ParsePredicate(text));
      h.predicates.push_back(std::move(p));
    }
    n = r.U64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      h.release_on_grant.push_back(PromiseId(r.U64()));
    }
  }
  if (mask & kHasPromiseResponse) {
    PromiseResponseHeader& h = env.promise_response.emplace();
    h.promise_id = PromiseId(r.U64());
    uint8_t result = r.Byte();
    if (result > static_cast<uint8_t>(PromiseResultCode::kPending)) {
      r.Fail("bad promise-response result");
    }
    h.result = static_cast<PromiseResultCode>(result);
    h.granted_duration_ms = r.S64();
    h.correlation = RequestId(r.U64());
    h.reason = r.Str();
    h.pending_ticket = r.U64();
    h.counter_offer = r.Str();
  }
  if (mask & kHasEnvironment) {
    EnvironmentHeader& h = env.environment.emplace();
    uint64_t n = r.U64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      PromiseId promise(r.U64());
      h.entries.push_back({promise, r.Bool()});
    }
  }
  if (mask & kHasRelease) {
    ReleaseHeader& h = env.release.emplace();
    uint64_t n = r.U64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      h.promises.push_back(PromiseId(r.U64()));
    }
  }
  if (mask & kHasPoll) env.poll.emplace().ticket = r.U64();
  if (mask & kHasOverload) {
    OverloadHeader& h = env.overload.emplace();
    h.reason = r.Str();
    h.retry_after_ms = r.S64();
  }
  if (mask & kHasRoute) {
    RouteHeader& h = env.route.emplace();
    int64_t shard = r.S64();
    if (shard < INT32_MIN || shard > INT32_MAX) r.Fail("route shard range");
    h.shard = static_cast<int32_t>(shard);
    h.topology_version = r.U64();
  }
  if (mask & kHasAction) {
    ActionBody& h = env.action.emplace();
    h.service = r.Str();
    h.operation = r.Str();
    h.params = r.Params();
  }
  if (mask & kHasActionResult) {
    ActionResultBody& h = env.action_result.emplace();
    h.ok = r.Bool();
    h.error = r.Str();
    h.outputs = r.Params();
  }
  if (r.ok() && !r.done()) r.Fail("trailing bytes");
  if (!r.ok()) {
    return Status::InvalidArgument("malformed binary envelope: " + r.error());
  }
  return env;
}

}  // namespace

Status Envelope::ShedStatus() const {
  if (!overload) return Status::OK();
  return ResourceExhaustedWithRetryAfter(
      "request shed by '" + from + "': " + overload->reason,
      overload->retry_after_ms);
}

std::string Envelope::ToXml(bool pretty) const {
  XmlElement root("envelope");
  root.SetAttr("message-id", std::to_string(message_id.value()));
  root.SetAttr("from", from);
  root.SetAttr("to", to);
  if (deadline != 0) root.SetAttr("deadline", std::to_string(deadline));

  XmlElement* header = root.AddChild("header");
  if (trace && trace->valid()) {
    XmlElement* tr = header->AddChild("trace");
    tr->SetAttr("trace-id", trace->TraceIdHex());
    tr->SetAttr("span-id", FormatHex64(trace->span_id));
    if (trace->parent_span_id != 0) {
      tr->SetAttr("parent-span-id", FormatHex64(trace->parent_span_id));
    }
    tr->SetAttr("sampled", trace->sampled ? "true" : "false");
  }
  if (promise_request) {
    XmlElement* pr = header->AddChild("promise-request");
    pr->SetAttr("request-id",
                std::to_string(promise_request->request_id.value()));
    pr->SetAttr("duration-ms", std::to_string(promise_request->duration_ms));
    if (promise_request->queue_if_unavailable) {
      pr->SetAttr("queue", "true");
    }
    for (const Predicate& p : promise_request->predicates) {
      XmlElement* pe = pr->AddChild("predicate");
      pe->SetAttr("resource", p.resource_class());
      pe->set_text(p.ToString());
    }
    for (PromiseId id : promise_request->release_on_grant) {
      XmlElement* rel = pr->AddChild("release-on-grant");
      rel->SetAttr("promise-id", std::to_string(id.value()));
    }
  }
  if (promise_response) {
    XmlElement* resp = header->AddChild("promise-response");
    resp->SetAttr("promise-id",
                  std::to_string(promise_response->promise_id.value()));
    resp->SetAttr("result", std::string(PromiseResultCodeToString(
                                promise_response->result)));
    resp->SetAttr("duration-ms",
                  std::to_string(promise_response->granted_duration_ms));
    resp->SetAttr("correlation",
                  std::to_string(promise_response->correlation.value()));
    if (promise_response->pending_ticket != 0) {
      resp->SetAttr("ticket",
                    std::to_string(promise_response->pending_ticket));
    }
    if (!promise_response->reason.empty()) {
      resp->AddChild("reason")->set_text(promise_response->reason);
    }
    if (!promise_response->counter_offer.empty()) {
      resp->AddChild("counter-offer")
          ->set_text(promise_response->counter_offer);
    }
  }
  if (environment) {
    XmlElement* env = header->AddChild("environment");
    for (const EnvironmentHeader::Entry& e : environment->entries) {
      XmlElement* pe = env->AddChild("promise");
      pe->SetAttr("promise-id", std::to_string(e.promise.value()));
      pe->SetAttr("release-after", e.release_after ? "true" : "false");
    }
  }
  if (release) {
    XmlElement* rel = header->AddChild("release");
    for (PromiseId id : release->promises) {
      rel->AddChild("promise")->SetAttr("promise-id",
                                        std::to_string(id.value()));
    }
  }
  if (poll) {
    header->AddChild("poll")->SetAttr("ticket",
                                      std::to_string(poll->ticket));
  }
  if (overload) {
    XmlElement* ov = header->AddChild("overload");
    ov->SetAttr("reason", overload->reason);
    if (overload->retry_after_ms > 0) {
      ov->SetAttr("retry-after-ms", std::to_string(overload->retry_after_ms));
    }
  }
  if (route) {
    XmlElement* rt = header->AddChild("route");
    rt->SetAttr("shard", std::to_string(route->shard));
    rt->SetAttr("topology-version",
                std::to_string(route->topology_version));
  }

  XmlElement* body = root.AddChild("body");
  if (action) {
    XmlElement* a = body->AddChild("action");
    a->SetAttr("service", action->service);
    a->SetAttr("operation", action->operation);
    WriteParams(action->params, a);
  }
  if (action_result) {
    XmlElement* r = body->AddChild("action-result");
    r->SetAttr("ok", action_result->ok ? "true" : "false");
    if (!action_result->error.empty()) {
      r->AddChild("error")->set_text(action_result->error);
    }
    WriteParams(action_result->outputs, r);
  }
  return root.ToString(pretty ? 0 : -1);
}

Result<Envelope> Envelope::FromXml(std::string_view xml) {
  PROMISES_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root, ParseXml(xml));
  if (root->name() != "envelope") {
    return Status::InvalidArgument("root element must be <envelope>");
  }
  Envelope env;
  PROMISES_ASSIGN_OR_RETURN(uint64_t mid, ReadIdAttr(*root, "message-id"));
  env.message_id = MessageId(mid);
  env.from = root->Attr("from");
  env.to = root->Attr("to");
  if (root->HasAttr("deadline")) {
    PROMISES_ASSIGN_OR_RETURN(env.deadline,
                              ParseInt64(root->Attr("deadline")));
  }

  if (const XmlElement* header = root->Child("header")) {
    if (const XmlElement* tr = header->Child("trace")) {
      TraceContext ctx;
      if (!ParseTraceIdHex(tr->Attr("trace-id"), &ctx.trace_hi,
                           &ctx.trace_lo)) {
        return Status::InvalidArgument("bad <trace> trace-id '" +
                                       tr->Attr("trace-id") + "'");
      }
      if (!ParseHex64(tr->Attr("span-id"), &ctx.span_id)) {
        return Status::InvalidArgument("bad <trace> span-id '" +
                                       tr->Attr("span-id") + "'");
      }
      if (tr->HasAttr("parent-span-id") &&
          !ParseHex64(tr->Attr("parent-span-id"), &ctx.parent_span_id)) {
        return Status::InvalidArgument("bad <trace> parent-span-id '" +
                                       tr->Attr("parent-span-id") + "'");
      }
      ctx.sampled = tr->Attr("sampled") == "true";
      env.trace = ctx;
    }
    if (const XmlElement* pr = header->Child("promise-request")) {
      PromiseRequestHeader h;
      PROMISES_ASSIGN_OR_RETURN(uint64_t rid, ReadIdAttr(*pr, "request-id"));
      h.request_id = RequestId(rid);
      PROMISES_ASSIGN_OR_RETURN(h.duration_ms,
                                ParseInt64(pr->Attr("duration-ms")));
      h.queue_if_unavailable = pr->Attr("queue") == "true";
      for (const XmlElement* pe : pr->Children("predicate")) {
        PROMISES_ASSIGN_OR_RETURN(Predicate p, ParsePredicate(pe->text()));
        h.predicates.push_back(std::move(p));
      }
      for (const XmlElement* rel : pr->Children("release-on-grant")) {
        PROMISES_ASSIGN_OR_RETURN(uint64_t pid, ReadIdAttr(*rel, "promise-id"));
        h.release_on_grant.push_back(PromiseId(pid));
      }
      env.promise_request = std::move(h);
    }
    if (const XmlElement* resp = header->Child("promise-response")) {
      PromiseResponseHeader h;
      PROMISES_ASSIGN_OR_RETURN(uint64_t pid, ReadIdAttr(*resp, "promise-id"));
      h.promise_id = PromiseId(pid);
      const std::string& res = resp->Attr("result");
      if (res == "accepted") {
        h.result = PromiseResultCode::kAccepted;
      } else if (res == "rejected") {
        h.result = PromiseResultCode::kRejected;
      } else if (res == "pending") {
        h.result = PromiseResultCode::kPending;
      } else {
        return Status::InvalidArgument("bad promise-response result '" + res +
                                       "'");
      }
      PROMISES_ASSIGN_OR_RETURN(h.granted_duration_ms,
                                ParseInt64(resp->Attr("duration-ms")));
      PROMISES_ASSIGN_OR_RETURN(uint64_t cor, ReadIdAttr(*resp, "correlation"));
      h.correlation = RequestId(cor);
      if (resp->HasAttr("ticket")) {
        PROMISES_ASSIGN_OR_RETURN(uint64_t t, ReadIdAttr(*resp, "ticket"));
        h.pending_ticket = t;
      }
      if (const XmlElement* reason = resp->Child("reason")) {
        h.reason = reason->text();
      }
      if (const XmlElement* offer = resp->Child("counter-offer")) {
        h.counter_offer = offer->text();
      }
      env.promise_response = std::move(h);
    }
    if (const XmlElement* envh = header->Child("environment")) {
      EnvironmentHeader h;
      for (const XmlElement* pe : envh->Children("promise")) {
        PROMISES_ASSIGN_OR_RETURN(uint64_t pid, ReadIdAttr(*pe, "promise-id"));
        h.entries.push_back(
            {PromiseId(pid), pe->Attr("release-after") == "true"});
      }
      env.environment = std::move(h);
    }
    if (const XmlElement* rel = header->Child("release")) {
      ReleaseHeader h;
      for (const XmlElement* pe : rel->Children("promise")) {
        PROMISES_ASSIGN_OR_RETURN(uint64_t pid, ReadIdAttr(*pe, "promise-id"));
        h.promises.push_back(PromiseId(pid));
      }
      env.release = std::move(h);
    }
    if (const XmlElement* pe = header->Child("poll")) {
      PollHeader h;
      PROMISES_ASSIGN_OR_RETURN(h.ticket, ReadIdAttr(*pe, "ticket"));
      env.poll = std::move(h);
    }
    if (const XmlElement* ov = header->Child("overload")) {
      OverloadHeader h;
      h.reason = ov->Attr("reason");
      if (ov->HasAttr("retry-after-ms")) {
        PROMISES_ASSIGN_OR_RETURN(h.retry_after_ms,
                                  ParseInt64(ov->Attr("retry-after-ms")));
      }
      env.overload = std::move(h);
    }
    if (const XmlElement* rt = header->Child("route")) {
      RouteHeader h;
      PROMISES_ASSIGN_OR_RETURN(int64_t shard,
                                ParseInt64(rt->Attr("shard")));
      h.shard = static_cast<int32_t>(shard);
      PROMISES_ASSIGN_OR_RETURN(uint64_t tv,
                                ReadIdAttr(*rt, "topology-version"));
      h.topology_version = tv;
      env.route = std::move(h);
    }
  }

  if (const XmlElement* body = root->Child("body")) {
    if (const XmlElement* a = body->Child("action")) {
      ActionBody h;
      h.service = a->Attr("service");
      h.operation = a->Attr("operation");
      PROMISES_ASSIGN_OR_RETURN(h.params, ReadParams(*a));
      env.action = std::move(h);
    }
    if (const XmlElement* r = body->Child("action-result")) {
      ActionResultBody h;
      h.ok = r->Attr("ok") == "true";
      if (const XmlElement* e = r->Child("error")) h.error = e->text();
      PROMISES_ASSIGN_OR_RETURN(h.outputs, ReadParams(*r));
      env.action_result = std::move(h);
    }
  }
  return env;
}

std::string Envelope::Encode(EnvelopeEncoding encoding) const {
  if (encoding == EnvelopeEncoding::kXml) return ToXml();
  std::string out;
  out.reserve(128);
  BinaryWriter w(&out);
  w.Byte(kBinaryMagic);
  w.U64(message_id.value());
  w.Str(from);
  w.Str(to);
  w.S64(deadline);
  uint64_t mask = (trace ? kHasTrace : 0) |
                  (promise_request ? kHasPromiseRequest : 0) |
                  (promise_response ? kHasPromiseResponse : 0) |
                  (environment ? kHasEnvironment : 0) |
                  (release ? kHasRelease : 0) | (poll ? kHasPoll : 0) |
                  (overload ? kHasOverload : 0) | (route ? kHasRoute : 0) |
                  (action ? kHasAction : 0) |
                  (action_result ? kHasActionResult : 0);
  w.U64(mask);
  if (trace) {
    w.Fixed64(trace->trace_hi);
    w.Fixed64(trace->trace_lo);
    w.Fixed64(trace->span_id);
    w.Fixed64(trace->parent_span_id);
    w.Bool(trace->sampled);
  }
  if (promise_request) {
    w.U64(promise_request->request_id.value());
    w.S64(promise_request->duration_ms);
    w.Bool(promise_request->queue_if_unavailable);
    w.U64(promise_request->predicates.size());
    for (const Predicate& p : promise_request->predicates) w.Str(p.ToString());
    w.U64(promise_request->release_on_grant.size());
    for (PromiseId id : promise_request->release_on_grant) w.U64(id.value());
  }
  if (promise_response) {
    w.U64(promise_response->promise_id.value());
    w.Byte(static_cast<uint8_t>(promise_response->result));
    w.S64(promise_response->granted_duration_ms);
    w.U64(promise_response->correlation.value());
    w.Str(promise_response->reason);
    w.U64(promise_response->pending_ticket);
    w.Str(promise_response->counter_offer);
  }
  if (environment) {
    w.U64(environment->entries.size());
    for (const EnvironmentHeader::Entry& e : environment->entries) {
      w.U64(e.promise.value());
      w.Bool(e.release_after);
    }
  }
  if (release) {
    w.U64(release->promises.size());
    for (PromiseId id : release->promises) w.U64(id.value());
  }
  if (poll) w.U64(poll->ticket);
  if (overload) {
    w.Str(overload->reason);
    w.S64(overload->retry_after_ms);
  }
  if (route) {
    w.S64(route->shard);
    w.U64(route->topology_version);
  }
  if (action) {
    w.Str(action->service);
    w.Str(action->operation);
    w.Params(action->params);
  }
  if (action_result) {
    w.Bool(action_result->ok);
    w.Str(action_result->error);
    w.Params(action_result->outputs);
  }
  return out;
}

std::optional<EnvelopeEncoding> Envelope::Sniff(std::string_view bytes) {
  if (bytes.empty()) return std::nullopt;
  if (bytes.front() == '<') return EnvelopeEncoding::kXml;
  if (static_cast<uint8_t>(bytes.front()) == kBinaryMagic) {
    return EnvelopeEncoding::kBinary;
  }
  return std::nullopt;
}

Result<Envelope> Envelope::Decode(std::string_view bytes) {
  if (Sniff(bytes) == EnvelopeEncoding::kBinary) return DecodeBinary(bytes);
  return FromXml(bytes);
}

}  // namespace promises

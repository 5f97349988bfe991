#include "shard/topology.h"

#include "common/string_util.h"

namespace promises {

namespace {

bool ValidEndpointName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (c == '|' || c == ',' || c == '=' || c == '\n' || c == '\r') {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t ShardTopology::Fnv1a(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= static_cast<uint64_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

Result<ShardTopology> ShardTopology::Create(
    uint64_t version, std::vector<std::string> endpoints) {
  if (version == 0) {
    return Status::InvalidArgument("topology version must be >= 1");
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("topology needs at least one shard");
  }
  for (size_t i = 0; i < endpoints.size(); ++i) {
    if (!ValidEndpointName(endpoints[i])) {
      return Status::InvalidArgument("bad shard endpoint name '" +
                                     endpoints[i] + "'");
    }
    for (size_t j = 0; j < i; ++j) {
      if (endpoints[j] == endpoints[i]) {
        return Status::InvalidArgument("duplicate shard endpoint '" +
                                       endpoints[i] + "'");
      }
    }
  }
  ShardTopology t;
  t.version_ = version;
  t.endpoints_ = std::move(endpoints);
  return t;
}

Status ShardTopology::AddOverride(const std::string& cls, int shard) {
  if (cls.empty() || !ValidEndpointName(cls)) {
    return Status::InvalidArgument("bad override class name '" + cls + "'");
  }
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("override shard " + std::to_string(shard) +
                                   " out of range");
  }
  overrides_[cls] = shard;
  return Status::OK();
}

Result<int> ShardTopology::ShardOf(const std::string& cls) const {
  if (endpoints_.empty()) {
    return Status::FailedPrecondition("empty topology cannot route");
  }
  auto it = overrides_.find(cls);
  if (it != overrides_.end()) return it->second;
  return static_cast<int>(Fnv1a(cls) %
                          static_cast<uint64_t>(endpoints_.size()));
}

Result<std::string> ShardTopology::EndpointOf(const std::string& cls) const {
  PROMISES_ASSIGN_OR_RETURN(int shard, ShardOf(cls));
  return endpoints_[shard];
}

ShardTopology ShardTopology::WithVersion(uint64_t new_version) const {
  ShardTopology t = *this;
  t.version_ = new_version;
  return t;
}

std::string ShardTopology::ToString() const {
  std::string out =
      std::string("v").append(std::to_string(version_)).append("|");
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    if (i > 0) out += ",";
    out += endpoints_[i];
  }
  out += "|";
  bool first = true;
  for (const auto& [cls, shard] : overrides_) {
    if (!first) out += ",";
    first = false;
    out += cls + "=" + std::to_string(shard);
  }
  return out;
}

Result<ShardTopology> ShardTopology::Parse(const std::string& text) {
  std::vector<std::string> fields = Split(text, '|');
  if (fields.size() != 3 || fields[0].size() < 2 || fields[0][0] != 'v') {
    return Status::InvalidArgument("bad topology text '" + text + "'");
  }
  PROMISES_ASSIGN_OR_RETURN(int64_t version,
                            ParseInt64(fields[0].substr(1)));
  if (version <= 0) {
    return Status::InvalidArgument("bad topology version in '" + text + "'");
  }
  PROMISES_ASSIGN_OR_RETURN(
      ShardTopology topology,
      Create(static_cast<uint64_t>(version), Split(fields[1], ',')));
  if (!fields[2].empty()) {
    for (const std::string& entry : Split(fields[2], ',')) {
      std::vector<std::string> kv = Split(entry, '=');
      if (kv.size() != 2) {
        return Status::InvalidArgument("bad topology override '" + entry +
                                       "'");
      }
      PROMISES_ASSIGN_OR_RETURN(int64_t shard, ParseInt64(kv[1]));
      PROMISES_RETURN_IF_ERROR(
          topology.AddOverride(kv[0], static_cast<int>(shard)));
    }
  }
  return topology;
}

}  // namespace promises

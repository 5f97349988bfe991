// Predicate evaluation against resource state.
//
// The promise manager evaluates predicates "with the assistance of the
// appropriate resource manager" (§3). This module is the pure part:
// given property values / quantities / instance views it decides truth.
// The stateful part (reading the RM inside a transaction) lives in the
// core checkers.

#ifndef PROMISES_PREDICATE_EVALUATOR_H_
#define PROMISES_PREDICATE_EVALUATOR_H_

#include <vector>

#include "common/status.h"
#include "predicate/ast.h"
#include "resource/resource_manager.h"
#include "resource/schema.h"
#include "resource/value.h"

namespace promises {

/// Evaluates a property expression against one instance's properties.
///
/// A comparison whose property is absent from `props` is false (sparse
/// instances simply fail to match). When `schema` is provided and
/// declares the compared property `upgradeable`, an equality test also
/// accepts larger values (§3.3: "a promise can be satisfied ... by one
/// offering a 'better' value").
Result<bool> EvalExpr(const Expr& expr, const PropertyMap& props,
                      const Schema* schema = nullptr);

/// Evaluates quantity('pool') <op> amount given the pool quantity.
Result<bool> EvalQuantity(const Predicate& pred, int64_t quantity);

/// True when the instance matches the property predicate's expression
/// (availability is NOT considered here).
Result<bool> InstanceMatches(const Predicate& pred, const InstanceView& inst,
                             const Schema* schema = nullptr);

/// Same test against an instance's properties alone, for callers that
/// visit live records without copying them into an InstanceView.
Result<bool> InstanceMatches(const Predicate& pred,
                             const PropertyMap& properties,
                             const Schema* schema = nullptr);

/// Indexes into `instances` whose properties match `pred.match()`.
Result<std::vector<size_t>> MatchingInstances(
    const Predicate& pred, const std::vector<InstanceView>& instances,
    const Schema* schema = nullptr);

/// Validates that a predicate is well-formed against the resource
/// definitions in `rm`: the class exists with the right shape, property
/// names and literal types agree with the schema, and reservation
/// predicates use the supported direction (quantity >=, count >=).
Status ValidatePredicate(const Predicate& pred, const ResourceManager& rm);

}  // namespace promises

#endif  // PROMISES_PREDICATE_EVALUATOR_H_

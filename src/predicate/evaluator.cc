#include "predicate/evaluator.h"

namespace promises {

Result<bool> EvalExpr(const Expr& expr, const PropertyMap& props,
                      const Schema* schema) {
  switch (expr.kind()) {
    case Expr::Kind::kConst:
      return expr.const_value();
    case Expr::Kind::kCompare: {
      auto it = props.find(expr.property());
      if (it == props.end()) return false;
      CompareOp op = expr.op();
      if (schema != nullptr && op == CompareOp::kEq) {
        const PropertyDef* def = schema->Find(expr.property());
        if (def != nullptr && def->upgradeable) op = CompareOp::kGe;
      }
      return ApplyCompare(op, it->second, expr.literal());
    }
    case Expr::Kind::kNot: {
      PROMISES_ASSIGN_OR_RETURN(bool v, EvalExpr(*expr.lhs(), props, schema));
      return !v;
    }
    case Expr::Kind::kAnd: {
      PROMISES_ASSIGN_OR_RETURN(bool l, EvalExpr(*expr.lhs(), props, schema));
      if (!l) return false;
      return EvalExpr(*expr.rhs(), props, schema);
    }
    case Expr::Kind::kOr: {
      PROMISES_ASSIGN_OR_RETURN(bool l, EvalExpr(*expr.lhs(), props, schema));
      if (l) return true;
      return EvalExpr(*expr.rhs(), props, schema);
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> EvalQuantity(const Predicate& pred, int64_t quantity) {
  if (pred.kind() != PredicateKind::kQuantity) {
    return Status::InvalidArgument("predicate is not a quantity predicate");
  }
  return ApplyCompare(pred.op(), Value(quantity), Value(pred.amount()));
}

Result<bool> InstanceMatches(const Predicate& pred, const InstanceView& inst,
                             const Schema* schema) {
  return InstanceMatches(pred, inst.properties, schema);
}

Result<bool> InstanceMatches(const Predicate& pred,
                             const PropertyMap& properties,
                             const Schema* schema) {
  if (pred.kind() != PredicateKind::kProperty) {
    return Status::InvalidArgument("predicate is not a property predicate");
  }
  return EvalExpr(*pred.match(), properties, schema);
}

Result<std::vector<size_t>> MatchingInstances(
    const Predicate& pred, const std::vector<InstanceView>& instances,
    const Schema* schema) {
  std::vector<size_t> out;
  for (size_t i = 0; i < instances.size(); ++i) {
    PROMISES_ASSIGN_OR_RETURN(bool m,
                              InstanceMatches(pred, instances[i], schema));
    if (m) out.push_back(i);
  }
  return out;
}

namespace {

Status ValidateExprAgainstSchema(const Expr& expr, const Schema& schema) {
  switch (expr.kind()) {
    case Expr::Kind::kConst:
      return Status::OK();
    case Expr::Kind::kCompare: {
      const PropertyDef* def = schema.Find(expr.property());
      if (def == nullptr) {
        return Status::InvalidArgument("property '" + expr.property() +
                                       "' is not exported by the schema");
      }
      bool type_ok =
          expr.literal().type() == def->type ||
          (expr.literal().is_numeric() &&
           (def->type == ValueType::kInt || def->type == ValueType::kDouble));
      if (!type_ok) {
        return Status::InvalidArgument(
            "property '" + expr.property() + "' has type " +
            std::string(ValueTypeToString(def->type)) +
            " but literal has type " +
            std::string(ValueTypeToString(expr.literal().type())));
      }
      return Status::OK();
    }
    case Expr::Kind::kNot:
      return ValidateExprAgainstSchema(*expr.lhs(), schema);
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      PROMISES_RETURN_IF_ERROR(ValidateExprAgainstSchema(*expr.lhs(), schema));
      return ValidateExprAgainstSchema(*expr.rhs(), schema);
  }
  return Status::Internal("unreachable expression kind");
}

}  // namespace

Status ValidatePredicate(const Predicate& pred, const ResourceManager& rm) {
  switch (pred.kind()) {
    case PredicateKind::kQuantity:
      if (!rm.HasPool(pred.resource_class())) {
        return Status::NotFound("pool '" + pred.resource_class() +
                                "' not found");
      }
      if (pred.op() != CompareOp::kGe) {
        return Status::InvalidArgument(
            "reservation quantity predicates must use '>='");
      }
      if (pred.amount() < 0) {
        return Status::InvalidArgument("quantity amount must be >= 0");
      }
      return Status::OK();
    case PredicateKind::kNamed:
      if (!rm.HasInstanceClass(pred.resource_class())) {
        return Status::NotFound("instance class '" + pred.resource_class() +
                                "' not found");
      }
      return Status::OK();
    case PredicateKind::kProperty: {
      const Schema* schema = rm.GetSchema(pred.resource_class());
      if (schema == nullptr) {
        return Status::NotFound("instance class '" + pred.resource_class() +
                                "' not found");
      }
      if (pred.count() < 0) {
        return Status::InvalidArgument("count must be >= 0");
      }
      return ValidateExprAgainstSchema(*pred.match(), *schema);
    }
  }
  return Status::Internal("unreachable predicate kind");
}

}  // namespace promises

#include "predicate/ast.h"

namespace promises {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "==";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

Result<bool> ApplyCompare(CompareOp op, const Value& lhs, const Value& rhs) {
  if (op == CompareOp::kEq) return lhs.Equals(rhs);
  if (op == CompareOp::kNe) return !lhs.Equals(rhs);
  PROMISES_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs));
  switch (op) {
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
    default:
      return Status::Internal("unreachable compare op");
  }
}

ExprPtr Expr::Const(bool value) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kConst));
  e->const_value_ = value;
  return e;
}

ExprPtr Expr::Compare(std::string property, CompareOp op, Value literal) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kCompare));
  e->property_ = std::move(property);
  e->op_ = op;
  e->literal_ = std::move(literal);
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kAnd));
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kOr));
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kNot));
  e->lhs_ = std::move(operand);
  return e;
}

void Expr::CollectProperties(std::set<std::string>* out) const {
  switch (kind_) {
    case Kind::kConst:
      return;
    case Kind::kCompare:
      out->insert(property_);
      return;
    case Kind::kNot:
      lhs_->CollectProperties(out);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      lhs_->CollectProperties(out);
      rhs_->CollectProperties(out);
      return;
  }
}

namespace {

std::string QuoteString(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "\\'";
    else out += c;
  }
  out += "'";
  return out;
}

std::string LiteralToSource(const Value& v) {
  if (v.is_string()) return QuoteString(v.as_string());
  return v.ToString();
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kConst:
      return const_value_ ? "true" : "false";
    case Kind::kCompare:
      return property_ + " " + std::string(CompareOpToString(op_)) + " " +
             LiteralToSource(literal_);
    case Kind::kNot:
      return std::string("!(").append(lhs_->ToString()).append(")");
    case Kind::kAnd:
      return std::string("(")
          .append(lhs_->ToString())
          .append(" && ")
          .append(rhs_->ToString())
          .append(")");
    case Kind::kOr:
      return std::string("(")
          .append(lhs_->ToString())
          .append(" || ")
          .append(rhs_->ToString())
          .append(")");
  }
  return "";
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kConst:
      return const_value_ == other.const_value_;
    case Kind::kCompare:
      return property_ == other.property_ && op_ == other.op_ &&
             literal_.type() == other.literal_.type() &&
             literal_.Equals(other.literal_);
    case Kind::kNot:
      return lhs_->Equals(*other.lhs_);
    case Kind::kAnd:
    case Kind::kOr:
      return lhs_->Equals(*other.lhs_) && rhs_->Equals(*other.rhs_);
  }
  return false;
}

std::string_view PredicateKindToString(PredicateKind k) {
  switch (k) {
    case PredicateKind::kQuantity: return "quantity";
    case PredicateKind::kNamed: return "named";
    case PredicateKind::kProperty: return "property";
  }
  return "unknown";
}

Predicate Predicate::Quantity(std::string pool, CompareOp op,
                              int64_t amount) {
  Predicate p;
  p.kind_ = PredicateKind::kQuantity;
  p.resource_class_ = std::move(pool);
  p.op_ = op;
  p.amount_ = amount;
  return p;
}

Predicate Predicate::Named(std::string cls, std::string instance_id) {
  Predicate p;
  p.kind_ = PredicateKind::kNamed;
  p.resource_class_ = std::move(cls);
  p.instance_id_ = std::move(instance_id);
  return p;
}

Predicate Predicate::Property(std::string cls, ExprPtr match,
                              int64_t count) {
  Predicate p;
  p.kind_ = PredicateKind::kProperty;
  p.resource_class_ = std::move(cls);
  p.match_ = std::move(match);
  p.amount_ = count;
  return p;
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case PredicateKind::kQuantity:
      return "quantity(" + QuoteString(resource_class_) + ") " +
             std::string(CompareOpToString(op_)) + " " +
             std::to_string(amount_);
    case PredicateKind::kNamed:
      return "available(" + QuoteString(resource_class_) + ", " +
             QuoteString(instance_id_) + ")";
    case PredicateKind::kProperty:
      return "count(" + QuoteString(resource_class_) + " where " +
             match_->ToString() + ") >= " + std::to_string(amount_);
  }
  return "";
}

bool Predicate::Equals(const Predicate& other) const {
  if (kind_ != other.kind_ || resource_class_ != other.resource_class_) {
    return false;
  }
  switch (kind_) {
    case PredicateKind::kQuantity:
      return op_ == other.op_ && amount_ == other.amount_;
    case PredicateKind::kNamed:
      return instance_id_ == other.instance_id_;
    case PredicateKind::kProperty:
      return amount_ == other.amount_ && match_->Equals(*other.match_);
  }
  return false;
}

}  // namespace promises

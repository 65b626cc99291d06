#include "query/query_parser.h"

#include <cctype>
#include <stdexcept>

#include "util/string_util.h"

namespace flexrel {

namespace {

// Hand-rolled tokenizer + recursive-descent parser.
class FormulaParser {
 public:
  FormulaParser(AttrCatalog* catalog, const std::string& text)
      : catalog_(catalog), text_(text) {}

  Result<ExprPtr> ParseFull() {
    FLEXREL_ASSIGN_OR_RETURN(ExprPtr e, ParseOr());
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          StrCat("trailing input at offset ", pos_, ": '",
                 text_.substr(pos_), "'"));
    }
    return e;
  }

  Result<ExprPtr> ParseOr() {
    FLEXREL_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (ConsumeKeyword("OR")) {
      FLEXREL_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Expr::Or(left, right);
    }
    return left;
  }

  size_t position() const { return pos_; }
  bool ConsumeKeywordPublic(const std::string& kw) { return ConsumeKeyword(kw); }
  void SkipWsPublic() { SkipWs(); }
  bool AtEnd() {
    SkipWs();
    return pos_ == text_.size();
  }
  Result<std::string> ParseIdentifierPublic() { return ParseIdentifier(); }
  bool ConsumeCharPublic(char c) { return ConsumeChar(c); }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ConsumeChar(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // Case-insensitive keyword match on a word boundary.
  bool ConsumeKeyword(const std::string& kw) {
    SkipWs();
    if (pos_ + kw.size() > text_.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text_[pos_ + i])) != kw[i]) {
        return false;
      }
    }
    size_t after = pos_ + kw.size();
    if (after < text_.size()) {
      char c = text_[after];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-') {
        return false;  // part of a longer identifier
      }
    }
    pos_ = after;
    return true;
  }

  Result<std::string> ParseIdentifier() {
    SkipWs();
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (start == pos_) {
      return Status::InvalidArgument(
          StrCat("expected identifier at offset ", start));
    }
    return text_.substr(start, pos_ - start);
  }

  Result<Value> ParseLiteral() {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("expected literal at end of input");
    }
    char c = text_[pos_];
    if (c == '\'') {
      ++pos_;
      std::string s;
      while (pos_ < text_.size() && text_[pos_] != '\'') {
        s.push_back(text_[pos_++]);
      }
      if (pos_ == text_.size()) {
        return Status::InvalidArgument("unterminated string literal");
      }
      ++pos_;  // closing quote
      return Value::Str(std::move(s));
    }
    if (ConsumeKeyword("TRUE")) return Value::Bool(true);
    if (ConsumeKeyword("FALSE")) return Value::Bool(false);
    // Number: [-]digits[.digits]
    size_t start = pos_;
    if (c == '-' || c == '+') ++pos_;
    bool digits = false, dot = false;
    while (pos_ < text_.size()) {
      char d = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(d))) {
        digits = true;
        ++pos_;
      } else if (d == '.' && !dot) {
        dot = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) {
      return Status::InvalidArgument(
          StrCat("expected literal at offset ", start));
    }
    std::string token = text_.substr(start, pos_ - start);
    try {
      if (dot) return Value::Real(std::stod(token));
      return Value::Int(std::stoll(token));
    } catch (const std::out_of_range&) {
      return Status::InvalidArgument(
          StrCat("numeric literal out of range at offset ", start));
    }
  }

  Result<CmpOp> ParseCmpOp() {
    SkipWs();
    auto two = [&](const char* s) {
      return pos_ + 1 < text_.size() && text_[pos_] == s[0] &&
             text_[pos_ + 1] == s[1];
    };
    if (two("<=")) {
      pos_ += 2;
      return CmpOp::kLe;
    }
    if (two(">=")) {
      pos_ += 2;
      return CmpOp::kGe;
    }
    if (two("<>")) {
      pos_ += 2;
      return CmpOp::kNe;
    }
    if (pos_ < text_.size()) {
      switch (text_[pos_]) {
        case '=':
          ++pos_;
          return CmpOp::kEq;
        case '<':
          ++pos_;
          return CmpOp::kLt;
        case '>':
          ++pos_;
          return CmpOp::kGt;
        default:
          break;
      }
    }
    return Status::InvalidArgument(
        StrCat("expected comparison operator at offset ", pos_));
  }

  Result<ExprPtr> ParseAnd() {
    FLEXREL_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (ConsumeKeyword("AND")) {
      FLEXREL_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = Expr::And(left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (ConsumeKeyword("NOT")) {
      FLEXREL_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
      return Expr::Not(inner);
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    SkipWs();
    if (ConsumeChar('(')) {
      FLEXREL_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
      if (!ConsumeChar(')')) {
        return Status::InvalidArgument("expected ')'");
      }
      return inner;
    }
    if (ConsumeKeyword("EXISTS")) {
      if (!ConsumeChar('(')) {
        return Status::InvalidArgument("expected '(' after EXISTS");
      }
      FLEXREL_ASSIGN_OR_RETURN(std::string name, ParseIdentifier());
      if (!ConsumeChar(')')) {
        return Status::InvalidArgument("expected ')' after EXISTS attribute");
      }
      return Expr::Exists(catalog_->Intern(name));
    }
    if (ConsumeKeyword("TRUE")) return Expr::Const(TriBool::kTrue);
    if (ConsumeKeyword("FALSE")) return Expr::Const(TriBool::kFalse);

    FLEXREL_ASSIGN_OR_RETURN(std::string name, ParseIdentifier());
    AttrId attr = catalog_->Intern(name);
    if (ConsumeKeyword("IN")) {
      if (!ConsumeChar('(')) {
        return Status::InvalidArgument("expected '(' after IN");
      }
      std::vector<Value> values;
      while (true) {
        FLEXREL_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        values.push_back(std::move(v));
        if (ConsumeChar(',')) continue;
        if (ConsumeChar(')')) break;
        return Status::InvalidArgument("expected ',' or ')' in IN list");
      }
      return Expr::In(attr, std::move(values));
    }
    FLEXREL_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp());
    FLEXREL_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
    return Expr::Compare(attr, op, std::move(literal));
  }

  AttrCatalog* catalog_;
  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<ExprPtr> ParseFormula(AttrCatalog* catalog, const std::string& text) {
  return FormulaParser(catalog, text).ParseFull();
}

Result<ParsedQuery> ParseQuery(AttrCatalog* catalog, const std::string& text) {
  FormulaParser p(catalog, text);
  if (!p.ConsumeKeywordPublic("SELECT")) {
    return Status::InvalidArgument("query must start with SELECT");
  }
  ParsedQuery q;
  p.SkipWsPublic();
  if (p.ConsumeCharPublic('*')) {
    q.select_all = true;
  } else {
    while (true) {
      FLEXREL_ASSIGN_OR_RETURN(std::string name, p.ParseIdentifierPublic());
      q.projection.Insert(catalog->Intern(name));
      if (!p.ConsumeCharPublic(',')) break;
    }
  }
  if (p.ConsumeKeywordPublic("WHERE")) {
    FLEXREL_ASSIGN_OR_RETURN(q.where, p.ParseOr());
  } else {
    q.where = Expr::Const(TriBool::kTrue);
  }
  if (!p.AtEnd()) {
    return Status::InvalidArgument(
        StrCat("trailing input at offset ", p.position()));
  }
  return q;
}

PlanPtr BuildQueryPlan(const ParsedQuery& query,
                       const FlexibleRelation* relation) {
  PlanPtr plan = Plan::Scan(relation);
  plan = Plan::Select(plan, query.where);
  if (!query.select_all) {
    plan = Plan::Project(plan, query.projection);
  }
  return plan;
}

}  // namespace flexrel

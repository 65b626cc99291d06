#include "query/query_parser.h"

#include <gtest/gtest.h>

#include "algebra/evaluate.h"
#include "optimizer/guard_analysis.h"
#include "workload/paper_examples.h"

namespace flexrel {
namespace {

class QueryParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ex = MakeJobtypeExample();
    ASSERT_TRUE(ex.ok()) << ex.status();
    ex_ = std::move(ex).value();
  }
  std::unique_ptr<JobtypeExample> ex_;
};

TEST_F(QueryParserTest, ComparisonsAndLiterals) {
  auto e = ParseFormula(&ex_->catalog, "salary > 5000");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(e.value()->kind(), ExprKind::kCompare);
  EXPECT_EQ(e.value()->op(), CmpOp::kGt);
  EXPECT_EQ(e.value()->literal(), Value::Int(5000));

  EXPECT_TRUE(ParseFormula(&ex_->catalog, "salary <= -3").ok());
  EXPECT_TRUE(ParseFormula(&ex_->catalog, "salary <> 0").ok());
  auto real = ParseFormula(&ex_->catalog, "salary = 1.5");
  ASSERT_TRUE(real.ok());
  EXPECT_EQ(real.value()->literal().type(), ValueType::kDouble);
  auto str = ParseFormula(&ex_->catalog, "jobtype = 'secretary'");
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str.value()->literal(), Value::Str("secretary"));
  auto boolean = ParseFormula(&ex_->catalog, "flag = true");
  ASSERT_TRUE(boolean.ok());
  EXPECT_EQ(boolean.value()->literal(), Value::Bool(true));
}

TEST_F(QueryParserTest, Example4FormulaParsesAndEvaluates) {
  // The paper's Example-4 selection plus the type guard, in concrete syntax.
  auto e = ParseFormula(
      &ex_->catalog,
      "salary > 5000 AND jobtype = 'secretary' AND EXISTS(typing-speed)");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_TRUE(e.value()->Accepts(ex_->MakeSecretary(6000, 300)));
  EXPECT_FALSE(e.value()->Accepts(ex_->MakeSecretary(4000, 300)));
  EXPECT_FALSE(e.value()->Accepts(ex_->MakeSalesman(9000, 5)));
  // And the optimizer treats the parsed guard exactly like a built one.
  GuardRewrite r = EliminateRedundantGuards(e.value(), {ex_->ead});
  EXPECT_EQ(r.guards_eliminated, 1u);
}

TEST_F(QueryParserTest, PrecedenceAndParens) {
  // AND binds tighter than OR.
  auto e = ParseFormula(&ex_->catalog,
                        "salary > 1 OR salary < -1 AND jobtype = 'salesman'");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->kind(), ExprKind::kOr);
  auto p = ParseFormula(
      &ex_->catalog,
      "(salary > 1 OR salary < -1) AND NOT jobtype = 'salesman'");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value()->kind(), ExprKind::kAnd);
}

TEST_F(QueryParserTest, InList) {
  auto e = ParseFormula(&ex_->catalog,
                        "jobtype IN ('secretary', 'salesman')");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(e.value()->kind(), ExprKind::kIn);
  EXPECT_EQ(e.value()->values().size(), 2u);
  EXPECT_TRUE(e.value()->Accepts(ex_->MakeSalesman(1, 2)));
  EXPECT_FALSE(e.value()->Accepts(ex_->MakeEngineer(1, 2)));
}

TEST_F(QueryParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(ParseFormula(&ex_->catalog,
                           "salary > 1 and jobtype = 'x' or exists(salary)")
                  .ok());
  // Identifiers are not keywords: an attribute named ANDroid parses.
  EXPECT_TRUE(ParseFormula(&ex_->catalog, "ANDroid = 1").ok());
}

TEST_F(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseFormula(&ex_->catalog, "").ok());
  EXPECT_FALSE(ParseFormula(&ex_->catalog, "salary >").ok());
  EXPECT_FALSE(ParseFormula(&ex_->catalog, "salary 5").ok());
  EXPECT_FALSE(ParseFormula(&ex_->catalog, "(salary > 1").ok());
  EXPECT_FALSE(ParseFormula(&ex_->catalog, "salary = 'unterminated").ok());
  EXPECT_FALSE(ParseFormula(&ex_->catalog, "salary > 1 garbage").ok());
  EXPECT_FALSE(ParseFormula(&ex_->catalog, "EXISTS salary").ok());
  EXPECT_FALSE(ParseFormula(&ex_->catalog, "jobtype IN ()").ok());
}

TEST_F(QueryParserTest, OutOfRangeNumericLiteralsAreErrors) {
  // Literals past int64 / double range are rejected with the offending
  // offset instead of escaping as an exception.
  const std::string huge_int(400, '9');
  const std::string huge_real = huge_int + ".5";
  for (const std::string& literal :
       {std::string("99999999999999999999"), huge_int, huge_real}) {
    auto e = ParseFormula(&ex_->catalog, "salary = " + literal);
    ASSERT_FALSE(e.ok()) << literal;
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(e.status().message().find("offset 9"), std::string::npos)
        << e.status();
    auto q = ParseQuery(&ex_->catalog,
                        "SELECT * WHERE salary > 1 AND salary = " + literal);
    ASSERT_FALSE(q.ok()) << literal;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(QueryParserTest, SelectStarWithWhere) {
  auto q = ParseQuery(&ex_->catalog,
                      "SELECT * WHERE jobtype = 'secretary'");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q.value().select_all);
  auto out = Evaluate(BuildQueryPlan(q.value(), &ex_->relation));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 1u);
  EXPECT_TRUE(out.value().row(0).Has(ex_->typing_speed));
}

TEST_F(QueryParserTest, ProjectionList) {
  auto q = ParseQuery(&ex_->catalog,
                      "SELECT salary, jobtype WHERE salary >= 5000");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_FALSE(q.value().select_all);
  EXPECT_EQ(q.value().projection,
            (AttrSet{ex_->salary, ex_->jobtype}));
  auto out = Evaluate(BuildQueryPlan(q.value(), &ex_->relation));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);  // engineer + salesman
  for (const Tuple& t : out.value().rows()) {
    EXPECT_EQ(t.attrs(), (AttrSet{ex_->salary, ex_->jobtype}));
  }
  // Theorem 4.3 rule (2) applies to the parsed pipeline, too.
  EXPECT_TRUE(out.value().deps().ads().empty() ||
              out.value().deps().ads()[0].lhs.IsSubsetOf(
                  q.value().projection));
}

TEST_F(QueryParserTest, QueryWithoutWhere) {
  auto q = ParseQuery(&ex_->catalog, "SELECT *");
  ASSERT_TRUE(q.ok());
  auto out = Evaluate(BuildQueryPlan(q.value(), &ex_->relation));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), ex_->relation.size());
}

TEST_F(QueryParserTest, QueryErrors) {
  EXPECT_FALSE(ParseQuery(&ex_->catalog, "FETCH *").ok());
  EXPECT_FALSE(ParseQuery(&ex_->catalog, "SELECT").ok());
  EXPECT_FALSE(ParseQuery(&ex_->catalog, "SELECT * WHERE").ok());
  EXPECT_FALSE(ParseQuery(&ex_->catalog, "SELECT * WHERE x = 1 extra").ok());
}

}  // namespace
}  // namespace flexrel

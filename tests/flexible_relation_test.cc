#include "core/flexible_relation.h"

#include <gtest/gtest.h>

#include "workload/paper_examples.h"

namespace flexrel {
namespace {

class FlexibleRelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ex = MakeJobtypeExample();
    ASSERT_TRUE(ex.ok()) << ex.status();
    ex_ = std::move(ex).value();
  }
  std::unique_ptr<JobtypeExample> ex_;
};

TEST_F(FlexibleRelationTest, BaseRelationPreloadsThreeTuples) {
  EXPECT_EQ(ex_->relation.size(), 3u);
  EXPECT_TRUE(ex_->relation.has_checker());
  EXPECT_TRUE(ex_->relation.SatisfiesDeclaredDeps());
}

TEST_F(FlexibleRelationTest, InsertTypeChecks) {
  EXPECT_TRUE(ex_->relation.Insert(ex_->MakeSecretary(100, 100)).ok());
  Status bad = ex_->relation.Insert(ex_->MakeMistypedSalesman());
  EXPECT_EQ(bad.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(bad.message().find("insert into employee"), std::string::npos);
}

TEST_F(FlexibleRelationTest, SetSemanticsRejectDuplicates) {
  Tuple t = ex_->MakeSecretary(123, 456);
  EXPECT_TRUE(ex_->relation.Insert(t).ok());
  EXPECT_EQ(ex_->relation.Insert(t).code(), StatusCode::kAlreadyExists);
}

TEST_F(FlexibleRelationTest, HeterogeneousTuplesCoexist) {
  AttrSet shapes;
  for (const Tuple& t : ex_->relation.rows()) {
    shapes = shapes.Union(t.attrs());
  }
  // All seven attributes appear across the instance even though no single
  // tuple carries them all.
  EXPECT_EQ(shapes.size(), 7u);
  for (const Tuple& t : ex_->relation.rows()) {
    EXPECT_LT(t.size(), 7u);
  }
}

TEST_F(FlexibleRelationTest, UpdateValueNoTypeChange) {
  auto delta = ex_->relation.Update(0, ex_->salary, Value::Int(7777));
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_TRUE(delta.value().IsNoop());
  EXPECT_EQ(*ex_->relation.row(0).Get(ex_->salary), Value::Int(7777));
}

TEST_F(FlexibleRelationTest, UpdateJobtypeTriggersTypeChange) {
  // Row 0 is the secretary. Flipping jobtype to 'salesman' demands the
  // salesman attributes; supply them via `fill`.
  Tuple fill;
  fill.Set(ex_->products, Value::Int(3));
  fill.Set(ex_->sales_commission, Value::Int(11));
  auto delta = ex_->relation.Update(0, ex_->jobtype, Value::Str("salesman"),
                                    fill);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_EQ(delta.value().to_add,
            (AttrSet{ex_->products, ex_->sales_commission}));
  EXPECT_EQ(delta.value().to_remove,
            (AttrSet{ex_->typing_speed, ex_->foreign_languages}));
  const Tuple& updated = ex_->relation.row(0);
  EXPECT_FALSE(updated.Has(ex_->typing_speed));
  EXPECT_EQ(*updated.Get(ex_->sales_commission), Value::Int(11));
  EXPECT_TRUE(ex_->relation.SatisfiesDeclaredDeps());
}

TEST_F(FlexibleRelationTest, UpdateWithoutFillFailsPrecondition) {
  auto delta = ex_->relation.Update(0, ex_->jobtype, Value::Str("salesman"));
  EXPECT_EQ(delta.status().code(), StatusCode::kFailedPrecondition);
  // The relation is unchanged.
  EXPECT_TRUE(ex_->relation.row(0).Has(ex_->typing_speed));
}

TEST_F(FlexibleRelationTest, UpdateOutOfRange) {
  EXPECT_EQ(ex_->relation.Update(99, ex_->salary, Value::Int(1))
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST_F(FlexibleRelationTest, DerivedRelationSkipsChecks) {
  DependencySet deps;
  deps.AddAd(AttrDep{AttrSet{ex_->jobtype}, AttrSet{ex_->typing_speed}});
  FlexibleRelation derived = FlexibleRelation::Derived("d", deps);
  EXPECT_FALSE(derived.has_checker());
  derived.InsertUnchecked(ex_->MakeMistypedSalesman());  // no complaint
  EXPECT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived.deps().ads().size(), 1u);
}

TEST_F(FlexibleRelationTest, ActiveAttrs) {
  FlexibleRelation derived = FlexibleRelation::Derived("d", DependencySet());
  EXPECT_EQ(derived.ActiveAttrs(), AttrSet());
  derived.InsertUnchecked(ex_->MakeSalesman(1, 2));
  EXPECT_EQ(derived.ActiveAttrs(),
            (AttrSet{ex_->salary, ex_->jobtype, ex_->products,
                     ex_->sales_commission}));

  // Rows over pairwise disjoint attribute sets: the union must take every
  // row's attributes, in whatever order they arrive.
  FlexibleRelation disjoint = FlexibleRelation::Derived("x", DependencySet());
  disjoint.InsertUnchecked(Tuple::FromPairs({{7, Value::Int(1)}}));
  disjoint.InsertUnchecked(
      Tuple::FromPairs({{2, Value::Int(2)}, {3, Value::Null()}}));
  disjoint.InsertUnchecked(Tuple());
  disjoint.InsertUnchecked(Tuple::FromPairs({{0, Value::Str("a")}}));
  EXPECT_EQ(disjoint.ActiveAttrs(), (AttrSet{0, 2, 3, 7}));
}

TEST_F(FlexibleRelationTest, AbbreviatedDepsDerivedFromEads) {
  ASSERT_EQ(ex_->relation.deps().ads().size(), 1u);
  const AttrDep& ad = ex_->relation.deps().ads()[0];
  EXPECT_EQ(ad.lhs, AttrSet{ex_->jobtype});
  EXPECT_EQ(ad.rhs.size(), 5u);
}

}  // namespace
}  // namespace flexrel

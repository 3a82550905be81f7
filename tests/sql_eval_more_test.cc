// Additional evaluator coverage: an operator/behavior table driven by
// TEST_P, plus aggregation edge cases not covered by sql_test.cc.
#include <gtest/gtest.h>

#include <ostream>

#include "astrolabe/sql/eval.h"
#include "astrolabe/sql/parser.h"

namespace nw::astrolabe::sql {
namespace {

Row FixtureRow() {
  Row r;
  r["i"] = std::int64_t{7};
  r["j"] = std::int64_t{-3};
  r["d"] = 2.5;
  r["s"] = "news";
  r["t"] = true;
  r["f"] = false;
  return r;
}

// ---- scalar operator table ----

struct ExprCase {
  const char* expr;
  const char* expected;  // ToString of the result; "null" for null
};

// Names each case by its expression and expected value instead of gtest's
// byte dump of the two pointers.
void PrintTo(const ExprCase& c, std::ostream* os) {
  *os << c.expr << " -> " << c.expected;
}

class ScalarTable : public ::testing::TestWithParam<ExprCase> {};

TEST_P(ScalarTable, EvaluatesToExpected) {
  const ExprCase& c = GetParam();
  AttrValue v = EvalScalar(*ParseExpression(c.expr), FixtureRow());
  EXPECT_EQ(v.ToString(), c.expected) << c.expr;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, ScalarTable,
    ::testing::Values(ExprCase{"i + j", "4"}, ExprCase{"i - j", "10"},
                      ExprCase{"i * j", "-21"}, ExprCase{"j * j", "9"},
                      ExprCase{"i / 2", "3.5"},   // division is real-valued
                      ExprCase{"i % 4", "3"}, ExprCase{"j % 2", "-1"},
                      ExprCase{"-d", "-2.5"}, ExprCase{"i + d", "9.5"},
                      ExprCase{"1/0", "null"}, ExprCase{"i % 0", "null"}));

INSTANTIATE_TEST_SUITE_P(
    Comparisons, ScalarTable,
    ::testing::Values(ExprCase{"i > j", "true"}, ExprCase{"i < j", "false"},
                      ExprCase{"i >= 7", "true"}, ExprCase{"i <= 6", "false"},
                      ExprCase{"i = 7", "true"}, ExprCase{"i != 7", "false"},
                      ExprCase{"d = 2.5", "true"},
                      ExprCase{"i = d", "false"},  // 7 vs 2.5
                      ExprCase{"s = 'news'", "true"},
                      ExprCase{"s < 'z'", "true"},
                      ExprCase{"s > 'news'", "false"}));

INSTANTIATE_TEST_SUITE_P(
    Logic, ScalarTable,
    ::testing::Values(ExprCase{"t AND f", "false"}, ExprCase{"t OR f", "true"},
                      ExprCase{"NOT t", "false"}, ExprCase{"NOT f", "true"},
                      ExprCase{"f AND missing", "false"},  // 3VL short-circuit
                      ExprCase{"t OR missing", "true"},
                      ExprCase{"t AND missing", "null"},
                      ExprCase{"f OR missing", "null"},
                      ExprCase{"NOT missing", "null"}));

INSTANTIATE_TEST_SUITE_P(
    Builtins, ScalarTable,
    ::testing::Values(ExprCase{"COALESCE(missing, missing, i)", "7"},
                      ExprCase{"COALESCE(missing, missing)", "null"},
                      ExprCase{"IF(t, 'yes', 'no')", "'yes'"},
                      ExprCase{"IF(f, 'yes', 'no')", "'no'"},
                      ExprCase{"IF(missing, 1, 2)", "null"},
                      ExprCase{"MINOF(i, j)", "-3"},
                      ExprCase{"MAXOF(d, 9.5)", "9.5"},
                      ExprCase{"MINOF(missing, i)", "7"},
                      ExprCase{"ISNULL(missing)", "true"},
                      ExprCase{"ISNULL(i)", "false"},
                      ExprCase{"LEN(s)", "4"},
                      ExprCase{"CONTAINS(s, 'ew')", "true"},
                      ExprCase{"CONTAINS(s, 'x')", "false"},
                      ExprCase{"s + '!' ", "'news!'"}));

// ---- aggregation edge cases ----

Table TableOf(std::vector<Row> rows) {
  Table t;
  std::size_t k = 0;
  for (Row& r : rows) {
    RowEntry e;
    e.attrs = std::move(r);
    e.version = 1;
    t.MergeEntry("r" + std::to_string(k++), e, 0.0);
  }
  return t;
}

TEST(AggMore, TopWithFewerRowsThanK) {
  Table t = TableOf({{{"v", AttrValue(std::int64_t{1})},
                      {"k", AttrValue(std::int64_t{10})}},
                     {{"v", AttrValue(std::int64_t{2})},
                      {"k", AttrValue(std::int64_t{5})}}});
  Row r = EvalQuery(ParseQuery("SELECT TOP(9, v ORDER BY k) AS t"), t);
  const ValueList& top = r.at("t").AsList();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].AsInt(), 2);  // k=5 first
  EXPECT_EQ(top[1].AsInt(), 1);
}

TEST(AggMore, TopSkipsRowsWithNullKey) {
  Table t = TableOf({{{"v", AttrValue(std::int64_t{1})}},  // no key attr
                     {{"v", AttrValue(std::int64_t{2})},
                      {"k", AttrValue(std::int64_t{5})}}});
  Row r = EvalQuery(ParseQuery("SELECT TOP(5, v ORDER BY k) AS t"), t);
  EXPECT_EQ(r.at("t").AsList().size(), 1u);
}

TEST(AggMore, AvgOfIntsIsDouble) {
  Table t = TableOf({{{"v", AttrValue(std::int64_t{1})}},
                     {{"v", AttrValue(std::int64_t{2})}}});
  Row r = EvalQuery(ParseQuery("SELECT AVG(v) AS m"), t);
  EXPECT_EQ(r.at("m").type(), AttrValue::Type::kDouble);
  EXPECT_DOUBLE_EQ(r.at("m").AsDouble(), 1.5);
}

TEST(AggMore, SumMixesIntAndDoubleToDouble) {
  Table t = TableOf({{{"v", AttrValue(std::int64_t{1})}},
                     {{"v", AttrValue(0.5)}}});
  Row r = EvalQuery(ParseQuery("SELECT SUM(v) AS s"), t);
  EXPECT_DOUBLE_EQ(r.at("s").AsDouble(), 1.5);
}

TEST(AggMore, WhereOverComputedExpression) {
  Table t = TableOf({{{"a", AttrValue(std::int64_t{2})},
                      {"b", AttrValue(std::int64_t{3})}},
                     {{"a", AttrValue(std::int64_t{5})},
                      {"b", AttrValue(std::int64_t{5})}}});
  Row r = EvalQuery(ParseQuery("SELECT COUNT(*) AS c WHERE a * b > 10"), t);
  EXPECT_EQ(r.at("c").AsInt(), 1);
}

TEST(AggMore, AndBitsIntersectsBitVectors) {
  BitVector x(16), y(16);
  x.Set(1);
  x.Set(2);
  y.Set(2);
  y.Set(3);
  Table t = TableOf({{{"b", AttrValue(x)}}, {{"b", AttrValue(y)}}});
  Row r = EvalQuery(ParseQuery("SELECT AND(b) AS i"), t);
  EXPECT_EQ(r.at("i").AsBits().PopCount(), 1u);
  EXPECT_TRUE(r.at("i").AsBits().Test(2));
}

TEST(AggMore, AggregationOverExpression) {
  Table t = TableOf({{{"a", AttrValue(std::int64_t{2})}},
                     {{"a", AttrValue(std::int64_t{4})}}});
  Row r = EvalQuery(ParseQuery("SELECT MAX(a * a + 1) AS m"), t);
  EXPECT_EQ(r.at("m").AsInt(), 17);
}

TEST(AggMore, SelectManyColumns) {
  Table t = TableOf({{{"a", AttrValue(std::int64_t{1})}}});
  Row r = EvalQuery(
      ParseQuery("SELECT MIN(a) AS c0, MAX(a) AS c1, SUM(a) AS c2, "
                 "AVG(a) AS c3, COUNT(a) AS c4, COUNT(*) AS c5, "
                 "FIRST(1, a) AS c6"),
      t);
  EXPECT_EQ(r.size(), 7u);
}

TEST(AggMore, DeepExpressionNesting) {
  // The recursive-descent parser must handle deep nesting without issue.
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + "+1)";
  AttrValue v = EvalScalar(*ParseExpression(expr), {});
  EXPECT_EQ(v.AsInt(), 201);
}

}  // namespace
}  // namespace nw::astrolabe::sql

// Unit tests for AttrValue, BitVector, ZonePath and Table.
#include <gtest/gtest.h>

#include "astrolabe/bitvector.h"
#include "astrolabe/table.h"
#include "astrolabe/value.h"
#include "astrolabe/zone_path.h"

namespace nw::astrolabe {
namespace {

TEST(BitVector, SetTestClear) {
  BitVector bv(128);
  EXPECT_FALSE(bv.Test(0));
  bv.Set(0);
  bv.Set(127);
  EXPECT_TRUE(bv.Test(0));
  EXPECT_TRUE(bv.Test(127));
  EXPECT_FALSE(bv.Test(64));
  bv.Clear(0);
  EXPECT_FALSE(bv.Test(0));
  EXPECT_EQ(bv.PopCount(), 1u);
}

TEST(BitVector, OrAggregationMatchesUnion) {
  BitVector a(100), b(100);
  a.Set(3);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  BitVector u = a | b;
  EXPECT_TRUE(u.Test(3));
  EXPECT_TRUE(u.Test(50));
  EXPECT_TRUE(u.Test(99));
  EXPECT_EQ(u.PopCount(), 3u);
}

TEST(BitVector, OrGrowsToLargerOperand) {
  BitVector a(10), b(200);
  a.Set(1);
  b.Set(150);
  a |= b;
  EXPECT_EQ(a.size(), 200u);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(150));
}

TEST(BitVector, ContainsAll) {
  BitVector big(64), small(64);
  big.Set(1);
  big.Set(2);
  big.Set(3);
  small.Set(2);
  EXPECT_TRUE(big.ContainsAll(small));
  small.Set(9);
  EXPECT_FALSE(big.ContainsAll(small));
}

TEST(BitVector, AndIntersects) {
  BitVector a(64), b(64);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  BitVector i = a & b;
  EXPECT_EQ(i.PopCount(), 1u);
  EXPECT_TRUE(i.Test(2));
}

TEST(BitVector, ToStringListsSetBitsInOrder) {
  EXPECT_EQ(BitVector().ToString(), "bits[0;{}]");
  BitVector bv(130);
  EXPECT_EQ(bv.ToString(), "bits[130;{}]");
  bv.Set(0);
  EXPECT_EQ(bv.ToString(), "bits[130;{0}]");
  BitVector last(130);
  last.Set(129);
  EXPECT_EQ(last.ToString(), "bits[130;{129}]");
  for (std::size_t i : {63u, 64u, 127u, 128u, 129u}) bv.Set(i);
  EXPECT_EQ(bv.ToString(), "bits[130;{0,63,64,127,128,129}]");
  BitVector dense(5);
  for (std::size_t i = 0; i < 5; ++i) dense.Set(i);
  EXPECT_EQ(dense.ToString(), "bits[5;{0,1,2,3,4}]");
}

TEST(AttrValue, TypeAccessors) {
  EXPECT_TRUE(AttrValue().IsNull());
  EXPECT_EQ(AttrValue(std::int64_t{7}).AsInt(), 7);
  EXPECT_DOUBLE_EQ(AttrValue(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(AttrValue(std::int64_t{4}).AsDouble(), 4.0);  // coercion
  EXPECT_EQ(AttrValue("hi").AsString(), "hi");
  EXPECT_TRUE(AttrValue(true).AsBool());
  EXPECT_THROW(AttrValue("hi").AsInt(), TypeError);
  EXPECT_THROW(AttrValue(std::int64_t{1}).AsString(), TypeError);
}

TEST(AttrValue, CompareNumericCrossType) {
  EXPECT_LT(AttrValue(std::int64_t{1}).Compare(AttrValue(1.5)), 0);
  EXPECT_EQ(AttrValue(std::int64_t{2}).Compare(AttrValue(2.0)), 0);
  EXPECT_GT(AttrValue(2.5).Compare(AttrValue(std::int64_t{2})), 0);
}

TEST(AttrValue, CompareStringsAndErrors) {
  EXPECT_LT(AttrValue("abc").Compare(AttrValue("abd")), 0);
  EXPECT_THROW(AttrValue("a").Compare(AttrValue(std::int64_t{1})), TypeError);
  EXPECT_THROW(AttrValue(BitVector(8)).Compare(AttrValue(BitVector(8))),
               TypeError);
}

TEST(AttrValue, EqualsDeepOnLists) {
  ValueList l1{AttrValue(std::int64_t{1}), AttrValue("x")};
  ValueList l2{AttrValue(std::int64_t{1}), AttrValue("x")};
  ValueList l3{AttrValue(std::int64_t{1}), AttrValue("y")};
  EXPECT_TRUE(AttrValue(l1).Equals(AttrValue(l2)));
  EXPECT_FALSE(AttrValue(l1).Equals(AttrValue(l3)));
}

TEST(AttrValue, WireBytesGrowWithContent) {
  EXPECT_LT(AttrValue(std::int64_t{1}).WireBytes(),
            AttrValue(std::string(100, 'x')).WireBytes());
  BitVector bv(1024);
  EXPECT_GE(AttrValue(bv).WireBytes(), 128u);
}

TEST(ZonePath, ParseAndToString) {
  EXPECT_EQ(ZonePath::Parse("/").ToString(), "/");
  EXPECT_EQ(ZonePath::Parse("/usa/ithaca/n3").ToString(), "/usa/ithaca/n3");
  EXPECT_EQ(ZonePath::Parse("/usa/ithaca/n3").Depth(), 3u);
  EXPECT_EQ(ZonePath::Parse("/usa/ithaca/n3").Leaf(), "n3");
}

TEST(ZonePath, ParentAndPrefix) {
  const auto p = ZonePath::Parse("/a/b/c");
  EXPECT_EQ(p.Parent().ToString(), "/a/b");
  EXPECT_EQ(p.Prefix(0).ToString(), "/");
  EXPECT_EQ(p.Prefix(2).ToString(), "/a/b");
  EXPECT_TRUE(ZonePath::Parse("/a").IsPrefixOf(p));
  EXPECT_TRUE(ZonePath::Root().IsPrefixOf(p));
  EXPECT_FALSE(ZonePath::Parse("/a/x").IsPrefixOf(p));
  EXPECT_FALSE(p.IsPrefixOf(ZonePath::Parse("/a/b")));
}

TEST(ZonePath, ChildAndEquality) {
  const auto p = ZonePath::Root().Child("x").Child("y");
  EXPECT_EQ(p, ZonePath::Parse("/x/y"));
  EXPECT_NE(p, ZonePath::Parse("/x"));
}

TEST(Table, MergePrefersHigherVersion) {
  Table t;
  RowEntry incoming;
  incoming.attrs["a"] = std::int64_t{1};
  incoming.version = 5;
  EXPECT_TRUE(t.MergeEntry("r", incoming, 1.0));
  // Lower version rejected.
  RowEntry older;
  older.attrs["a"] = std::int64_t{0};
  older.version = 4;
  EXPECT_FALSE(t.MergeEntry("r", older, 2.0));
  EXPECT_EQ(t.Find("r")->attrs.at("a").AsInt(), 1);
  // Higher version accepted and refresh time updated.
  RowEntry newer;
  newer.attrs["a"] = std::int64_t{9};
  newer.version = 6;
  EXPECT_TRUE(t.MergeEntry("r", newer, 3.0));
  EXPECT_EQ(t.Find("r")->attrs.at("a").AsInt(), 9);
  EXPECT_DOUBLE_EQ(t.Find("r")->last_refresh, 3.0);
}

TEST(Table, EqualVersionIsIdempotent) {
  Table t;
  RowEntry e;
  e.attrs["a"] = std::int64_t{1};
  e.version = 5;
  EXPECT_TRUE(t.MergeEntry("r", e, 1.0));
  EXPECT_FALSE(t.MergeEntry("r", e, 2.0));
}

TEST(Table, WireBytesTracksContent) {
  Table t;
  RowEntry e;
  e.attrs["payload"] = std::string(500, 'p');
  t.MergeEntry("r", e, 0.0);
  EXPECT_GT(t.WireBytes(), 500u);
}

}  // namespace
}  // namespace nw::astrolabe

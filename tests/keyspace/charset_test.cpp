#include "keyspace/charset.h"

#include <gtest/gtest.h>

#include "support/error.h"

namespace gks::keyspace {
namespace {

TEST(Charset, PredefinedSizes) {
  EXPECT_EQ(Charset::lower().size(), 26u);
  EXPECT_EQ(Charset::upper().size(), 26u);
  EXPECT_EQ(Charset::digits().size(), 10u);
  EXPECT_EQ(Charset::alpha().size(), 52u);
  EXPECT_EQ(Charset::alphanumeric().size(), 62u);
  EXPECT_EQ(Charset::printable().size(), 95u);
}

TEST(Charset, DigitOrderFollowsConstruction) {
  const Charset cs("bac");
  EXPECT_EQ(cs.at(0), 'b');
  EXPECT_EQ(cs.at(1), 'a');
  EXPECT_EQ(cs.at(2), 'c');
  EXPECT_EQ(cs.index_of('c'), 2u);
}

TEST(Charset, IndexOfIsInverseOfAt) {
  const Charset cs = Charset::alphanumeric();
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ(cs.index_of(cs.at(i)), i);
  }
}

TEST(Charset, RejectsEmptyAndDuplicates) {
  EXPECT_THROW(Charset(""), InvalidArgument);
  EXPECT_THROW(Charset("abca"), InvalidArgument);
}

TEST(Charset, IndexOfUnknownCharacterThrows) {
  const Charset cs("abc");
  EXPECT_THROW(cs.index_of('z'), InvalidArgument);
  EXPECT_THROW(cs.at(3), InvalidArgument);
}

TEST(Charset, ContainsAll) {
  const Charset cs = Charset::lower();
  EXPECT_TRUE(cs.contains_all("hello"));
  EXPECT_TRUE(cs.contains_all(""));
  EXPECT_FALSE(cs.contains_all("Hello"));
  EXPECT_FALSE(cs.contains_all("h3llo"));
}

TEST(Charset, EqualityComparesContentAndOrder) {
  EXPECT_EQ(Charset("abc"), Charset("abc"));
  EXPECT_NE(Charset("abc"), Charset("acb"));
}

TEST(Charset, ByNameResolvesTheCommandLineSpellings) {
  EXPECT_EQ(Charset::by_name("lower"), Charset::lower());
  EXPECT_EQ(Charset::by_name("alnum"), Charset::alphanumeric());
  EXPECT_EQ(Charset::by_name("printable"), Charset::printable());
  EXPECT_EQ(Charset::by_name("custom:xyz"), Charset("xyz"));
  EXPECT_THROW(Charset::by_name("hex"), InvalidArgument);
}

TEST(Charset, HandlesHighBitCharacters) {
  const Charset cs("\xe0\xe1");
  EXPECT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs.index_of('\xe1'), 1u);
}

}  // namespace
}  // namespace gks::keyspace

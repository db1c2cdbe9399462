#include "message/codec.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "expr_oracle.hpp"

namespace evps {
namespace {

TEST(PublicationCodec, ParseBasic) {
  const Publication pub = parse_publication("x = 4; y = 3.5; action = 'pickup'");
  EXPECT_EQ(pub.size(), 3u);
  EXPECT_EQ(pub.get("x")->as_int(), 4);
  EXPECT_DOUBLE_EQ(pub.get("y")->as_double(), 3.5);
  EXPECT_EQ(pub.get("action")->as_string(), "pickup");
}

TEST(PublicationCodec, QuotedSemicolonPreserved) {
  const Publication pub = parse_publication("note = 'a;b'; x = 1");
  EXPECT_EQ(pub.get("note")->as_string(), "a;b");
  EXPECT_EQ(pub.get("x")->as_int(), 1);
}

TEST(PublicationCodec, EmptyInput) {
  EXPECT_TRUE(parse_publication("").empty());
  EXPECT_TRUE(parse_publication("   ").empty());
}

TEST(PublicationCodec, Errors) {
  EXPECT_THROW(parse_publication("novalue"), CodecError);
  EXPECT_THROW(parse_publication("= 3"), CodecError);
}

TEST(PublicationCodec, RoundTrip) {
  const Publication original =
      parse_publication("symbol = 'IBM'; price = 15.27; volume = 100");
  const Publication reparsed = parse_publication(serialize(original));
  EXPECT_EQ(original, reparsed);
}

TEST(PredicateCodec, StaticForms) {
  const Predicate p1 = parse_predicate("x < 3");
  EXPECT_FALSE(p1.is_evolving());
  EXPECT_EQ(p1.op(), RelOp::kLt);
  EXPECT_EQ(p1.constant().as_int(), 3);

  const Predicate p2 = parse_predicate("price >= 15.27");
  EXPECT_EQ(p2.op(), RelOp::kGe);
  EXPECT_DOUBLE_EQ(p2.constant().as_double(), 15.27);

  const Predicate p3 = parse_predicate("symbol = 'IBM'");
  EXPECT_EQ(p3.op(), RelOp::kEq);
  EXPECT_EQ(p3.constant().as_string(), "IBM");

  const Predicate p4 = parse_predicate("state != 'down'");
  EXPECT_EQ(p4.op(), RelOp::kNe);
}

TEST(PredicateCodec, EvolvingForms) {
  const Predicate p = parse_predicate("x >= (-3 + t) * v");
  EXPECT_TRUE(p.is_evolving());
  const EvalScope env = oracle::scope_of({{"t", 1.0}, {"v", 0.5}});
  const CompiledPredicate cp{p};
  std::vector<double> stack;
  EXPECT_TRUE(cp.matches(Value{0}, env, stack));    // 0 >= -1
  EXPECT_FALSE(cp.matches(Value{-2}, env, stack));  // -2 >= -1 false
}

TEST(PredicateCodec, NegativeLiteralIsStatic) {
  const Predicate p = parse_predicate("x > -5");
  EXPECT_FALSE(p.is_evolving());
  EXPECT_EQ(p.constant().as_int(), -5);
}

TEST(PredicateCodec, Errors) {
  EXPECT_THROW(parse_predicate("x"), CodecError);
  EXPECT_THROW(parse_predicate("x <"), CodecError);
  EXPECT_THROW(parse_predicate("< 3"), CodecError);
  EXPECT_THROW(parse_predicate("x < 'unterminated"), CodecError);
  EXPECT_THROW(parse_predicate("x < )bad("), CodecError);
}

TEST(SubscriptionCodec, PredicatesOnly) {
  const Subscription sub = parse_subscription("x >= -3 + t; x <= 3 + t; y >= -2; y <= 2");
  EXPECT_EQ(sub.predicates().size(), 4u);
  EXPECT_TRUE(sub.is_evolving());
  EXPECT_FALSE(sub.is_fully_evolving());
  EXPECT_EQ(sub.mei(), Duration::seconds(1.0));  // defaults
}

TEST(SubscriptionCodec, Options) {
  const Subscription sub = parse_subscription("[mei=2][tt=0.5][validity=10] x >= t");
  EXPECT_EQ(sub.mei(), Duration::seconds(2.0));
  EXPECT_EQ(sub.tt(), Duration::seconds(0.5));
  EXPECT_EQ(sub.validity(), Duration::seconds(10.0));
  EXPECT_EQ(sub.predicates().size(), 1u);
}

TEST(SubscriptionCodec, Errors) {
  EXPECT_THROW(parse_subscription(""), CodecError);
  EXPECT_THROW(parse_subscription("[mei=2]"), CodecError);
  EXPECT_THROW(parse_subscription("[mei=abc] x > 1"), CodecError);
  EXPECT_THROW(parse_subscription("[unknown=1] x > 1"), CodecError);
  EXPECT_THROW(parse_subscription("[mei=1 x > 1"), CodecError);
  EXPECT_THROW(parse_subscription("[mei]x>1"), CodecError);
}

TEST(SubscriptionCodec, RejectsDurationsOutsideMicrosecondRange) {
  // Each used to reach an out-of-range double -> int64 cast (undefined
  // behaviour) and read back as INT64_MIN.
  EXPECT_THROW(parse_subscription("[mei=1e300] x >= t"), CodecError);
  EXPECT_THROW(parse_subscription("[validity=nan] x >= t"), CodecError);
  EXPECT_THROW(parse_subscription("[tt=-inf] x >= t"), CodecError);
  EXPECT_THROW(parse_subscription("[mei=9223372036854.776] x >= t"), CodecError);
  // The largest representable spans and negative values still parse.
  EXPECT_EQ(parse_subscription("[validity=9223372036854] x >= t").validity(),
            Duration::seconds(9223372036854.0));
  EXPECT_EQ(parse_subscription("[mei=-1] x >= t").mei(), Duration::seconds(-1.0));
}

TEST(SubscriptionCodec, RoundTrip) {
  const auto texts = {
      "x >= -3 + t; x <= 3 + t; y >= -2 + t; y <= 2 + t",
      "[mei=0.500000][tt=2.000000] price >= (15 + t); symbol = 'STK042'",
      "[validity=60.000000] distance < maxDist * (maxBw - outgoingBw)",
  };
  for (const auto* text : texts) {
    const Subscription sub = parse_subscription(text);
    const Subscription reparsed = parse_subscription(serialize(sub));
    ASSERT_EQ(sub.predicates().size(), reparsed.predicates().size()) << text;
    for (std::size_t i = 0; i < sub.predicates().size(); ++i) {
      EXPECT_EQ(sub.predicates()[i], reparsed.predicates()[i]) << text;
    }
    EXPECT_EQ(sub.mei(), reparsed.mei());
    EXPECT_EQ(sub.tt(), reparsed.tt());
    EXPECT_EQ(sub.validity(), reparsed.validity());
  }
}

Publication stamped_pub(std::string_view text, std::uint64_t id, std::uint64_t publisher,
                        std::int64_t entry_us) {
  Publication pub = parse_publication(text);
  pub.set_id(MessageId{id});
  pub.set_publisher(ClientId{publisher});
  pub.set_entry_time(SimTime::from_micros(entry_us));
  return pub;
}

TEST(BatchCodec, RoundTripRestoresMetadata) {
  const std::vector<Publication> pubs = {
      stamped_pub("x = 4; y = 3.5; action = 'pickup'", 101, 7, 1234),
      stamped_pub("note = 'a;b\nnewline'; x = 1", 102, 8, 0),
      stamped_pub("price = 15.27; symbol = 'IBM'", 103, 7, -42),
      stamped_pub("", 104, 9, 99),  // empty payload is a valid publication
  };
  const std::string wire = serialize_batch(std::span<const Publication>(pubs));
  const std::vector<Publication> back = parse_publication_batch(wire);
  ASSERT_EQ(back.size(), pubs.size());
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    EXPECT_EQ(back[i], pubs[i]) << i;
    EXPECT_EQ(back[i].id(), pubs[i].id()) << i;
    EXPECT_EQ(back[i].publisher(), pubs[i].publisher()) << i;
    EXPECT_EQ(back[i].entry_time(), pubs[i].entry_time()) << i;
  }
}

TEST(BatchCodec, EmptyBatch) {
  const std::string wire = serialize_batch(std::span<const Publication>{});
  EXPECT_TRUE(parse_publication_batch(wire).empty());
}

TEST(BatchCodec, ArenaOverloadMatchesValueOverload) {
  const std::vector<Publication> pubs = {
      stamped_pub("x = 1", 1, 1, 10),
      stamped_pub("x = 2", 2, 1, 10),
  };
  std::vector<PublicationPtr> ptrs;
  for (const auto& p : pubs) ptrs.push_back(std::make_shared<const Publication>(p));
  std::string arena = "stale contents from a previous flush";
  serialize_batch(std::span<const PublicationPtr>(ptrs), arena);
  EXPECT_EQ(arena, serialize_batch(std::span<const Publication>(pubs)));
  EXPECT_EQ(serialized_batch_size(std::span<const PublicationPtr>(ptrs)), arena.size());
}

TEST(BatchCodec, UnsetIdsMayRepeat) {
  // Ad-hoc publications are serialised before any id is assigned; frames may
  // carry several of them even though VALID duplicate ids are rejected.
  const std::vector<Publication> pubs = {parse_publication("x = 1"), parse_publication("x = 2")};
  const std::vector<Publication> back =
      parse_publication_batch(serialize_batch(std::span<const Publication>(pubs)));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_FALSE(back[0].id().valid());
}

TEST(BatchCodec, OversizedBatchRejectedAtSerialize) {
  const std::vector<Publication> pubs(kMaxBatchPublications + 1);
  EXPECT_THROW((void)serialize_batch(std::span<const Publication>(pubs)), CodecError);
}

}  // namespace
}  // namespace evps

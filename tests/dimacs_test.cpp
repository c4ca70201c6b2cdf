// Round-trip and malformed-input coverage for the DIMACS CNF codec
// (src/sat/dimacs.cc).

#include "src/sat/dimacs.h"

#include <string>

#include "gtest/gtest.h"
#include "src/sat/cnf.h"
#include "src/sat/literal.h"

namespace ccr::sat {
namespace {

// Two Cnf instances are equal iff they agree on the variable universe and
// on every clause's literal sequence.
void ExpectCnfEq(const Cnf& a, const Cnf& b) {
  ASSERT_EQ(a.num_vars(), b.num_vars());
  ASSERT_EQ(a.num_clauses(), b.num_clauses());
  for (int i = 0; i < a.num_clauses(); ++i) {
    auto ca = a.clause(i);
    auto cb = b.clause(i);
    ASSERT_EQ(ca.size(), cb.size()) << "clause " << i;
    for (size_t j = 0; j < ca.size(); ++j) {
      EXPECT_EQ(ca[j], cb[j]) << "clause " << i << " literal " << j;
    }
  }
}

TEST(DimacsTest, EmitsHeaderAndClauses) {
  Cnf cnf;
  cnf.EnsureVars(3);
  cnf.AddBinary(Lit::Pos(0), Lit::Neg(1));
  cnf.AddUnit(Lit::Pos(2));

  EXPECT_EQ(ToDimacs(cnf), "p cnf 3 2\n1 -2 0\n3 0\n");
}

TEST(DimacsTest, ParseEmitParseRoundTrip) {
  const std::string text =
      "c a comment line\n"
      "p cnf 4 3\n"
      "1 -2 3 0\n"
      "-1 4 0\n"
      "2 0\n";

  auto first = FromDimacs(text);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  const std::string emitted = ToDimacs(*first);
  auto second = FromDimacs(emitted);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  ExpectCnfEq(*first, *second);
  // Emission is canonical, so a second emit must be byte-identical.
  EXPECT_EQ(emitted, ToDimacs(*second));
}

TEST(DimacsTest, RoundTripsGeneratedFormula) {
  Cnf cnf;
  for (int v = 0; v < 16; ++v) cnf.NewVar();
  for (int i = 0; i < 40; ++i) {
    // Deterministic pseudo-clauses with mixed arity and signs.
    const Var a = static_cast<Var>(i % 16);
    const Var b = static_cast<Var>((i * 5 + 3) % 16);
    const Var c = static_cast<Var>((i * 11 + 7) % 16);
    cnf.AddTernary(Lit(a, i % 2 == 0), Lit(b, i % 3 == 0), Lit(c, i % 5 == 0));
  }
  cnf.AddClause({});  // empty clauses must survive the trip too

  auto parsed = FromDimacs(ToDimacs(cnf));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectCnfEq(cnf, *parsed);
}

TEST(DimacsTest, ToleratesMissingHeaderAndComments) {
  auto parsed = FromDimacs("c no header here\n1 2 0\n-2 0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_clauses(), 2);
  // Without a header the universe grows to cover the literals seen.
  EXPECT_EQ(parsed->num_vars(), 2);
  EXPECT_EQ(parsed->clause(0)[0], Lit::Pos(0));
  EXPECT_EQ(parsed->clause(1)[0], Lit::Neg(1));
}

TEST(DimacsTest, RejectsUnterminatedClause) {
  auto parsed = FromDimacs("p cnf 3 1\n1 2 3\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// Counts and literals are int64 in the text but int in a Cnf: each one
// past kMaxVars must be refused, not truncated into a different variable.
// These inputs are only parsed, never fed to a Solver.
TEST(DimacsTest, RejectsVariablesPastMaxVars) {
  for (const std::string text :
       {"p cnf 5000000000 1\n1 0\n", "p cnf 3 1\n3000000000 0\n",
        "p cnf 3 1\n1 -3000000000 0\n", "p cnf 1073741824 1\n1 0\n",
        "1 -9223372036854775808 0\n"}) {
    auto parsed = FromDimacs(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(DimacsTest, AcceptsMaxVarsExactly) {
  const std::string max = std::to_string(kMaxVars);
  auto header = FromDimacs("p cnf " + max + " 1\n1 0\n");
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->num_vars(), kMaxVars);
  auto literal = FromDimacs("-" + max + " 0\n");
  ASSERT_TRUE(literal.ok()) << literal.status().ToString();
  EXPECT_EQ(literal->num_vars(), kMaxVars);
  EXPECT_EQ(literal->clause(0)[0], Lit::Neg(kMaxVars - 1));
}

// The header is exactly "p cnf V C", given once before the clauses, and
// the body must match it.
TEST(DimacsTest, RejectsHeadersTheBodyDoesNotMatch) {
  for (const std::string text : {
           // malformed
           "p cnf 3\n1 0\n", "p cnf 3 1 7\n1 0\n",
           "p dnf 3 1\n1 0\n", "p cnf -3 1\n1 0\n", "p cnf 3 -1\n",
           "p cnf x 1\n1 0\n", "pcnf 3 1\n1 0\n",
           // repeated, or after clause data
           "p cnf 3 1\np cnf 3 1\n1 0\n", "1 0\np cnf 3 1\n",
           // a literal past V
           "p cnf 2 1\n1 -3 0\n", "p cnf 0 1\n1 0\n",
           // a clause count other than C
           "p cnf 0 5\n", "p cnf 2 7\n1 2 0\n", "p cnf 2 0\n1 0\n",
           "p cnf 2 1\n1 0\n2 0\n"}) {
    auto parsed = FromDimacs(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

// A clause line holds integers only: a stray token used to end the line
// silently, so "1 x 0" and "2 0" parsed as the one clause (1 ∨ 2).
TEST(DimacsTest, RejectsTokensThatAreNotLiterals) {
  for (const std::string text :
       {"1 x 0\n2 0\n", "1 2 0 junk\n", "1 2.5 0\n",
        "1 99999999999999999999 0\n", "p cnf 2 1\n1 -2 0 %\n"}) {
    auto parsed = FromDimacs(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(DimacsTest, HeaderSetsTheVariableCount) {
  // Variables the clauses never name still exist.
  auto parsed = FromDimacs("p cnf 5 1\n1 -2 0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_vars(), 5);
  EXPECT_EQ(parsed->num_clauses(), 1);
  // Extra whitespace between the fields is fine.
  auto spaced = FromDimacs("p  cnf\t0   0\n");
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  EXPECT_EQ(spaced->num_vars(), 0);
  EXPECT_EQ(spaced->num_clauses(), 0);
}

TEST(DimacsTest, EmptyInputIsEmptyFormula) {
  auto parsed = FromDimacs("");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_vars(), 0);
  EXPECT_EQ(parsed->num_clauses(), 0);
}

}  // namespace
}  // namespace ccr::sat

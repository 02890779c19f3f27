/// Input-language tests: lexer, parser, semantic checks, conditional
/// assembly, and the decode-expression compiler (with exhaustive
/// parameterized sweeps — decode correctness is the decoder's contract).

#include "icl/eval.hpp"
#include "icl/parser.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace bb::icl {
namespace {

const char* kGood = R"(
chip demo;
var PROTO = true;
microcode width 8 {
  field op  [0:2];
  field sel [3:4];
  field imm [5:7];
}
data width 8;
buses A, B;
core {
  register R0 (in = A, out = B, load = "op==1", drive = "op==2");
  if PROTO {
    probe P (bus = A, bit = 0);
  } else {
    constant C (bus = A, value = 3, drive = "op==3");
  }
}
)";

TEST(Lexer, TokensAndComments) {
  DiagnosticList d;
  auto toks = tokenize("foo 0x1F 42 == != ! & | # comment\n\"str\" ;", d);
  ASSERT_FALSE(d.hasErrors());
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, TokKind::Ident);
  EXPECT_EQ(toks[1].number, 31);
  EXPECT_EQ(toks[2].number, 42);
  EXPECT_EQ(toks[3].kind, TokKind::EqEq);
  EXPECT_EQ(toks[4].kind, TokKind::BangEq);
  EXPECT_EQ(toks[5].kind, TokKind::Bang);
  EXPECT_EQ(toks[8].kind, TokKind::String);
  EXPECT_EQ(toks[8].text, "str");
}

TEST(Lexer, ErrorsReported) {
  DiagnosticList d;
  (void)tokenize("\"unterminated", d);
  EXPECT_TRUE(d.hasErrors());
  DiagnosticList d2;
  (void)tokenize("@", d2);
  EXPECT_TRUE(d2.hasErrors());
}

TEST(Lexer, OutOfRangeLiteralsAreDiagnosedNotOverflowed) {
  for (const char* src : {"1234567890123456789012345", "9223372036854775808",
                          "0x1FFFFFFFFFFFFFFFF"}) {
    DiagnosticList d;
    const auto toks = tokenize(src, d);
    EXPECT_TRUE(d.hasErrors()) << src;
    EXPECT_NE(d.toString().find("out of range"), std::string::npos) << d.toString();
    ASSERT_FALSE(toks.empty());
    EXPECT_EQ(toks[0].kind, TokKind::Error) << src;
  }
  // The largest long long still lexes, in either base.
  DiagnosticList d;
  const auto toks = tokenize("9223372036854775807 0x7FFFFFFFFFFFFFFF", d);
  EXPECT_FALSE(d.hasErrors()) << d.toString();
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].number, std::numeric_limits<long long>::max());
  EXPECT_EQ(toks[1].number, std::numeric_limits<long long>::max());
}

TEST(Parser, HugeNumberInASourceIsADiagnostic) {
  const std::string src = R"(
chip demo;
microcode width 8 { field op [0:1234567890123456789012345]; }
data width 8;
buses A, B;
core { register R0 (in = A, out = B, load = "op==1", drive = "op==2"); }
)";
  DiagnosticList d;
  (void)parseChip(src, d);
  EXPECT_TRUE(d.hasErrors());
  EXPECT_NE(d.toString().find("out of range"), std::string::npos) << d.toString();
}

TEST(Parser, GoodChipParses) {
  DiagnosticList d;
  auto chip = parseChip(kGood, d);
  ASSERT_TRUE(chip.has_value()) << d.toString();
  EXPECT_EQ(chip->name, "demo");
  EXPECT_EQ(chip->microcode.width, 8);
  EXPECT_EQ(chip->microcode.fields.size(), 3u);
  EXPECT_EQ(chip->dataWidth, 8);
  EXPECT_EQ(chip->buses.size(), 2u);
  EXPECT_EQ(chip->core.size(), 2u);
  EXPECT_TRUE(chip->vars.at("PROTO"));
}

TEST(Parser, ReportsOverlappingFields) {
  DiagnosticList d;
  auto chip = parseChip(
      "chip x; microcode width 8 { field a [0:3]; field b [3:5]; } data width 4; buses A; "
      "core { register R (in=A, out=A, load=\"a==0\", drive=\"a==1\"); }",
      d);
  EXPECT_FALSE(chip.has_value());
  EXPECT_NE(d.toString().find("overlaps"), std::string::npos);
}

TEST(Parser, ReportsFieldOutOfRange) {
  DiagnosticList d;
  auto chip = parseChip(
      "chip x; microcode width 4 { field a [0:5]; } data width 4; buses A; core { }", d);
  EXPECT_FALSE(chip.has_value());
  EXPECT_NE(d.toString().find("exceeds"), std::string::npos);
}

TEST(Parser, ReportsDuplicateElementNames) {
  DiagnosticList d;
  auto chip = parseChip(
      "chip x; microcode width 4 { field a [0:1]; } data width 4; buses A; "
      "core { register R (load=\"a==0\", drive=\"a==1\"); register R; }",
      d);
  EXPECT_FALSE(chip.has_value());
  EXPECT_NE(d.toString().find("duplicate element"), std::string::npos);
}

TEST(Parser, ReportsMissingSections) {
  DiagnosticList d;
  auto chip = parseChip("chip x;", d);
  EXPECT_FALSE(chip.has_value());
  const std::string s = d.toString();
  EXPECT_NE(s.find("microcode"), std::string::npos);
  EXPECT_NE(s.find("buses"), std::string::npos);
}

TEST(Parser, RecoversToReportMultipleErrors) {
  DiagnosticList d;
  (void)parseChip(
      "chip x; microcode width 4 { field a [0:9]; field a [0:1]; } data width 999; buses A; "
      "core { }",
      d);
  int errors = 0;
  for (const Diagnostic& di : d.all()) {
    if (di.severity == Severity::Error) ++errors;
  }
  EXPECT_GE(errors, 3);
}

TEST(CondAssembly, SelectsArmByVariable) {
  DiagnosticList d;
  auto chip = parseChip(kGood, d);
  ASSERT_TRUE(chip.has_value());
  auto withProto = assembleCore(*chip, {}, d);
  ASSERT_FALSE(d.hasErrors());
  ASSERT_EQ(withProto.size(), 2u);
  EXPECT_EQ(withProto[1].kind, "probe");
  auto without = assembleCore(*chip, {{"PROTO", false}}, d);
  ASSERT_EQ(without.size(), 2u);
  EXPECT_EQ(without[1].kind, "constant");
}

TEST(CondAssembly, UnknownVariableDiagnosed) {
  DiagnosticList d;
  auto chip = parseChip(
      "chip x; microcode width 4 { field a [0:1]; } data width 4; buses A; "
      "core { if NOPE { register R (load=\"a==0\", drive=\"a==1\"); } }",
      d);
  ASSERT_TRUE(chip.has_value()) << d.toString();
  (void)assembleCore(*chip, {}, d);
  EXPECT_TRUE(d.hasErrors());
}

// --- decode expressions ---------------------------------------------------

MicrocodeDecl mc8() {
  MicrocodeDecl m;
  m.width = 8;
  m.fields = {{"op", 0, 2, {}}, {"flag", 3, 3, {}}, {"sel", 4, 6, {}}};
  return m;
}

/// Reference evaluator: parse-independent semantics of the expression
/// language over a concrete word.
bool refOp(unsigned long long w, int lo, int hi, long long v) {
  const unsigned long long field = (w >> lo) & ((1ull << (hi - lo + 1)) - 1);
  return field == static_cast<unsigned long long>(v);
}

class DecodeSweep : public ::testing::TestWithParam<unsigned long long> {};

TEST_P(DecodeSweep, MatchesReference) {
  const MicrocodeDecl m = mc8();
  DiagnosticList d;
  const unsigned long long w = GetParam();
  struct Case {
    const char* expr;
    bool expected;
  };
  const Case cases[] = {
      {"op==3", refOp(w, 0, 2, 3)},
      {"op!=3", !refOp(w, 0, 2, 3)},
      {"flag", refOp(w, 3, 3, 1)},
      {"!flag", refOp(w, 3, 3, 0)},
      {"op==1 & sel==5", refOp(w, 0, 2, 1) && refOp(w, 4, 6, 5)},
      {"op==1 | op==2", refOp(w, 0, 2, 1) || refOp(w, 0, 2, 2)},
      {"(op==1 | op==2) & !flag",
       (refOp(w, 0, 2, 1) || refOp(w, 0, 2, 2)) && refOp(w, 3, 3, 0)},
      {"1", true},
      {"0", false},
      {"op==1 & op==2", false},  // contradiction
  };
  for (const Case& c : cases) {
    const SumOfProducts sop = compileDecode(c.expr, m, d);
    ASSERT_FALSE(d.hasErrors()) << c.expr << ": " << d.toString();
    EXPECT_EQ(sop.matches(w), c.expected) << c.expr << " on word " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWords, DecodeSweep,
                         ::testing::Range<unsigned long long>(0, 256));

TEST(Decode, ErrorsDiagnosed) {
  const MicrocodeDecl m = mc8();
  {
    DiagnosticList d;
    (void)compileDecode("nosuch==1", m, d);
    EXPECT_TRUE(d.hasErrors());
  }
  {
    DiagnosticList d;
    (void)compileDecode("op", m, d);  // bare multi-bit field
    EXPECT_TRUE(d.hasErrors());
  }
  {
    DiagnosticList d;
    (void)compileDecode("op==9", m, d);  // out of range
    EXPECT_TRUE(d.hasErrors());
  }
}

TEST(Decode, FieldsThatCannotBeComparedAreDiagnosed) {
  // Each of these used to reach `1ll << bits()` with a shift of 63 or
  // more, or a negative one: both undefined behaviour.
  MicrocodeDecl m;
  m.width = 80;
  m.fields = {{"wide", 0, 70, {}}, {"backwards", 12, 10, {}}, {"outside", 78, 81, {}},
              {"ok", 72, 75, {}}};
  for (const char* expr : {"wide==1", "backwards==0", "backwards!=0", "outside==1"}) {
    DiagnosticList d;
    const SumOfProducts sop = compileDecode(expr, m, d);
    EXPECT_TRUE(d.hasErrors()) << expr;
    EXPECT_NE(d.toString().find("cannot be compared"), std::string::npos) << d.toString();
    EXPECT_TRUE(sop.alwaysFalse()) << expr;
  }
  DiagnosticList d;
  const SumOfProducts sop = compileDecode("ok==5", m, d);
  EXPECT_FALSE(d.hasErrors()) << d.toString();
  ASSERT_EQ(sop.cubes.size(), 1u);
  EXPECT_EQ(sop.cubes[0].literals(), 4);
}

TEST(Cube, IntersectAndLiterals) {
  const MicrocodeDecl m = mc8();
  DiagnosticList d;
  const SumOfProducts a = compileDecode("op==1", m, d);
  ASSERT_EQ(a.cubes.size(), 1u);
  EXPECT_EQ(a.cubes[0].literals(), 3);
  const SumOfProducts b = compileDecode("flag", m, d);
  auto i = a.cubes[0].intersect(b.cubes[0]);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(i->literals(), 4);
  // Conflicting cubes have no intersection.
  const SumOfProducts c = compileDecode("op==2", m, d);
  EXPECT_FALSE(a.cubes[0].intersect(c.cubes[0]).has_value());
}

}  // namespace
}  // namespace bb::icl

#include "icl/eval.hpp"

#include "icl/lexer.hpp"

#include <algorithm>

namespace bb::icl {

namespace {

void assembleItems(const std::vector<CoreItem>& items,
                   const std::map<std::string, bool>& vars, DiagnosticList& diags,
                   std::vector<ElementDecl>& out) {
  for (const CoreItem& item : items) {
    if (const auto* e = std::get_if<ElementDecl>(&item.node)) {
      out.push_back(*e);
    } else if (const auto* c = std::get_if<CondBlock>(&item.node)) {
      auto it = vars.find(c->var);
      if (it == vars.end()) {
        diags.error(c->loc, "unknown conditional-assembly variable '" + c->var + "'");
        continue;
      }
      const bool taken = c->negate ? !it->second : it->second;
      assembleItems(taken ? c->thenItems : c->elseItems, vars, diags, out);
    }
  }
}

}  // namespace

std::vector<ElementDecl> assembleCore(const ChipDesc& chip,
                                      const std::map<std::string, bool>& overrides,
                                      DiagnosticList& diags) {
  std::map<std::string, bool> vars = chip.vars;
  for (const auto& [k, v] : overrides) vars[k] = v;
  std::vector<ElementDecl> out;
  assembleItems(chip.core, vars, diags, out);
  return out;
}

int Cube::literals() const noexcept {
  int n = 0;
  for (std::int8_t b : bits) {
    if (b >= 0) ++n;
  }
  return n;
}

bool Cube::matches(unsigned long long word) const noexcept {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] < 0) continue;
    const int bit = static_cast<int>((word >> i) & 1);
    if (bit != bits[i]) return false;
  }
  return true;
}

std::optional<Cube> Cube::intersect(const Cube& o) const noexcept {
  Cube out(width());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const std::int8_t a = bits[i];
    const std::int8_t b = o.bits[i];
    if (a < 0) {
      out.bits[i] = b;
    } else if (b < 0 || a == b) {
      out.bits[i] = a;
    } else {
      return std::nullopt;
    }
  }
  return out;
}

std::string Cube::toString() const {
  std::string s;
  for (std::size_t i = bits.size(); i-- > 0;) {
    s += bits[i] < 0 ? 'x' : static_cast<char>('0' + bits[i]);
  }
  return s;
}

bool SumOfProducts::matches(unsigned long long word) const noexcept {
  return std::any_of(cubes.begin(), cubes.end(),
                     [&](const Cube& c) { return c.matches(word); });
}

namespace {

/// Decode-expression parser over the shared lexer.
class DecodeParser {
 public:
  DecodeParser(std::vector<Token> toks, const MicrocodeDecl& mc, DiagnosticList& diags)
      : toks_(std::move(toks)), mc_(mc), diags_(diags) {}

  SumOfProducts parse() {
    SumOfProducts r = orExpr();
    if (!at(TokKind::EndOfFile)) {
      diags_.error(cur().loc, "trailing input in decode expression");
    }
    return r;
  }

 private:
  const Token& cur() const { return toks_[pos_]; }
  void advance() {
    if (pos_ + 1 < toks_.size()) ++pos_;
  }
  bool at(TokKind k) const { return cur().kind == k; }
  bool accept(TokKind k) {
    if (at(k)) {
      advance();
      return true;
    }
    return false;
  }

  static SumOfProducts orOf(SumOfProducts a, const SumOfProducts& b) {
    for (const Cube& c : b.cubes) {
      if (std::find(a.cubes.begin(), a.cubes.end(), c) == a.cubes.end()) a.cubes.push_back(c);
    }
    return a;
  }

  SumOfProducts andOf(const SumOfProducts& a, const SumOfProducts& b) {
    SumOfProducts r;
    for (const Cube& ca : a.cubes) {
      for (const Cube& cb : b.cubes) {
        if (auto i = ca.intersect(cb)) {
          if (std::find(r.cubes.begin(), r.cubes.end(), *i) == r.cubes.end()) {
            r.cubes.push_back(*i);
          }
        }
      }
    }
    return r;
  }

  SumOfProducts constant(bool v) {
    SumOfProducts r;
    if (v) r.cubes.push_back(Cube(mc_.width));
    return r;
  }

  SumOfProducts fieldEq(const FieldDecl& f, long long value, bool negated, SourceLoc loc) {
    // A malformed declaration can reach here (the parser reports it but
    // keeps going): compare only fields inside the word whose values fit
    // a long long, so neither the shift nor the bit loops below go wrong.
    const long long width = static_cast<long long>(f.hi) - f.lo + 1;
    if (f.lo < 0 || f.hi >= mc_.width || width < 1 || width > 62) {
      diags_.error(loc, "field '" + f.name + "' [" + std::to_string(f.lo) + ":" +
                            std::to_string(f.hi) + "] cannot be compared: it must lie inside the " +
                            std::to_string(mc_.width) + "-bit microcode word and span 1..62 bits");
      return constant(false);
    }
    const long long maxv = (1ll << width) - 1;
    if (value < 0 || value > maxv) {
      diags_.error(loc, "value " + std::to_string(value) + " out of range for field '" + f.name +
                            "' (0.." + std::to_string(maxv) + ")");
      return constant(false);
    }
    if (!negated) {
      Cube c(mc_.width);
      for (int b = f.lo; b <= f.hi; ++b) {
        c.bits[static_cast<std::size_t>(b)] =
            static_cast<std::int8_t>((value >> (b - f.lo)) & 1);
      }
      SumOfProducts r;
      r.cubes.push_back(std::move(c));
      return r;
    }
    // field != N  ==  OR over bits that differ from N's bit.
    SumOfProducts r;
    for (int b = f.lo; b <= f.hi; ++b) {
      Cube c(mc_.width);
      c.bits[static_cast<std::size_t>(b)] =
          static_cast<std::int8_t>(1 - ((value >> (b - f.lo)) & 1));
      r.cubes.push_back(std::move(c));
    }
    return r;
  }

  SumOfProducts atom() {
    if (accept(TokKind::LParen)) {
      SumOfProducts r = orExpr();
      if (!accept(TokKind::RParen)) diags_.error(cur().loc, "expected ')'");
      return r;
    }
    if (at(TokKind::Number)) {
      const long long v = cur().number;
      const SourceLoc loc = cur().loc;
      advance();
      if (v != 0 && v != 1) diags_.error(loc, "only 0/1 literals allowed");
      return constant(v != 0);
    }
    const bool neg = accept(TokKind::Bang);
    if (!at(TokKind::Ident)) {
      diags_.error(cur().loc, "expected field name in decode expression");
      advance();
      return constant(false);
    }
    const std::string name = cur().text;
    const SourceLoc loc = cur().loc;
    advance();
    const FieldDecl* f = mc_.field(name);
    if (f == nullptr) {
      diags_.error(loc, "unknown microcode field '" + name + "'");
      return constant(false);
    }
    if (at(TokKind::EqEq) || at(TokKind::BangEq)) {
      const bool ne = at(TokKind::BangEq);
      advance();
      if (!at(TokKind::Number)) {
        diags_.error(cur().loc, "expected number after comparison");
        return constant(false);
      }
      const long long v = cur().number;
      advance();
      if (neg) {
        diags_.error(loc, "'!' cannot prefix a comparison; use != instead");
        return constant(false);
      }
      return fieldEq(*f, v, ne, loc);
    }
    // Bare field: must be single-bit.
    if (f->hi != f->lo) {
      diags_.error(loc, "bare use of multi-bit field '" + name + "' (use field==N)");
      return constant(false);
    }
    return fieldEq(*f, neg ? 0 : 1, false, loc);
  }

  SumOfProducts andExpr() {
    SumOfProducts r = atom();
    while (accept(TokKind::Amp)) r = andOf(r, atom());
    return r;
  }

  SumOfProducts orExpr() {
    SumOfProducts r = andExpr();
    while (accept(TokKind::Pipe)) r = orOf(r, andExpr());
    return r;
  }

  std::vector<Token> toks_;
  const MicrocodeDecl& mc_;
  DiagnosticList& diags_;
  std::size_t pos_ = 0;
};

}  // namespace

SumOfProducts compileDecode(std::string_view expr, const MicrocodeDecl& mc,
                            DiagnosticList& diags) {
  std::vector<Token> toks = tokenize(expr, diags);
  DecodeParser p(std::move(toks), mc, diags);
  return p.parse();
}

}  // namespace bb::icl

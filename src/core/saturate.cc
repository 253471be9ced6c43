#include "src/core/saturate.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace gqc {

namespace {

// Filler nodes are nested at most this deep below a variable.
constexpr int kMaxFillerDepth = 4;
// Distinct filler seed sets explored in one saturation.
constexpr std::size_t kMaxFillers = 64;

/// What the ∀ rules read off one P atom's language, for a non-nullable atom
/// only: the letter of a one-letter language, the letter every word ends
/// with and the letter every word starts with, each when it is a role.
struct AtomShape {
  std::optional<Role> single;
  std::optional<Role> last;
  std::optional<Role> first;
};

/// The role every transition of `moves` into (or out of) a `live` state
/// reads, or nullopt if they read two letters, a test, or nothing at all.
std::optional<Role> OnlyRole(
    const std::vector<std::pair<Symbol, uint32_t>>& moves,
    const std::vector<bool>& live) {
  std::optional<Role> only;
  // lint: bounded(the transitions of one state)
  for (const auto& [sym, other] : moves) {
    if (!live[other]) continue;
    if (!sym.is_role() || (only.has_value() && *only != sym.role())) {
      return std::nullopt;
    }
    only = sym.role();
  }
  return only;
}

AtomShape ShapeOf(const Semiautomaton& a, const BinaryAtom& atom) {
  AtomShape shape;
  if (atom.allow_empty || atom.start == atom.end) return shape;
  const std::vector<bool> reach = a.ReachableStates(atom.start);
  const std::vector<bool> coreach = a.CoReachableStates(atom.end);
  // The last letter of a word enters the end from a state the start
  // reaches; the first leaves the start for a state that reaches the end.
  shape.last = OnlyRole(a.In(atom.end), reach);
  shape.first = OnlyRole(a.Out(atom.start), coreach);
  // One letter: every first letter enters the end, and no run leaves the
  // end to come back to it.
  const auto& out = a.Out(atom.start);
  const auto& again = a.Out(atom.end);
  const bool one_letter =
      std::all_of(out.begin(), out.end(),
                  [&](const auto& m) {
                    return !coreach[m.second] || m.second == atom.end;
                  }) &&
      std::none_of(again.begin(), again.end(),
                   [&](const auto& m) { return coreach[m.second]; });
  if (one_letter) shape.single = shape.first;
  return shape;
}

/// The closure of one saturation. A node's literal set is one byte per
/// literal code: P's variables are rows of `known_`, the `everywhere` node
/// and each filler node a row of their own.
class Saturator {
 public:
  Saturator(const Crpq& p, const NormalTBox& tbox, ResourceGuard* guard)
      : p_(p), cis_(tbox.Cis()), guard_(guard) {
    uint32_t top = 0;
    // lint: bounded(one pass over the TBox's CIs and their literals)
    for (uint32_t i = 0; i < cis_.size(); ++i) {
      const NormalCi& ci = cis_[i];
      // lint: bounded(the literals of one CI)
      for (Literal l : ci.lhs) top = std::max(top, l.code());
      // lint: bounded(the literals of one CI)
      for (Literal l : ci.rhs) top = std::max(top, l.code());
      if (ci.kind != NormalCi::Kind::kBoolean) {
        top = std::max(top, ci.rhs_lit.code());
      }
      switch (ci.kind) {
        case NormalCi::Kind::kBoolean:
          booleans_.push_back(i);
          break;
        case NormalCi::Kind::kForall:
          foralls_.push_back(i);
          break;
        case NormalCi::Kind::kAtLeast:
          if (ci.n >= 1) at_leasts_.push_back(i);
          break;
        case NormalCi::Kind::kAtMost:
          break;
      }
    }
    // lint: bounded(one pass over p's unary atoms)
    for (const UnaryAtom& u : p.UnaryAtoms()) {
      top = std::max(top, u.literal.code());
    }
    // Even, so a literal's complement has a slot too.
    width_ = (top | 1u) + 1;
  }

  Saturation Run() {
    Saturation out;
    SaturationCertificate& cert = out.certificate;
    const std::size_t n = p_.VarCount();
    if (n == 0 || GuardTripped()) {
      out.saturated = p_;
      return out;
    }
    everywhere_.assign(width_, 0);
    if (CloseNode(0, everywhere_.data(), &cert.everywhere, 0)) {
      cert.clash = true;
      return out;
    }
    own_.assign(n * width_, 0);
    // lint: bounded(one pass over p's unary atoms)
    for (const UnaryAtom& u : p_.UnaryAtoms()) {
      own_[u.var * width_ + u.literal.code()] = 1;
    }
    known_ = own_;
    // lint: bounded(one pass over p's variables)
    for (std::size_t v = 0; v < n; ++v) {
      uint8_t* row = Row(v);
      // lint: bounded(one pass over the literal codes)
      for (uint32_t c = 0; c < width_; ++c) row[c] |= everywhere_[c];
    }
    // lint: bounded(one pass over p's unary atoms)
    for (const UnaryAtom& u : p_.UnaryAtoms()) {
      if (Holds(Row(u.var), u.literal.Complemented())) {
        cert.steps.push_back(ComplementClash(u.var, u.literal));
        cert.clash = true;
        return out;
      }
    }
    std::vector<AtomShape> shapes;
    if (!foralls_.empty()) {
      // lint: bounded(one pass over p's binary atoms)
      for (const BinaryAtom& atom : p_.BinaryAtoms()) {
        shapes.push_back(ShapeOf(p_.Automaton(), atom));
      }
    }
    bool changed = true;
    // lint: bounded(each pass but the last concludes a new literal on some variable: at most n * width_ passes)
    while (changed && !GuardTripped()) {
      // lint: bounded(one pass over p's variables)
      for (uint32_t v = 0; v < n; ++v) {
        if (CloseNode(v, Row(v), &cert.steps, 0)) {
          cert.clash = true;
          return out;
        }
      }
      const std::size_t before = cert.steps.size();
      if (ApplyForalls(shapes, &cert.steps)) {
        cert.clash = true;
        return out;
      }
      changed = cert.steps.size() > before;
    }
    out.saturated = p_;
    // lint: bounded(one pass over p's variables)
    for (uint32_t v = 0; v < n; ++v) {
      // lint: bounded(one pass over the literal codes)
      for (uint32_t c = 0; c < width_; ++c) {
        if (known_[v * width_ + c] != 0 && own_[v * width_ + c] == 0) {
          out.saturated.AddUnary(v, Literal::FromCode(c));
        }
      }
    }
    return out;
  }

 private:
  bool GuardTripped() {
    return guard_ != nullptr && guard_->Recheck(GuardPhase::kScreen);
  }

  uint8_t* Row(std::size_t v) { return known_.data() + v * width_; }

  bool Holds(const uint8_t* known, Literal l) const {
    return l.code() < width_ && known[l.code()] != 0;
  }

  bool AllHold(const uint8_t* known,
               const std::vector<Literal>& literals) const {
    return std::all_of(literals.begin(), literals.end(),
                       [&](Literal l) { return Holds(known, l); });
  }

  static SaturationStep ComplementClash(uint32_t var, Literal l) {
    SaturationStep step;
    step.rule = SaturationStep::Rule::kComplement;
    step.clash = true;
    step.var = var;
    step.literal = l;
    return step;
  }

  /// Closes one node's literals under the Boolean CIs, then tests the
  /// fillers of its applicable at-least CIs. Appends the steps (on `var`)
  /// to `steps`; true on a clash, which is then the last step.
  bool CloseNode(uint32_t var, uint8_t* known,
                 std::vector<SaturationStep>* steps, int depth) {
    bool changed = true;
    // lint: bounded(each pass but the last concludes a new literal: at most width_ passes)
    while (changed) {
      changed = false;
      // lint: bounded(one pass over the Boolean CIs)
      for (uint32_t i : booleans_) {
        const NormalCi& ci = cis_[i];
        if (!AllHold(known, ci.lhs)) continue;
        std::size_t open = 0;
        Literal left;
        // lint: bounded(the rhs literals of one CI)
        for (Literal l : ci.rhs) {
          if (!Holds(known, l.Complemented())) {
            ++open;
            left = l;
          }
        }
        if (open > 1 || (open == 1 && Holds(known, left))) continue;
        SaturationStep step;
        step.var = var;
        step.ci = i;
        if (open == 0) {
          step.clash = true;
          steps->push_back(step);
          return true;
        }
        step.literal = left;
        known[left.code()] = 1;
        steps->push_back(step);
        changed = true;
      }
    }
    if (depth >= kMaxFillerDepth) return false;
    // lint: bounded(one pass over the at-least CIs)
    for (uint32_t i : at_leasts_) {
      const NormalCi& ci = cis_[i];
      if (!AllHold(known, ci.lhs)) continue;
      SaturationStep step;
      if (FillerClashes(ci, known, depth + 1, &step)) {
        step.rule = SaturationStep::Rule::kFiller;
        step.clash = true;
        step.var = var;
        step.ci = i;
        steps->push_back(std::move(step));
        return true;
      }
    }
    return false;
  }

  /// True if a filler of `ci` below a node carrying `known` clashes; its
  /// seeds and derivation then go to `step`. A seed set already explored
  /// (or being explored further up) is not explored again.
  bool FillerClashes(const NormalCi& ci, const uint8_t* known, int depth,
                     SaturationStep* step) {
    std::vector<Literal> seeds{ci.rhs_lit};
    // lint: bounded(one pass over the ∀ CIs)
    for (uint32_t i : foralls_) {
      const NormalCi& passed = cis_[i];
      if (passed.role == ci.role && AllHold(known, passed.lhs)) {
        seeds.push_back(passed.rhs_lit);
      }
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    if (visited_.size() == kMaxFillers ||
        std::find(visited_.begin(), visited_.end(), seeds) != visited_.end()) {
      return false;
    }
    visited_.push_back(seeds);
    std::vector<uint8_t> filler = everywhere_;
    // lint: bounded(the seeds of one filler)
    for (Literal l : seeds) filler[l.code()] = 1;
    std::vector<SaturationStep> derivation;
    bool clash = false;
    // lint: bounded(the seeds of one filler)
    for (Literal l : seeds) {
      if (Holds(filler.data(), l.Complemented())) {
        derivation.push_back(ComplementClash(0, l));
        clash = true;
        break;
      }
    }
    clash = clash || CloseNode(0, filler.data(), &derivation, depth);
    if (!clash) return false;
    step->seeds = std::move(seeds);
    step->filler = std::move(derivation);
    return true;
  }

  /// Concludes `l` on variable `v` by `rule` unless it is there already.
  /// True on a clash with its complement.
  bool Conclude(uint32_t v, Literal l, SaturationStep::Rule rule, uint32_t ci,
                uint32_t atom, std::vector<SaturationStep>* steps) {
    uint8_t* row = Row(v);
    if (Holds(row, l)) return false;
    row[l.code()] = 1;
    SaturationStep step;
    step.rule = rule;
    step.var = v;
    step.ci = ci;
    step.atom = atom;
    step.literal = l;
    steps->push_back(step);
    if (!Holds(row, l.Complemented())) return false;
    steps->push_back(ComplementClash(v, l));
    return true;
  }

  /// One pass of the ∀ rules over every ∀ CI and P atom. True on a clash.
  bool ApplyForalls(const std::vector<AtomShape>& shapes,
                    std::vector<SaturationStep>* steps) {
    using Rule = SaturationStep::Rule;
    const auto& atoms = p_.BinaryAtoms();
    // lint: bounded(one pass over the ∀ CIs)
    for (uint32_t i : foralls_) {
      const NormalCi& ci = cis_[i];
      const Role s = ci.role;
      const Literal l = ci.rhs_lit;
      const bool everywhere = AllHold(everywhere_.data(), ci.lhs);
      // lint: bounded(one pass over p's binary atoms)
      for (uint32_t j = 0; j < atoms.size(); ++j) {
        const BinaryAtom& a = atoms[j];
        const AtomShape& shape = shapes[j];
        bool clash = false;
        if (shape.single == s && AllHold(Row(a.y), ci.lhs)) {
          clash = Conclude(a.z, l, Rule::kForallEdge, i, j, steps);
        }
        if (!clash && shape.single == s.Reversed() &&
            AllHold(Row(a.z), ci.lhs)) {
          clash = Conclude(a.y, l, Rule::kForallEdge, i, j, steps);
        }
        if (!clash && everywhere && shape.last == s) {
          clash = Conclude(a.z, l, Rule::kForallPath, i, j, steps);
        }
        if (!clash && everywhere && shape.first == s.Reversed()) {
          clash = Conclude(a.y, l, Rule::kForallPath, i, j, steps);
        }
        if (clash) return true;
      }
    }
    return false;
  }

  const Crpq& p_;
  const std::vector<NormalCi>& cis_;
  ResourceGuard* guard_;
  std::vector<uint32_t> booleans_;
  std::vector<uint32_t> foralls_;
  std::vector<uint32_t> at_leasts_;
  uint32_t width_ = 0;
  std::vector<uint8_t> everywhere_;
  std::vector<uint8_t> own_;    // P's own literals, one row per variable
  std::vector<uint8_t> known_;  // own_ plus every conclusion
  std::vector<std::vector<Literal>> visited_;
};

}  // namespace

Saturation SaturateUnderSchema(const Crpq& p, const NormalTBox& tbox,
                               ResourceGuard* guard) {
  return Saturator(p, tbox, guard).Run();
}

}  // namespace gqc

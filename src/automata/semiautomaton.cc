#include "src/automata/semiautomaton.h"

#include <algorithm>
#include <deque>
#include <set>

#include "src/automata/validate.h"
#include "src/util/invariant.h"

namespace gqc {

uint32_t Semiautomaton::AddState() {
  uint32_t id = static_cast<uint32_t>(out_.size());
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

void Semiautomaton::AddTransition(uint32_t from, Symbol symbol, uint32_t to) {
  auto entry = std::make_pair(symbol, to);
  if (std::find(out_[from].begin(), out_[from].end(), entry) != out_[from].end()) {
    return;
  }
  out_[from].emplace_back(symbol, to);
  in_[to].emplace_back(symbol, from);
  ++transition_count_;
}

uint32_t Semiautomaton::DisjointUnion(const Semiautomaton& other) {
  uint32_t offset = static_cast<uint32_t>(StateCount());
  for (uint32_t s = 0; s < other.StateCount(); ++s) AddState();
  for (uint32_t s = 0; s < other.StateCount(); ++s) {
    for (const auto& [sym, t] : other.Out(s)) {
      AddTransition(offset + s, sym, offset + t);
    }
  }
  return offset;
}

Semiautomaton Semiautomaton::Reversed() const {
  Semiautomaton rev;
  for (uint32_t s = 0; s < StateCount(); ++s) rev.AddState();
  for (uint32_t s = 0; s < StateCount(); ++s) {
    for (const auto& [sym, t] : Out(s)) rev.AddTransition(t, sym, s);
  }
  return rev;
}

std::vector<Symbol> Semiautomaton::Alphabet() const {
  std::set<Symbol> symbols;
  for (uint32_t s = 0; s < StateCount(); ++s) {
    for (const auto& [sym, t] : Out(s)) symbols.insert(sym);
  }
  return std::vector<Symbol>(symbols.begin(), symbols.end());
}

namespace {

/// The states reached from `from` (inclusive) along `edges(s)`.
template <typename Edges>
std::vector<bool> Closure(std::size_t states, uint32_t from, Edges edges) {
  std::vector<bool> seen(states, false);
  std::vector<uint32_t> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    const uint32_t s = stack.back();
    stack.pop_back();
    for (const auto& [sym, t] : edges(s)) {
      if (!seen[t]) {
        seen[t] = true;
        stack.push_back(t);
      }
    }
  }
  return seen;
}

}  // namespace

std::vector<bool> Semiautomaton::ReachableStates(uint32_t from) const {
  return Closure(StateCount(), from,
                 [this](uint32_t s) -> const auto& { return Out(s); });
}

std::vector<bool> Semiautomaton::CoReachableStates(uint32_t to) const {
  return Closure(StateCount(), to,
                 [this](uint32_t s) -> const auto& { return In(s); });
}

namespace {

/// Thompson construction scratch automaton with explicit epsilon edges.
struct EpsNfa {
  struct Trans {
    uint32_t to;
    bool eps;
    Symbol symbol;
  };
  std::vector<std::vector<Trans>> out;

  uint32_t AddState() {
    out.emplace_back();
    return static_cast<uint32_t>(out.size() - 1);
  }
  void AddEps(uint32_t a, uint32_t b) { out[a].push_back({b, true, {}}); }
  void AddSym(uint32_t a, Symbol s, uint32_t b) { out[a].push_back({b, false, s}); }
};

struct Fragment {
  uint32_t start;
  uint32_t end;
};

Fragment BuildThompson(const RegexPtr& r, EpsNfa* nfa) {
  switch (r->kind) {
    case RegexKind::kEpsilon: {
      uint32_t s = nfa->AddState();
      uint32_t e = nfa->AddState();
      nfa->AddEps(s, e);
      return {s, e};
    }
    case RegexKind::kSymbol: {
      uint32_t s = nfa->AddState();
      uint32_t e = nfa->AddState();
      nfa->AddSym(s, r->symbol, e);
      return {s, e};
    }
    case RegexKind::kConcat: {
      Fragment acc = BuildThompson(r->children[0], nfa);
      for (std::size_t i = 1; i < r->children.size(); ++i) {
        Fragment next = BuildThompson(r->children[i], nfa);
        nfa->AddEps(acc.end, next.start);
        acc.end = next.end;
      }
      return acc;
    }
    case RegexKind::kUnion: {
      uint32_t s = nfa->AddState();
      uint32_t e = nfa->AddState();
      for (const auto& c : r->children) {
        Fragment f = BuildThompson(c, nfa);
        nfa->AddEps(s, f.start);
        nfa->AddEps(f.end, e);
      }
      return {s, e};
    }
    case RegexKind::kStar: {
      uint32_t s = nfa->AddState();
      uint32_t e = nfa->AddState();
      Fragment f = BuildThompson(r->children[0], nfa);
      nfa->AddEps(s, e);
      nfa->AddEps(s, f.start);
      nfa->AddEps(f.end, f.start);
      nfa->AddEps(f.end, e);
      return {s, e};
    }
  }
  return {0, 0};
}

std::vector<std::vector<bool>> EpsilonClosure(const EpsNfa& nfa) {
  const std::size_t n = nfa.out.size();
  std::vector<std::vector<bool>> closure(n, std::vector<bool>(n, false));
  for (uint32_t s = 0; s < n; ++s) {
    std::deque<uint32_t> queue{s};
    closure[s][s] = true;
    while (!queue.empty()) {
      uint32_t u = queue.front();
      queue.pop_front();
      for (const auto& t : nfa.out[u]) {
        if (t.eps && !closure[s][t.to]) {
          closure[s][t.to] = true;
          queue.push_back(t.to);
        }
      }
    }
  }
  return closure;
}

}  // namespace

CompiledRegex CompileRegex(const RegexPtr& regex) {
  CompiledRegex result;
  CompiledRef ref = CompileRegexInto(regex, &result.automaton);
  result.start = ref.start;
  result.end = ref.end;
  result.nullable = ref.nullable;
  GQC_AUDIT(ValidateCompiledRegex(result));
  return result;
}

CompiledRef CompileRegexInto(const RegexPtr& regex, Semiautomaton* target) {
  EpsNfa eps;
  Fragment frag = BuildThompson(regex, &eps);
  auto closure = EpsilonClosure(eps);

  uint32_t offset = static_cast<uint32_t>(target->StateCount());
  for (std::size_t s = 0; s < eps.out.size(); ++s) target->AddState();

  // Two-sided epsilon elimination: (p, a, q) whenever p =eps*=> p',
  // p' --a--> q', q' =eps*=> q. A non-empty word then runs start -> end
  // exactly when the Thompson automaton accepts it.
  const std::size_t n = eps.out.size();
  for (uint32_t p = 0; p < n; ++p) {
    for (uint32_t mid = 0; mid < n; ++mid) {
      if (!closure[p][mid]) continue;
      for (const auto& t : eps.out[mid]) {
        if (t.eps) continue;
        for (uint32_t q = 0; q < n; ++q) {
          if (closure[t.to][q]) {
            target->AddTransition(offset + p, t.symbol, offset + q);
          }
        }
      }
    }
  }
  return CompiledRef{offset + frag.start, offset + frag.end, IsNullable(regex)};
}

}  // namespace gqc

#include "src/automata/compile_cache.h"

#include <memory>
#include <utility>

namespace gqc {

namespace {

void AppendKey(const RegexPtr& r, std::string* out) {
  if (r == nullptr) {
    out->push_back('0');
    return;
  }
  switch (r->kind) {
    case RegexKind::kEpsilon:
      out->push_back('e');
      return;
    case RegexKind::kSymbol:
      out->push_back('s');
      out->append(std::to_string(r->symbol.code()));
      out->push_back(';');
      return;
    case RegexKind::kConcat:
      out->push_back('c');
      break;
    case RegexKind::kUnion:
      out->push_back('u');
      break;
    case RegexKind::kStar:
      out->push_back('*');
      break;
  }
  out->append(std::to_string(r->children.size()));
  out->push_back('(');
  for (const RegexPtr& child : r->children) AppendKey(child, out);
  out->push_back(')');
}

}  // namespace

std::string RegexStructuralKey(const RegexPtr& regex) {
  std::string key;
  key.reserve(32);
  AppendKey(regex, &key);
  return key;
}

CompiledRef RegexCompileCache::CompileInto(const RegexPtr& regex,
                                           Semiautomaton* target,
                                           PipelineStats* stats) {
  FpKey key(RegexStructuralKey(regex));
  auto [compiled, hit] = cache_.GetOrBuild(std::move(key), [&] {
    if (stats) stats->regex_misses.fetch_add(1, std::memory_order_relaxed);
    auto built = std::make_shared<const CompiledRegex>(CompileRegex(regex));
    // States + transitions dominate the resident size of a compilation.
    std::size_t bytes = 32 * built->automaton.StateCount() +
                        16 * built->automaton.TransitionCount() + 64;
    return Built{std::move(built), bytes};
  });
  if (hit && stats) stats->regex_hits.fetch_add(1, std::memory_order_relaxed);
  uint32_t offset = target->DisjointUnion(compiled->automaton);
  CompiledRef ref;
  ref.start = compiled->start + offset;
  ref.end = compiled->end + offset;
  ref.nullable = compiled->nullable;
  return ref;
}

}  // namespace gqc

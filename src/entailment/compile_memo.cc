#include "src/entailment/compile_memo.h"

#include <string>
#include <utility>

namespace gqc {

namespace {

/// Appends the support of `space` at the id level. Support order fixes bit
/// positions, so two spaces serialize equal iff their compiled artifacts are
/// interchangeable.
void AppendSpacePart(std::string* out, const TypeSpace& space) {
  // lint: bounded(linear in the support, <= 64 ids)
  for (uint32_t id : space.support()) {
    out->append(std::to_string(id));
    out->push_back(',');
  }
}

/// Appends one normalized CI at the id level: kind tag, lhs/rhs literal
/// codes, restriction payload. Codes already encode polarity/direction, so
/// the serialization is exact — two TBoxes serialize equal iff their CIs are
/// structurally identical over the same ids.
void AppendCiPart(std::string* out, const NormalCi& ci) {
  out->push_back("bfan"[static_cast<std::size_t>(ci.kind)]);
  // lint: bounded(literals of one CI lhs)
  for (Literal l : ci.lhs) {
    out->append(std::to_string(l.code()));
    out->push_back(',');
  }
  out->push_back('|');
  // lint: bounded(literals of one CI rhs)
  for (Literal l : ci.rhs) {
    out->append(std::to_string(l.code()));
    out->push_back(',');
  }
  out->push_back('|');
  out->append(std::to_string(ci.rhs_lit.code()));
  out->push_back(':');
  out->append(std::to_string(ci.role.code()));
  out->push_back(':');
  out->append(std::to_string(ci.n));
  out->push_back(';');
}

std::string BooleanCisKey(const TypeSpace& space, const NormalTBox& tbox) {
  std::string key;
  key.reserve(16 + 16 * tbox.size());
  key.append("cis:");
  AppendSpacePart(&key, space);
  key.push_back('/');
  // Only Boolean CIs feed CompiledBooleanCis, but restriction CIs are
  // serialized too: the key stays a plain serialization of (support, TBox)
  // with no per-kind filtering logic to keep in sync with the compiler.
  // lint: bounded(linear in the TBox CIs)
  for (const NormalCi& ci : tbox.Cis()) AppendCiPart(&key, ci);
  return key;
}

std::string ThetaKey(const TypeSpace& space, const std::vector<Type>& theta) {
  std::string key;
  key.reserve(16 + 16 * theta.size());
  key.append("theta:");
  AppendSpacePart(&key, space);
  key.push_back('/');
  // lint: bounded(linear in the theta types)
  for (const Type& t : theta) {
    // Literals() is canonical (positives then negatives, ascending), so
    // equal types serialize equal.
    // lint: bounded(literals of one type)
    for (Literal l : t.Literals()) {
      key.append(std::to_string(l.code()));
      key.push_back(',');
    }
    key.push_back(';');
  }
  return key;
}

}  // namespace

std::shared_ptr<const CompiledBooleanCis> CompiledScopeMemo::GetBooleanCis(
    const TypeSpace& space, const NormalTBox& tbox) {
  auto [cis, hit] = boolean_.GetOrBuild(FpKey(BooleanCisKey(space, tbox)), [&] {
    return Built{std::make_shared<const CompiledBooleanCis>(space, tbox),
                 32 * tbox.size() + 64};
  });
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return cis;
}

std::shared_ptr<const CompiledTheta> CompiledScopeMemo::GetTheta(
    const TypeSpace& space, const std::vector<Type>& theta) {
  auto [compiled, hit] = theta_.GetOrBuild(FpKey(ThetaKey(space, theta)), [&] {
    return Built{std::make_shared<const CompiledTheta>(space, theta),
                 24 * theta.size() + 64};
  });
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return compiled;
}

}  // namespace gqc

#ifndef GQC_CORE_STRATEGY_ID_H_
#define GQC_CORE_STRATEGY_ID_H_

#include <cstddef>
#include <cstdint>

namespace gqc {

/// Identity of a registered decision strategy (src/core/strategy.h). The ids
/// are dense so per-strategy stats counters can live in fixed arrays; the
/// order here is also the default *sequential* priority order (cheapest
/// first), which is what keeps the sequential mode bit-identical to the
/// pre-strategy pipeline.
enum class StrategyId : uint8_t {
  kScreen = 0,   // cheap exact screens (trivial, mapping, classical)
  kDirect,       // direct bounded countermodel search against the full TBox
  kWitness,      // refutation-only deep witness search (portfolio extra)
  kReduction,    // full §3 reduction -> finite entailment
};
inline constexpr std::size_t kStrategyCount = 4;

inline const char* StrategyName(StrategyId id) {
  switch (id) {
    case StrategyId::kScreen:
      return "screen";
    case StrategyId::kDirect:
      return "direct";
    case StrategyId::kWitness:
      return "witness";
    case StrategyId::kReduction:
      return "reduction";
  }
  return "?";
}

}  // namespace gqc

#endif  // GQC_CORE_STRATEGY_ID_H_

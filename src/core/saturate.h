#ifndef GQC_CORE_SATURATE_H_
#define GQC_CORE_SATURATE_H_

#include <cstdint>
#include <vector>

#include "src/dl/tbox.h"
#include "src/query/crpq.h"
#include "src/util/guard.h"

namespace gqc {

/// One step of a SaturationCertificate: a rule, the normal-form CI it
/// applies (`ci`, an index into NormalTBox::Cis()), the node it concludes on
/// and what it concludes. Its premises are the CI's lhs literals on the node
/// the rule reads them from (and, for kBoolean, the complements of the other
/// rhs literals there), each carried by P or concluded by an earlier step.
struct SaturationStep {
  enum class Rule : uint8_t {
    /// Boolean CI `ci` on `var`: its lhs holds there and every rhs literal
    /// but `literal` has its complement there. A clash when no rhs literal
    /// is left open.
    kBoolean,
    /// ∀-CI `ci` (l⃗ ⊑ ∀s.l') along P atom `atom`, whose language is the one
    /// letter s (`var` is the atom's z, the lhs holds on its y) or s⁻ (`var`
    /// is its y, the lhs holds on its z). Concludes `literal` = l'.
    kForallEdge,
    /// ∀-CI `ci` whose lhs the `everywhere` steps conclude, along the
    /// non-nullable P atom `atom` all of whose words end with s (`var` is
    /// the atom's z) or start with s⁻ (`var` is its y). Concludes `literal`.
    kForallPath,
    /// At-least CI `ci` (l⃗ ⊑ ∃^{≥n} s.l') on `var`: its lhs holds there, and
    /// a node carrying `seeds` (l' and the rhs of ∀s CIs whose lhs holds on
    /// `var`) clashes by the `filler` steps. Always a clash.
    kFiller,
    /// `var` carries both `literal` and its complement. Always a clash.
    kComplement,
  };
  Rule rule = Rule::kBoolean;
  bool clash = false;
  uint32_t var = 0;
  uint32_t ci = 0;
  uint32_t atom = 0;
  Literal literal;
  /// kFiller only: the filler's seed literals and its own derivation, on
  /// one node (`var` 0), which ends in a clash.
  std::vector<Literal> seeds;
  std::vector<SaturationStep> filler;
};

/// The derivation behind a saturation. Every model of the TBox carries the
/// `everywhere` conclusions on every node, and every match of P in it
/// carries each conclusion of `steps` on the image of its variable. A clash
/// (the last step of either list) means P has no match in any model.
struct SaturationCertificate {
  /// Node-local steps from no premise at all (`var` unused).
  std::vector<SaturationStep> everywhere;
  /// Steps on P's variables, in derivation order.
  std::vector<SaturationStep> steps;
  bool clash = false;
};

/// P with the literals the TBox forces on its variables, and why.
struct Saturation {
  /// P plus one unary atom per literal concluded on a variable or
  /// everywhere that P does not carry there (P's own atoms first, in their
  /// order). Meaningless after a clash.
  Crpq saturated;
  SaturationCertificate certificate;
};

/// Closes each variable's literal set of `p` under the TBox, by three
/// polynomial rules:
///   - Boolean CIs, by unit propagation (from no literal at all for the
///     `everywhere` literals, which then seed every variable);
///   - ∀-CIs along P atoms: along an atom whose language is one letter s,
///     the lhs on y gives l' on z (the lhs on z, for ∀s⁻); and for a CI whose
///     lhs holds everywhere, along a non-nullable atom all of whose words
///     end with s (l' on z) or start with s⁻ (l' on y);
///   - participation fillers: a clash in the filler of an applicable
///     at-least CI, seeded with its literal and the ∀s literals the variable
///     passes to it, is a clash on the variable (depth-bounded, with a
///     visited set).
/// Every conclusion holds on every match of p in every model of the TBox;
/// a clash means p is unsatisfiable modulo the TBox. Sound, not complete.
/// `guard` is only polled (Recheck, deadline and cancellation), never
/// charged; a trip stops the closure where it is, which stays sound.
[[nodiscard]] Saturation SaturateUnderSchema(const Crpq& p,
                                             const NormalTBox& tbox,
                                             ResourceGuard* guard = nullptr);

}  // namespace gqc

#endif  // GQC_CORE_SATURATE_H_

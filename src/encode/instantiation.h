// Instantiation(Se): grounding a specification into the instance
// constraints Ω(Se) of §V-A.
//
// Ω(Se) conceptually contains four families:
//   (1a) unit constraints for the partial currency orders in It;
//   (1b) transitivity and (1c) asymmetry of each ≺^v_A;
//   (2)  currency constraints instantiated on tuple pairs;
//   (3)  constant CFDs expanded per competing value b.
// Families (2), (3) and (1a) are materialized here — they carry the
// provenance that TrueDer (§V-C) partitions into derivation rules.
// Families (1b)/(1c) are pure functions of the domains and are streamed
// directly into the CNF by cnf_builder.h, never stored.
//
// Family (2) is grounded as a filtered join on dense value codes. Each
// tuple is turned into a row of codes — a value's index in its VarMap
// domain, -1 for null — once, by VarMap::BuildFrom as it assigns the
// domains. Σ constraints that mention the same attribute set share one
// table of the distinct code projections onto those attributes; the
// grouping and each predicate's column come from the shared RuleSet.
// Σ's constants are resolved once per entity, by looking each domain
// value up among them; an equality with a value outside the attribute's
// domain holds on no tuple, so the constraint is skipped in O(1), without
// a scan (most of Person's status/job transition rules name a status this
// entity never had). Otherwise one pass over its table keeps the
// projections that can stand as t1 (non-null head and order values, every
// t1 constant predicate true) and those that can stand as t2, and only
// pairs drawn from those two side lists are checked; = and != compare
// codes, and the head and body atoms are the codes themselves. A
// constraint therefore costs its table length plus |side1|·|side2| pair
// checks — not |It|^2, nor the square of the distinct projections. A
// Person status/job transition rule keeps about one projection per side,
// which is what makes the paper's 10k-tuple Person entities (Fig. 8(a))
// tractable.
//
// The framework loop (Fig. 4) re-grounds the *same* specification plus a
// small user delta every round, so Build retains its grounding state
// (projection tables, emitted units, CFD applicability) and ExtendWith
// grounds only the delta, appending constraints and domain values without
// disturbing anything already emitted. Appended constraints follow the
// same canonical order a from-scratch Build would produce (see `seq`), so
// downstream rule mining is bit-compatible with a full rebuild.
//
// Bodies live in one OrderAtom arena on the Instantiation; a constraint
// holds a range of it. The rules of one (CFD, guard version) all share
// one range, so a CFD grounded against d competing values stores its
// body once, not d times, and recycling an Instantiation frees nothing.

#ifndef CCR_ENCODE_INSTANTIATION_H_
#define CCR_ENCODE_INSTANTIATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/constraints/specification.h"
#include "src/encode/varmap.h"

namespace ccr {

/// How a ground constraint concludes.
enum class GroundHead {
  kAtom,     // body -> head atom            (orders, currency rules, CFDs)
  kFalse,    // body -> false                (head was unsatisfiable)
};

/// Where a ground constraint came from (provenance for TrueDer).
enum class GroundSource {
  kCurrencyOrder,       // partial order pair in It
  kCurrencyConstraint,  // some ϕ ∈ Σ on a tuple pair
  kCfd,                 // some ψ ∈ Γ and a competing value
};

struct Instantiation;

/// \brief One materialized instance constraint: conjunction of positive
/// order atoms implying a head atom (or false).
struct GroundConstraint {
  GroundSource source = GroundSource::kCurrencyOrder;
  int source_index = -1;  // index into Σ or Γ; -1 for order pairs
  /// The body is Instantiation::body(*this): atoms [body_begin, body_end)
  /// of the instantiation's body arena.
  uint32_t body_begin = 0;
  uint32_t body_end = 0;
  GroundHead head_kind = GroundHead::kAtom;
  OrderAtom head;
  /// Guard selector (guarded grounding only): the CNF clause is emitted as
  /// (¬guard ∨ clause) and holds only while the guard is assumed true.
  /// One guard is shared by all rules of a (CFD, LHS-pattern-version); a
  /// version whose guard has been retired stays in `constraints` but is
  /// permanently deactivated in the formula. kVarUndef = unguarded.
  sat::Var guard = sat::kVarUndef;
  /// Canonical emission rank within its family. For family (2) this packs
  /// (constraint index, projection-pair generation); TrueDer sorts by it so
  /// incremental appends and full rebuilds mine identical rule orders.
  uint64_t seq = 0;

  bool has_body() const { return body_end != body_begin; }
  std::string ToString(const Instantiation& inst, const Schema& schema) const;
};

/// Grounding options.
struct InstantiationOptions {
  /// How to ground a rule whose head demands that a *null* be more
  /// current than a value (e.g. prec(status) -> job onto a tuple with a
  /// missing job). Nulls rank lowest (§II-A), so under the strict reading
  /// the head is unsatisfiable and the rule becomes (body -> false). The
  /// default is the operational reading of the paper's value-level
  /// encoding: nulls carry no value-level content and the ground rule is
  /// vacuous — required for the framework's user tuples t_o, which are
  /// null outside the answered attributes (§III Remark (1)).
  bool strict_null_order = false;
  /// Guard every grounded CFD rule body with a per-(CFD, LHS-pattern)
  /// selector variable (see GroundConstraint::guard). With guards on, the
  /// one non-append-only delta — a new value in an applicable CFD's LHS
  /// attribute — no longer forces a rebuild: ExtendWith retires the old
  /// guard and appends re-grounded guarded rules. Callers must then pass
  /// guard_assumptions() to every solve/deduction over the encoding. The
  /// ResolutionSession runs guarded; one-shot paths stay unguarded and
  /// keep needs_rebuild semantics. Must match across Build/ExtendWith.
  bool guard_cfds = false;
};

/// \brief What an ExtendWith call changed — consumed by the encoding pass
/// (ExtendSolver, ExtendCnf) to add exactly the matching clauses.
struct InstantiationDelta {
  /// True when the delta cannot be grounded append-only (a new domain
  /// value landed in the LHS attribute of an already-grounded CFD, which
  /// would strengthen existing rule bodies) — unguarded grounding only;
  /// with InstantiationOptions::guard_cfds that case is expressed by
  /// `retired_guards` instead and this is always false. When set, nothing
  /// was mutated; the caller must rebuild from scratch.
  bool needs_rebuild = false;
  /// Constraints [first_new_constraint, constraints.size()) are new.
  int first_new_constraint = 0;
  /// Per-attribute domain sizes before the extension (new values have
  /// indices past these).
  std::vector<int> old_domain_sizes;
  /// Guards of CFD versions invalidated by this delta (their LHS domain
  /// grew). The encoding pass asserts each one off with a permanent unit;
  /// the re-grounded replacement rules are among the new constraints.
  std::vector<sat::Var> retired_guards;
};

/// \brief Ω(Se): the var map plus the materialized constraint families.
struct Instantiation {
  VarMap varmap;
  std::vector<GroundConstraint> constraints;

  /// The body atoms of `gc`, one of `constraints`.
  std::span<const OrderAtom> body(const GroundConstraint& gc) const {
    return std::span<const OrderAtom>(body_atoms_.data() + gc.body_begin,
                                      body_atoms_.data() + gc.body_end);
  }

  /// Grounds `se`. Fails with InvalidArgument when the schema has no
  /// attribute se.rules->max_attr() (RuleSet::Make has checked every
  /// other bound) and, with ResourceExhausted, on domains whose order
  /// variables exceed the solver's range (VarMap::BuildFrom); an
  /// unsatisfiable Se still grounds fine and is detected later by IsValid.
  static Result<Instantiation> Build(const Specification& se,
                                     const InstantiationOptions& options = {});

  /// In-place Build: grounds `se` into `*out`, recycling the projection
  /// tables, value-index slots and vectors `*out` has already grown
  /// (SessionScratch's cross-entity Instantiation arena). Observably
  /// identical to assigning a fresh Build. On error `*out` is left in an
  /// unspecified (but destructible/reusable) state.
  static Status BuildInto(const Specification& se, Instantiation* out,
                          const InstantiationOptions& options = {});

  /// Active CFD guard literals (guarded grounding only; empty otherwise).
  /// Every solve or unit-propagation pass over the guarded CNF must
  /// assume these true — a retired guard is instead asserted off inside
  /// the formula by the encoding pass (ExtendSolver, ExtendCnf).
  const std::vector<sat::Lit>& guard_assumptions() const {
    return active_guards_;
  }

  /// Incrementally grounds Se ⊕ Ot. `extended_se` must be
  /// Extend(previous, delta) for the specification this instantiation was
  /// built from (or last extended to); only `delta`'s tuples and orders
  /// are grounded; `extended_se` must share the built specification's
  /// rule set. Appends domain values / variables / constraints; never
  /// reorders or mutates existing ones. When the returned delta has
  /// needs_rebuild set, this instantiation is unchanged and the caller
  /// must Build(extended_se) instead.
  Result<InstantiationDelta> ExtendWith(
      const Specification& extended_se, const PartialTemporalOrder& delta,
      const InstantiationOptions& options = {});

 private:
  // The deduplicated projections of the grounded tuples onto one attribute
  // set (RuleSet::table_attrs), shared by every Σ constraint mentioning
  // exactly that set and retained so ExtendWith can ground only
  // projections contributed by new tuples. A projection is a row of value
  // codes, one per attribute of the set: the value's VarMap::ValueIndex,
  // or -1 for null. Codes are exact — VarMap dedups values by ==, so equal
  // codes mean equal values. Projection ids follow tuple-insertion order.
  struct ProjTable {
    size_t width = 0;        // attributes in the set
    std::vector<int> rows;   // `width` codes per projection, flat
    std::vector<int> slots;  // open-addressing row hash: projection id, -1
    int size() const { return static_cast<int>(rows.size() / width); }
    const int* row(int p) const { return rows.data() + p * width; }
    // Keeps the row last appended to `rows` as a new projection if no
    // earlier row equals it, and drops it otherwise.
    void KeepLastIfNew();
  };

  // Adds the projections of `n_new` tuples, given by their code rows
  // (`n_attrs` codes each, flat), to every table.
  void AddProjections(const RuleSet& rules, const int* codes, int n_new,
                      int n_attrs);
  // Marks the Σ constants equal to domain values [first, end) of `attr`
  // as resolved to those values' codes.
  void ResolveSigmaConstants(const RuleSet& rules, int attr, int first);
  // Grounds ϕ = sigma[ci] on every projection pair of its table with
  // max(p, q) >= old_np, appending in canonical `seq` order.
  void GroundSigma(const RuleSet& rules, int ci, int old_np,
                   const InstantiationOptions& options);
  void GroundSigmaPair(const CurrencyConstraint& phi,
                       const RuleSet::SigmaPlan& plan, int ci, int p, int q,
                       const InstantiationOptions& options);
  // Appends the family-(1a) unit for tuple t_less preceding tuple t_more
  // in attribute `a`, unless it is vacuous or already emitted.
  void GroundOrderUnit(int a, int t_less, int t_more);
  void GroundCfd(int gi, const RuleSet& rules, int first_b);
  // The value a projection code stands for: domain(attr)[code], or null
  // for -1.
  const Value& CodeValue(int attr, int code) const;

  std::vector<OrderAtom> body_atoms_;    // every constraint's body
  std::vector<ProjTable> proj_tables_;   // per RuleSet table
  std::shared_ptr<const RuleSet> rules_;  // the grounded rules
  std::vector<int> sigma_codes_;         // per Σ constant: code or kNoCode
  std::vector<int> const_codes_;         // GroundSigma's resolved constants
  std::vector<int> side1_, side2_;       // GroundSigma's join scratch
  // Family (1a) dedup: bit v is set once the unit on order variable v is
  // emitted. Emptied at BuildInto and grown as units come, so it costs
  // this entity's variables, not the largest entity's.
  std::vector<uint64_t> unit_seen_;
  std::vector<bool> cfd_applicable_;        // per gamma index
  std::vector<bool> cfd_lhs_attr_;  // attr is LHS of an applicable CFD
  // Body range of each applicable CFD's current guard version.
  std::vector<std::pair<uint32_t, uint32_t>> cfd_body_;
  int num_tuples_ = 0;              // tuples grounded so far
  bool guarded_ = false;            // InstantiationOptions::guard_cfds
  std::vector<sat::Var> cfd_guard_;  // current guard per gamma index
  std::vector<sat::Lit> active_guards_;  // live guard literals, stable order
};

}  // namespace ccr

#endif  // CCR_ENCODE_INSTANTIATION_H_

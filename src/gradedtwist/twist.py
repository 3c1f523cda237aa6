"""Twisting systems and twisted structures.

A twisting system on a graded algebra A is a family of isomorphisms
tau_d(g): A_g -> A_g indexed by two degrees, subject to the twisting
condition

    m_{g1,g2} (id (x) tau_{d g1}(g2)) (tau_d(g1) (x) id)
        = tau_d(g1 g2) m_{g1,g2} (id (x) tau_{g1}(g2))

for all d, g1, g2. Its right side is tau_d(g1 g2) m^tau_{g1,g2}: tau is
multiplicative from A^tau to A, the identity a phi family satisfies from
any algebra B (Zhang, Proc. LMS 72, 1996). Every system reads tau_d(g)
from one table; its kind decides only how that table is filled and which
criterion verifies it:

- explicit: the stored matrices, checked as tau multiplicative from
  A^tau to A by graded's shared loop. Over the integers only a finite
  d-window can be stored, so such checks are flagged "window-verified".
- cocycle: alpha(d, g) * id for nonzero scalars alpha, built once when
  the system is, and checked as an explicit table (the condition then
  amounts to the 2-cocycle identity that `check_cocycle` tests).
- automorphism: sigma_g^d for a graded algebra automorphism sigma,
  computed the first time it is read; only meaningful when degrees
  exponentiate, i.e. over the integers or a cyclic group (with
  sigma^n = id). This kind is exactly verifiable even over the
  integers: sigma being a graded algebra automorphism implies the
  twisting condition for every d.

Verification posture: non-invertible entries and failed conditions are
report failures (users probe candidates); wrong shapes, missing stored
entries and degree keys outside a finite grading group are input errors
and raise. `check_twist_condition` and `check_phi_family` keep a passing
report on the system or family they judged (`report.kept`), whose
tables are read-only views and whose attributes cannot be rebound, so a
second check of it is a lookup and a kept pass cannot go stale.

The twisted structures are plain constructions. `twist_algebra` builds
A^tau once per system and keeps it there; `twist_module` puts M^tau
over that kept algebra. Neither checks what it builds: verification
lives in `check_twist_condition`, `check_algebra` and `check_module`.
"""

from __future__ import annotations

from types import MappingProxyType

from .exactmath import Matrix, inverse, mul_kron, try_inverse
from .graded import (
    GradedAlgebra,
    GradedModule,
    GradedMorphism,
    _multiplicativity_failure,
    check_algebra,
    check_algebra_morphism,
)
from .groups import IntegerWindow, is_cyclic_table
from .report import BoundOnce, Report, kept

EXPLICIT = "explicit"
COCYCLE = "cocycle"
AUTOMORPHISM = "automorphism"


def _refuse_keys_outside(group, keys, name):
    """Raise on a (d, g) key with a degree outside a finite grading group.

    Over the integers any degree can be stored, so only finite groups
    are checked.
    """
    if isinstance(group, IntegerWindow):
        return
    for d, g in keys:
        if not (group.contains(d) and group.contains(g)):
            raise ValueError(f"{name} key ({d!r},{g!r}) is not a pair of elements of the grading group")


def _table_window(group, maps, shape, needed, name):
    """The rule for a (d, g) table of tau or phi maps; returns its d-window.

    In order: keys outside a finite grading group are refused, every
    entry must be a Matrix of shape(g), and over a finite group every
    (d, g) with g in `needed` must be stored. Over the integers only a
    finite window can be stored, and the sorted stored d's are returned;
    over a finite group the table covers every d and None is returned.
    """
    _refuse_keys_outside(group, maps, name)
    for (d, g), m in maps.items():
        if not isinstance(m, Matrix):
            raise TypeError(f"{name}[{(d, g)}] is not a Matrix")
        want = shape(g)
        if (m.rows, m.cols) != want:
            raise ValueError(f"{name}[{(d, g)}] must be {want[0]}x{want[1]}, got {m.rows}x{m.cols}")
    if isinstance(group, IntegerWindow):
        return sorted({d for (d, _g) in maps})
    for d in group.elements():
        for g in needed:
            if (d, g) not in maps:
                raise ValueError(f"missing {name} for ({d!r},{g!r})")
    return None


class TwistingSystem(BoundOnce):
    """A twisting system on `algebra`, read through one table of tau_d(g).

    `maps` is a read-only view of tau_d(g) at key (d, g). An explicit
    system's table is the given maps, a cocycle's is alpha(d, g) * id
    built here, and an automorphism's is sigma_g^d, filled in behind the
    view the first time it is read. A cocycle's `alpha` is read-only too.
    `kind` decides only how the table is filled and which criterion
    check_twist_condition runs. An attribute cannot be rebound once set,
    so a pass that check_twist_condition keeps cannot go stale.
    """

    _twisted = None  # A^tau, kept by the first twist_algebra(algebra, self)

    def __init__(self, algebra: GradedAlgebra, kind: str, *, maps=None, alpha=None, sigma=None, order=None):
        self.algebra = algebra
        self.kind = kind
        group = algebra.group
        field = algebra.field
        if kind == EXPLICIT:
            if maps is None:
                raise ValueError("explicit twisting systems need a maps dict")
            table = dict(maps)
            needed = algebra.support()
        elif kind == COCYCLE:
            if alpha is None:
                raise ValueError("cocycle twisting systems need an alpha dict")
            # a bad key is named as an alpha key before its scalar is read
            _refuse_keys_outside(group, alpha, "alpha")
            self.alpha = MappingProxyType({k: field.coerce(v) if isinstance(v, int) else v
                                           for k, v in alpha.items()})
            table = {
                (d, g): Matrix.identity(algebra.dim(g), field).scale(v) for (d, g), v in self.alpha.items()
            }
            needed = group.elements()
        elif kind == AUTOMORPHISM:
            if sigma is None:
                raise ValueError("automorphism twisting systems need sigma")
            if order is not None and (type(order) is not int or order < 1):
                raise ValueError(f"order must be a positive integer or null, got {order!r}")
            if not isinstance(group, IntegerWindow):
                if not is_cyclic_table(group):
                    raise ValueError("automorphism twists need integer or cyclic-table degrees")
                if order is None:
                    order = group.order
                elif order != group.order:
                    raise ValueError("order must match the cyclic group order")
            if sigma.source.dims != algebra.space.dims or sigma.target.dims != algebra.space.dims:
                raise ValueError("sigma must be an endomorphism of the algebra's space")
            self.sigma = sigma
            self.order = order
            self._powers = {}
            self.maps = MappingProxyType(self._powers)
            self._d_window = None
            return
        else:
            raise ValueError(f"unknown twisting system kind {kind!r}")
        self.sigma = None
        self.maps = MappingProxyType(table)
        self._d_window = _table_window(
            group, self.maps, lambda g: (algebra.dim(g), algebra.dim(g)), needed, "tau"
        )
        if self._d_window is not None:
            self._require_twisted_algebra_entries()

    def _require_twisted_algebra_entries(self):
        """A stored window must hold every tau_g(h) that A^tau reads."""
        e = self.group.identity
        for d, g in [*self.algebra.mult, (e, e)]:
            if not self.has_tau(d, g):
                raise ValueError(f"tau not stored for ({d!r},{g!r}), which the twisted algebra needs")

    @property
    def group(self):
        return self.algebra.group

    def d_degrees(self) -> list:
        """Degrees d over which the condition is quantified."""
        if self._d_window is not None:
            return list(self._d_window)
        return support_closure(self.algebra)

    def window_limited(self) -> bool:
        """True when only a stored d-window is verifiable (integer degrees, non-automorphism)."""
        return self._d_window is not None

    def has_tau(self, d, g) -> bool:
        return self.sigma is not None or g not in self.algebra.space.dims or (d, g) in self.maps

    def tau(self, d, g) -> Matrix:
        if g not in self.algebra.space.dims:
            return Matrix.zeros(0, 0, self.algebra.field)
        got = self.maps.get((d, g))
        if got is None:
            if self.sigma is None:
                raise ValueError(f"tau not stored for ({d!r},{g!r})")
            # exponent is the integer d (or the index in Z/n)
            got = self._powers[(d, g)] = self.sigma.component(g).power(d)
        return got

    def __repr__(self):
        return f"TwistingSystem(kind={self.kind})"


def identity_twist(algebra: GradedAlgebra) -> TwistingSystem:
    """tau_d(g) = id for all d, g (stored as the constant cocycle 1)."""
    dees = support_closure(algebra)
    # a finite cocycle table holds every (d, g), an integer one the support's g
    gees = algebra.support() if isinstance(algebra.group, IntegerWindow) else dees
    alpha = {(d, g): algebra.field.one for d in dees for g in gees}
    return TwistingSystem(algebra, COCYCLE, alpha=alpha)


def support_closure(algebra: GradedAlgebra) -> list:
    """The default d-quantification set of a twist on `algebra`.

    Over a finite group it is every element. Over ℤ it is the degrees
    reachable by at most two products from the support: twisted algebras
    index tau by support degrees, twisted (shifted) modules by sums of
    two of them.
    """
    if not isinstance(algebra.group, IntegerWindow):
        return list(algebra.group.elements())
    supp = algebra.support()
    if not supp:
        return [0]
    degrees = {0}
    degrees.update(supp)
    degrees.update(a + b for a in supp for b in supp)
    return sorted(degrees)


def check_cocycle(alpha: dict, group, field) -> Report:
    """The 2-cocycle identity alpha(gh,l) alpha(g,h) = alpha(g,hl) alpha(h,l).

    Quantified over all triples whose four lookups are stored; over the
    integers that is a window and the report says so.
    """
    for key, value in alpha.items():
        if value == field.zero:
            raise ValueError(f"cocycle value at {key} is zero")
    if isinstance(group, IntegerWindow):
        firsts = sorted({k[0] for k in alpha} | {k[1] for k in alpha})
        notes = ("window-verified",)
    else:
        firsts = list(group.elements())
        notes = ()
    mul = group.mul_unchecked  # a sum over the integers, elements otherwise
    for g in firsts:
        for h in firsts:
            for l in firsts:
                keys = [(mul(g, h), l), (g, h), (g, mul(h, l)), (h, l)]
                if any(k not in alpha for k in keys):
                    continue
                lhs = field.mul(alpha[keys[0]], alpha[keys[1]])
                rhs = field.mul(alpha[keys[2]], alpha[keys[3]])
                if lhs != rhs:
                    return Report("check_cocycle", False, witness=(g, h, l), notes=notes)
    return Report("check_cocycle", True, notes=notes)


@kept
def check_twist_condition(t: TwistingSystem) -> Report:
    """Verify that t is a twisting system on its algebra.

    Checks, in order: the algebra's own axioms, invertibility of every
    quantified tau_d(g), then the twisting condition, as tau
    multiplicative from A^tau to A (twist_algebra's, kept on t: tau_e(e)
    has just been shown invertible). The automorphism kind uses the
    reduced criterion (sigma is a graded algebra automorphism, plus
    sigma^n = id over Z/n), which implies the condition for every
    integer d at once.
    """
    a = t.algebra
    alg_report = check_algebra(a)
    if not alg_report.passed:
        return Report("check_twist_condition", False, witness={"algebra": alg_report.witness},
                      notes=("underlying algebra fails its axioms",))
    notes = ("window-verified",) if t.window_limited() else ()

    if t.kind == AUTOMORPHISM:
        return _check_automorphism_kind(t)

    bad = _singular_entry(t.d_degrees(), a.support(), t.has_tau, t.tau)
    if bad is not None:
        return Report("check_twist_condition", False, witness=("non-invertible", bad), notes=notes)
    bad = _multiplicativity_failure(a, twist_algebra(a, t), t.d_degrees(), t.tau, t.has_tau)
    if bad is not None:
        return Report("check_twist_condition", False, witness=("twist-condition", bad), notes=notes)
    return Report("check_twist_condition", True, notes=notes)


def _singular_entry(dees, support, has, get):
    """The first stored (d, g), d over `dees` and g over `support`, whose
    map get(d, g) is singular; None if there is none."""
    for d in dees:
        for g in support:
            if has(d, g) and try_inverse(get(d, g)) is None:
                return (d, g)
    return None


def _check_automorphism_kind(t: TwistingSystem) -> Report:
    a = t.algebra
    notes = ("automorphism criterion: graded automorphism implies the condition for all d",)
    for g in a.support():
        if try_inverse(t.sigma.component(g)) is None:
            return Report("check_twist_condition", False, witness=("non-invertible", ("sigma", g)), notes=notes)
    morphism_report = check_algebra_morphism(t.sigma, a, a)
    if not morphism_report.passed:
        return Report(
            "check_twist_condition",
            False,
            witness={"sigma-not-an-algebra-morphism": morphism_report.witness},
            notes=notes,
        )
    if t.order is not None:
        for g in a.support():
            p = t.sigma.component(g).power(t.order)
            if not p.is_identity():
                return Report(
                    "check_twist_condition", False, witness=("sigma-order", (t.order, g)), notes=notes
                )
    return Report("check_twist_condition", True, notes=notes)


def twist_algebra(a: GradedAlgebra, t: TwistingSystem) -> GradedAlgebra:
    """A^tau: m^tau_{g,h} = m_{g,h} (id (x) tau_g(h)), unit tau_e(e)^-1 u,
    built unchecked on the first call and kept on t for every later one."""
    if t.algebra is not a and t.algebra != a:
        raise ValueError("twisting system belongs to a different algebra")
    if t._twisted is not None:
        return t._twisted
    field = a.field
    ident = {g: Matrix.identity(d, field) for g, d in a.space.dims.items()}
    mult = {}
    for (g, h), m in a.mult.items():
        mult[(g, h)] = mul_kron(m, ident[g], t.tau(g, h))
    tau_ee = t.tau(a.group.identity, a.group.identity)
    # a normalized system (tau_e = id, as every recovered one) needs no elimination
    tau_ee_inv = tau_ee if tau_ee.is_identity() else try_inverse(tau_ee)
    if tau_ee_inv is None:
        raise ValueError("tau_e(e) is singular; not a twisting system")
    t._twisted = GradedAlgebra(a.space, mult, tau_ee_inv @ a.unit, field)
    return t._twisted


def twist_module(m: GradedModule, t: TwistingSystem) -> GradedModule:
    """M^tau over A^tau = twist_algebra(A, t): rho^tau_{g,h} = rho_{g,h} (id (x) tau_g(h)).

    This is the twist equivalence applied to one module; check_module
    verifies the result.
    """
    if m.algebra is not t.algebra and m.algebra != t.algebra:
        raise ValueError("module is not over the twisting system's algebra")
    twisted = twist_algebra(m.algebra, t)
    ident = {g: Matrix.identity(d, m.field) for g, d in m.space.dims.items()}
    action = {}
    for (g, h), rho in m.action.items():
        action[(g, h)] = mul_kron(rho, ident[g], t.tau(g, h))
    return GradedModule(m.space, twisted, action)


def inverse_twist(t: TwistingSystem) -> TwistingSystem:
    """tau^-1, a twisting system on A^tau."""
    twisted = twist_algebra(t.algebra, t)
    if t.kind == EXPLICIT:
        maps = {}
        for key, m in t.maps.items():
            mi = try_inverse(m)
            if mi is None:
                raise ValueError(f"tau at {key} is singular; cannot invert the system")
            maps[key] = mi
        return TwistingSystem(twisted, EXPLICIT, maps=maps)
    if t.kind == COCYCLE:
        field = t.algebra.field
        alpha = {k: field.inv(v) for k, v in t.alpha.items()}
        return TwistingSystem(twisted, COCYCLE, alpha=alpha)
    comps = {}
    for g in t.algebra.support():
        mi = try_inverse(t.sigma.component(g))
        if mi is None:
            raise ValueError(f"sigma at degree {g!r} is singular")
        comps[g] = mi
    sigma_inv = GradedMorphism(t.sigma.source, t.sigma.target, comps, t.algebra.field)
    return TwistingSystem(twisted, AUTOMORPHISM, sigma=sigma_inv, order=t.order)


def compose_twists(t: TwistingSystem, s: TwistingSystem) -> TwistingSystem:
    """Entrywise product tau_d(g) sigma_d(g): a twisting system on A.

    t lives on A, s on A^tau. Cocycle pairs stay cocycles; automorphism
    pairs with commuting components stay automorphisms; anything else is
    materialized explicitly over the shared d-range.
    """
    a = t.algebra
    if t.kind == COCYCLE and s.kind == COCYCLE:
        field = a.field
        shared = set(t.alpha) & set(s.alpha)
        alpha = {k: field.mul(t.alpha[k], s.alpha[k]) for k in shared}
        return TwistingSystem(a, COCYCLE, alpha=alpha)
    if t.kind == AUTOMORPHISM and s.kind == AUTOMORPHISM:
        commuting = all(
            t.sigma.component(g) @ s.sigma.component(g) == s.sigma.component(g) @ t.sigma.component(g)
            for g in a.support()
        )
        if commuting:
            comps = {
                g: t.sigma.component(g) @ s.sigma.component(g)
                for g in a.support()
                if a.dim(g)
            }
            sigma = GradedMorphism(a.space, a.space, comps, a.field)
            return TwistingSystem(a, AUTOMORPHISM, sigma=sigma, order=t.order)
    dees = set(support_closure(a))
    for system in (t, s):
        if system._d_window is not None:
            dees &= set(system._d_window)
    maps = {}
    for d in sorted(dees):
        for g in a.support():
            if t.has_tau(d, g) and s.has_tau(d, g):
                maps[(d, g)] = t.tau(d, g) @ s.tau(d, g)
    return TwistingSystem(a, EXPLICIT, maps=maps)


def check_unit_lemma(t: TwistingSystem) -> Report:
    """tau_g(e)^-1 u = tau_e(e)^-1 u for every g: a theorem for any
    twisting system, so a failure here means the system (or this
    implementation) is broken."""
    a = t.algebra
    e = a.group.identity
    notes = ("window-verified",) if t.window_limited() else ()
    tau_ee_inv = try_inverse(t.tau(e, e)) if t.has_tau(e, e) else None
    if tau_ee_inv is None:
        return Report("check_unit_lemma", False, witness=("non-invertible", (e, e)), notes=notes)
    baseline = tau_ee_inv @ a.unit
    for g in t.d_degrees():
        if not t.has_tau(g, e):
            continue
        inv_g = try_inverse(t.tau(g, e))
        if inv_g is None:
            return Report("check_unit_lemma", False, witness=("non-invertible", (g, e)), notes=notes)
        if inv_g @ a.unit != baseline:
            return Report("check_unit_lemma", False, witness=("unit-mismatch", g), notes=notes)
    return Report("check_unit_lemma", True, notes=notes)


# ---------------------------------------------------------------------------
# phi families (the isomorphism-level characterization of twists)


class PhiFamily(BoundOnce):
    """Invertible maps phi_d(g): B_g -> A_g, doubly indexed by degree (`maps`, read-only).

    An attribute cannot be rebound once set, so a pass that
    check_phi_family keeps cannot go stale.
    """

    def __init__(self, source: GradedAlgebra, target: GradedAlgebra, maps: dict):
        if source.field != target.field:
            raise ValueError("phi family endpoints have different fields")
        self.source = source
        self.target = target
        self.maps = MappingProxyType(dict(maps))
        self._d_window = _table_window(
            source.group, self.maps, lambda g: (target.dim(g), source.dim(g)), source.support(), "phi"
        )

    def d_degrees(self):
        if self._d_window is not None:
            return list(self._d_window)
        return support_closure(self.source)

    def has(self, d, g):
        return self.source.dim(g) == 0 or (d, g) in self.maps

    def map(self, d, g) -> Matrix:
        if self.source.dim(g) == 0 and (d, g) not in self.maps:
            return Matrix.zeros(self.target.dim(g), 0, self.source.field)
        try:
            return self.maps[(d, g)]
        except KeyError:
            raise ValueError(f"phi not stored for ({d!r},{g!r})") from None

    def window_limited(self):
        return self._d_window is not None


@kept
def check_phi_family(p: PhiFamily) -> Report:
    """Conditions for a phi family to present a twist equivalence:

    m^A_{g1,g2} (phi_d(g1) (x) phi_{d g1}(g2)) = phi_d(g1 g2) m^B_{g1,g2}
    and the unit triangle phi_e(e) u^B = u^A.
    """
    a, b = p.target, p.source
    if a.space.dims != b.space.dims:
        return Report("check_phi_family", False, witness=("dims-mismatch",))
    notes = ("window-verified",) if p.window_limited() else ()
    bad = _singular_entry(p.d_degrees(), b.support(), p.has, p.map)
    if bad is not None:
        return Report("check_phi_family", False, witness=("non-invertible", bad), notes=notes)
    bad = _multiplicativity_failure(a, b, p.d_degrees(), p.map, p.has)
    if bad is not None:
        return Report("check_phi_family", False, witness=("multiplicativity", bad), notes=notes)
    e = a.group.identity
    if p.has(e, e) and p.map(e, e) @ b.unit != a.unit:
        return Report("check_phi_family", False, witness=("unit", e), notes=notes)
    return Report("check_phi_family", True, notes=notes)


def phi_from_twist(t: TwistingSystem, iso: GradedMorphism | None = None,
                   source_algebra: GradedAlgebra | None = None) -> PhiFamily:
    """phi_d(g) = tau_d(g) iso_g for an algebra iso iso: B -> A^tau.

    With no iso given, B is taken to be A^tau itself and iso = id.
    """
    a = t.algebra
    twisted = twist_algebra(a, t)
    if iso is None:
        source_algebra = twisted
        iso = GradedMorphism.identity(twisted.space, a.field)
    else:
        if source_algebra is None:
            raise ValueError("an explicit iso needs its source algebra")
        r = check_algebra_morphism(iso, source_algebra, twisted)
        if not r.passed:
            raise ValueError(f"iso is not an algebra morphism into the twisted algebra: {r.witness}")
        for g in source_algebra.support():
            if try_inverse(iso.component(g)) is None:
                raise ValueError(f"iso component at {g!r} is singular")
    maps = {}
    for d in t.d_degrees():
        for g in a.support():
            if t.has_tau(d, g):
                maps[(d, g)] = t.tau(d, g) @ iso.component(g)
    return PhiFamily(source_algebra, a, maps)


def twist_from_phi(p: PhiFamily):
    """Recover (twisting system on A, A^tau, algebra iso B -> A^tau) from a family.

    tau_d(g) = phi_d(g) phi_e(g)^-1 and the iso has components phi_e(g).
    A family that fails check_phi_family is rejected up front (a lookup
    when the check has passed on p before). Then A^tau is built once,
    and A's axioms, the twisting condition and the iso against A^tau are
    re-verified. Invertibility is not: each tau_d(g) is a product of maps
    the family check has shown invertible.
    """
    report = check_phi_family(p)
    if not report.passed:
        raise ValueError(f"phi family fails its conditions at {report.witness}")
    a, b = p.target, p.source
    e = a.group.identity
    bases = {g: inverse(p.map(e, g)) for g in a.support() if p.has(e, g)}
    maps = {(d, g): p.map(d, g) @ base for d in p.d_degrees() for g, base in bases.items() if p.has(d, g)}
    t = TwistingSystem(a, EXPLICIT, maps=maps)
    twisted = twist_algebra(a, t)
    alg_report = check_algebra(a)
    if not alg_report.passed:
        raise ValueError(f"recovered system fails the twisting condition at {dict(algebra=alg_report.witness)}")
    bad = _multiplicativity_failure(a, twisted, t.d_degrees(), t.tau, t.has_tau)
    if bad is not None:
        raise ValueError(f"recovered system fails the twisting condition at {('twist-condition', bad)}")
    comps = {g: p.map(e, g) for g in b.support() if b.dim(g)}
    morphism = GradedMorphism(b.space, twisted.space, comps, a.field)
    morphism_report = check_algebra_morphism(morphism, b, twisted)
    if not morphism_report.passed:
        raise ValueError(f"recovered morphism fails at {morphism_report.witness}")
    return t, twisted, morphism


__all__ = [
    "EXPLICIT",
    "COCYCLE",
    "AUTOMORPHISM",
    "TwistingSystem",
    "PhiFamily",
    "identity_twist",
    "support_closure",
    "check_cocycle",
    "check_twist_condition",
    "twist_algebra",
    "twist_module",
    "inverse_twist",
    "compose_twists",
    "check_unit_lemma",
    "check_phi_family",
    "phi_from_twist",
    "twist_from_phi",
]

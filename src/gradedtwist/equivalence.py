"""The module-category equivalence attached to a twisting system.

Twisting by tau is a functor M |-> M^tau from modules over A to modules
over B = A^tau that leaves underlying spaces alone. It does not commute
with degree shifts on the nose; the discrepancy is measured by the
witness morphisms

    t_g : (S_g A)^tau -> S_g (A^tau),    (t_g)_d = tau_g(g^-1 d)^-1,

each an isomorphism of B-modules (a consequence of the twisting
condition, and verified here rather than assumed).

Only `check_equivalence` reads the witnesses. The backward direction
reads tau itself from the data: it transports the endomorphism algebra
Gamma(B) onto Gamma(A) degree by degree, producing a family of
isomorphisms

    phi_d(g) : Gamma(B)_g -> Gamma(A)_g

built as the composite: shift by d, pull back along t_{dg}, push
forward along t_d^-1, exchange the base ring, and shift back by d^-1,
with the blocks of t taken from tau. The shifts by d and d^-1 only
relabel blocks and cancel, so the composite is block-diagonal on the
layout Gamma(B)_g already has: block p is the pull-back
[tau_{dg}(q)^-1, 1] (q = g^-1 p) followed by the push-forward
[1, tau_d(p)], which send a block X to tau_d(p) X tau_{dg}(q)^-1.
The base-ring exchange is a comparison of the two layouts plus a
membership check in Gamma(A)_g.

Conjugating the family through the left-multiplication isomorphisms
B = Gamma(B) and Gamma(A) = A gives a family B_g -> A_g, and the
phi-family criterion (`twist_from_phi`) recovers from it, once, a
twisting system on A together with an algebra isomorphism from B to A
twisted by it. Nothing needs checking on Gamma(A) as well: the family's
conditions, the twisting condition and the isomorphism on Gamma(A) are
conjugates of the ones `twist_from_phi` verifies on A, through maps
that `endo_iso` has verified to be mutually inverse graded algebra
isomorphisms. For a system normalized by tau_e = id the recovery is
bit-exact.
"""

from __future__ import annotations

from .exactmath import Matrix, inverse, mul_kron, try_inverse
from .enriched import endo_iso, gamma_algebra
from .graded import (
    GradedMorphism,
    check_algebra,
    check_algebra_morphism,
    check_module_morphism,
    regular_module,
    shift_module,
)
from .groups import IntegerWindow
from .report import Report, merge
from .twist import (
    PhiFamily,
    TwistingSystem,
    check_twist_condition,
    support_closure,
    twist_algebra,
    twist_from_phi,
    twist_module,
)


class EquivalenceData:
    """A twist together with its twisted algebra and shift witnesses.

    witnesses[g] is the morphism t_g above; over the integers only the
    degrees whose tau entries are stored get a witness, and `skipped`
    records the rest. Only `check_equivalence` reads the witnesses;
    `gamma_twist_phi` and `backward` read tau from `twist`.
    """

    def __init__(self, algebra, twist, twisted, witnesses, skipped=()):
        self.algebra = algebra
        self.twist = twist
        self.twisted = twisted
        self.witnesses = dict(witnesses)
        self.skipped = tuple(skipped)

    def witness(self, g) -> GradedMorphism:
        try:
            return self.witnesses[g]
        except KeyError:
            raise ValueError(f"no shift witness stored for degree {g!r}") from None

    def __repr__(self):
        return f"EquivalenceData(degrees={sorted(self.witnesses)})"


def equivalence_from_twist(t: TwistingSystem) -> EquivalenceData:
    a = t.algebra
    group = a.group
    mul = group.mul_unchecked  # on the support closure and the shifted supports
    b = twist_algebra(a, t)
    reg_a = regular_module(a)
    witnesses = {}
    skipped = []
    for g in support_closure(a):
        shifted = shift_module(reg_a, g)
        ginv = group.inv(g)
        needed = list(shifted.action) + [(g, mul(ginv, d)) for d in shifted.space.dims]
        if not all(t.has_tau(*key) for key in needed):
            skipped.append(g)
            continue
        comps = {}
        for d in shifted.space.dims:
            tau = t.tau(g, mul(ginv, d))
            inv_tau = try_inverse(tau)
            if inv_tau is None:
                raise ValueError(f"tau_{g!r}({mul(ginv, d)!r}) is singular; not a twisting system")
            comps[d] = inv_tau
        witnesses[g] = GradedMorphism(shifted.space, shifted.space, comps, a.field)
    return EquivalenceData(a, t, b, witnesses, skipped)


def check_equivalence(data: EquivalenceData) -> Report:
    """Verify the data wholesale: the twisting condition, the twisted
    algebra's axioms, and every stored witness being an isomorphism of
    modules over the twisted algebra."""
    reports = [check_twist_condition(data.twist), check_algebra(data.twisted)]
    reg_a = regular_module(data.algebra)
    reg_b = regular_module(data.twisted)
    for g in sorted(data.witnesses):
        w = data.witnesses[g]
        phi_sga = twist_module(shift_module(reg_a, g), data.twist)
        sgb = shift_module(reg_b, g)
        bad = None
        for d, comp in w.components.items():
            if try_inverse(comp) is None:
                bad = d
                break
        if bad is not None:
            reports.append(Report("witness", False, witness=("not-invertible", (g, bad))))
            continue
        inner = check_module_morphism(w, phi_sga, sgb)
        if inner.passed:
            reports.append(Report("witness", True))
        else:
            reports.append(Report("witness", False, witness=(g, inner.witness)))
    notes = ("window-verified",) if data.skipped else ()
    return merge("check_equivalence", reports, notes=notes)


def gamma_twist_phi(data: EquivalenceData, gamma_a=None, gamma_b=None):
    """The transported family phi_d(g): Gamma(B)_g -> Gamma(A)_g.

    The shifts by d and d^-1 relabel blocks and cancel, so the map is
    block-diagonal on the layout of Gamma(B)_g: block p is pull-back
    along t_{dg} (precompose with tau_{dg}(q)^-1, q = g^-1 p), then
    push-forward along t_d^-1 (postcompose with tau_d(p)): a block read
    row-major as a dim A_p x dim A_q matrix X goes to
    tau_d(p) X tau_{dg}(q)^-1. The k basis columns' rows of block p,
    read as one dim A_p x (dim A_q k) matrix X_p, go together to
    mul_kron(tau_d(p) @ X_p, tau_{dg}(q)^-1, I_k), in the same row-major
    order, so no Kronecker product or block matrix is formed.

    Returns (family, report). The report records the base-ring exchange:
    Gamma(A)_g must have the block layout of Gamma(B)_g, block p of size
    dim A_p dim A_q (witness ("layout", (d, g)) otherwise), and each
    transported basis vector must land in ker(R - S) computed over A
    (witness ("level-exchange", (d, g)) otherwise), a fact the
    construction predicts and this function verifies. On a failed check
    the family is None.
    """
    a = data.algebra
    b = data.twisted
    t = data.twist
    group = a.group
    mul = group.mul_unchecked  # on Gamma's degrees and the twist's d-degrees
    field = a.field
    if gamma_a is None:
        gamma_a = gamma_algebra(a)
    if gamma_b is None:
        gamma_b = gamma_algebra(b)
    notes = ("window-verified",) if isinstance(group, IntegerWindow) else ()
    maps = {}
    failures = []
    for g in gamma_b.degrees:
        space_b = gamma_b.spaces[g]
        space_a = gamma_a.spaces.get(g)
        if space_a is None or space_b.dim == 0:
            continue
        ginv = group.inv(g)
        layout = [(p, mul(ginv, p), off, size) for p, off, size in space_b.source_layout]
        # block p of both spaces must be Hom(A_q, A_p), q = g^-1 p
        same_layout = [(p, size) for p, _q, _off, size in layout] == [
            (p, size) for p, _off, size in space_a.source_layout
        ] and all(size == a.dim(p) * a.dim(q) for p, q, _off, size in layout)
        k = space_b.dim
        kernel = space_b.kernel.data
        ident = Matrix.identity(k, field)
        # the kernel rows of block p, read as one dim A_p x (dim A_q k) matrix
        blocks = [(p, q, Matrix._trusted(a.dim(p), a.dim(q) * k, field, kernel[off * k:(off + size) * k]))
                  for p, q, off, size in layout] if same_layout else []
        for d in t.d_degrees():
            dg = mul(d, g)
            if not all(t.has_tau(dg, q) and t.has_tau(d, p) for p, q, _off, _size in layout):
                continue
            if not same_layout:
                failures.append(Report("gamma_twist_phi", False, witness=("layout", (d, g))))
                continue
            data = []
            for p, q, x in blocks:
                data += mul_kron(t.tau(d, p) @ x, inverse(t.tau(dg, q)), ident).data
            transported = Matrix._trusted(space_b.total, k, field, data)
            try:
                maps[(d, g)] = space_a.coords(transported)
            except ValueError:
                failures.append(Report("gamma_twist_phi", False, witness=("level-exchange", (d, g))))
    if failures:
        return None, merge("gamma_twist_phi", failures, notes=notes)
    family = PhiFamily(gamma_b.graded, gamma_a.graded, maps)
    return family, Report("gamma_twist_phi", True, notes=notes)


class BackwardResult:
    """Everything the backward pipeline produces, with its receipts."""

    def __init__(self, twist, twisted, iso, forward_iso, family, report):
        self.twist = twist                  # recovered system on A
        self.twisted = twisted              # A twisted by it
        self.iso = iso                      # recovered-twisted algebra -> B
        self.forward_iso = forward_iso      # B -> recovered-twisted algebra
        self.family = family                # the Gamma-level phi family
        self.report = report


def backward(data: EquivalenceData, gamma_a=None, gamma_b=None) -> BackwardResult:
    """Recover a twisting system on A from the equivalence data.

    Pipeline: transport Gamma(B) onto Gamma(A) (gamma_twist_phi), verify
    the left-multiplication isomorphisms phi_B: B -> Gamma(B) and
    psi_A: Gamma(A) -> A (endo_iso), conjugate the family down to
    psi_A(g) phi_d(g) phi_B(g): B_g -> A_g, and recover from it a
    twisting system on A and an isomorphism from B to A twisted by it
    (twist_from_phi, which raises ValueError on a refusal).

    No check is run on Gamma(A) itself, and none is lost: the family's
    conditions, the twisting condition and the isomorphism on Gamma(A)
    are conjugates of the ones twist_from_phi verifies on A, and the
    recovered tau_d(g) is psi_A tau_d(g) psi_A^-1 of the Gamma-level one,
    bit for bit. The report adds that the inverse isomorphism onto B is
    an algebra morphism, and whether the recovered system equals the
    normalization tau_d(g) tau_e(g)^-1 of the original; for a normalized
    input that means exact recovery.
    """
    a = data.algebra
    b = data.twisted
    t = data.twist
    e = a.group.identity
    if gamma_a is None:
        gamma_a = gamma_algebra(a)
    if gamma_b is None:
        gamma_b = gamma_algebra(b)
    family, fam_report = gamma_twist_phi(data, gamma_a, gamma_b)
    if family is None:
        return BackwardResult(None, None, None, None, None, fam_report)
    _, psi_a, endo_a_report = endo_iso(gamma_a)
    phi_b, _, endo_b_report = endo_iso(gamma_b)
    reports = [fam_report, endo_a_report, endo_b_report]
    if not (endo_a_report.passed and endo_b_report.passed):
        return BackwardResult(None, None, None, None, family, merge("backward", reports))
    conjugated = PhiFamily(b, a, {
        (d, g): psi_a.component(g) @ mat @ phi_b.component(g) for (d, g), mat in family.maps.items()
    })
    recovered, twisted_rec, forward = twist_from_phi(conjugated)
    comps = {g: inverse(c) for g, c in forward.components.items()}
    iso = GradedMorphism(twisted_rec.space, b.space, comps, a.field)
    reports.append(check_algebra_morphism(iso, twisted_rec, b))
    mismatch = None
    for (d, g) in sorted(recovered.maps):
        if not (t.has_tau(d, g) and t.has_tau(e, g)):
            continue
        expected = t.tau(d, g) @ inverse(t.tau(e, g))
        if recovered.maps[(d, g)] != expected:
            mismatch = (d, g)
            break
    reports.append(Report("normalized-round-trip", mismatch is None, witness=mismatch))
    return BackwardResult(recovered, twisted_rec, iso, forward, family, merge("backward", reports))


__all__ = [
    "EquivalenceData",
    "equivalence_from_twist",
    "check_equivalence",
    "gamma_twist_phi",
    "BackwardResult",
    "backward",
]

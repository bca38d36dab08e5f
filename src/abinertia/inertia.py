"""Deciding inertiality and splitting an endomorphism along the ring.

An endomorphism phi is inert-preserving ("inertial") when every
subgroup H has finite index in H + phi(H).  On a described group this
is decidable from the normal form alone; is_inertial returns either a
certificate of the structured shape or the list of violated rules,
each naming the family of subgroups that witnesses unbounded growth.

For an inertial phi, decompose() splits it into three canonical
summands: a semi-multiplication carrying the torsion-free scalar, a
uniform part whose action is matched by one componentwise scalar, and
a bridging part supported on the critical primes (where a residue
block of unbounded multiplicity coexists with a nonzero divisible
part of finite rank).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    OMEGA, JElement, Residue, UsageError, crt_lift, frac_residue, is_finite,
    prime_divisors,
)
from .groupkit import HElement, h_descriptor, invariants
from .endokit import (
    Endo, _cyc_crt, _tf_diagonal, add, is_finitary, mini_endo,
    multiplication_endo, semi_multiplication, sub, validate, zero_endo,
)

__all__ = [
    "TF_NOT_SCALAR", "NOT_FTFR_NOT_INTEGER", "PI_HAS_DIVISIBLE",
    "DIV_NOT_SCALAR", "DIV_VS_R_MISMATCH", "TAU_NONZERO",
    "CRT_INCONSISTENT", "OMEGA_DIV_MISMATCH",
    "Violation", "PrimeFacts", "InertialCertificate", "is_inertial",
    "Decomposition", "decompose", "is_uniform", "ui_class_in_H",
    "bounded_split",
]

# violation kinds; each maps to one witness family in the oracle
TF_NOT_SCALAR = "TF_NOT_SCALAR"
NOT_FTFR_NOT_INTEGER = "NOT_FTFR_NOT_INTEGER"
PI_HAS_DIVISIBLE = "PI_HAS_DIVISIBLE"
DIV_NOT_SCALAR = "DIV_NOT_SCALAR"
DIV_VS_R_MISMATCH = "DIV_VS_R_MISMATCH"
TAU_NONZERO = "TAU_NONZERO"
CRT_INCONSISTENT = "CRT_INCONSISTENT"
OMEGA_DIV_MISMATCH = "OMEGA_DIV_MISMATCH"

_HINTS = {
    TF_NOT_SCALAR: "a line moved off itself by the matrix",
    NOT_FTFR_NOT_INTEGER: "free lattices scaled by the deviation",
    PI_HAS_DIVISIBLE: "deep divisible elements paired with an infinite-order element",
    DIV_NOT_SCALAR: "divisible layers against an off-diagonal direction",
    DIV_VS_R_MISMATCH: "deep divisible elements paired with an infinite-order element",
    TAU_NONZERO: "deep fractions of the twisted source line",
    CRT_INCONSISTENT: "graphs between two unbounded residue families",
    OMEGA_DIV_MISMATCH: "graphs between divisible copies and a residue block",
}


@dataclass(frozen=True)
class Violation:
    """One broken rule: what failed, where, and which subgroup family
    certifies unbounded index growth."""

    kind: str
    site: str
    hint: str
    prime: int | None = None


def _viol(kind: str, site: str, prime: int | None = None) -> Violation:
    return Violation(kind, site, _HINTS[kind], prime)


@dataclass(frozen=True)
class PrimeFacts:
    """Per-prime certificate: the joint residue of the unbounded blocks,
    the divisible scalar, and whether the two disagree (a nonzero
    bridging component)."""

    prime: int
    alpha_cyc: Residue | None
    alpha_div: Fraction | None
    bridged: bool


@dataclass(frozen=True)
class InertialCertificate:
    r: Fraction | None               # torsion-free scalar; None when periodic
    pi: frozenset[int]               # denominator support of r
    per_prime: tuple[PrimeFacts, ...]
    exempt: tuple[str, ...]          # finite-multiplicity blocks the rules skip


def is_inertial(phi: Endo) -> tuple[InertialCertificate | None, tuple[Violation, ...]]:
    """Decide inertiality.  Returns (certificate, ()) or (None, violations).

    Raises UsageError when the endomorphism is not semantically valid;
    run endokit.validate first for the defect list.
    """
    bad = validate(phi)
    if bad:
        raise UsageError("not a valid endomorphism: " + "; ".join(bad))
    g = phi.group
    inv = invariants(g)
    violations: list[Violation] = []
    free = g.free_omega_name
    copies = g.tf_copies()
    diag = _tf_diagonal(phi.tf, copies)

    if free is not None:
        # infinite free rank: inertial means integer scalar plus finite image
        m = phi.free_scalar
        r: Fraction | None = Fraction(m)
        pi: frozenset[int] = frozenset()
        if diag == "nonscalar":
            violations.append(_viol(TF_NOT_SCALAR, "tf"))
        elif diag is not None and diag != m:
            violations.append(_viol(NOT_FTFR_NOT_INTEGER, "tf"))
    else:
        if diag == "nonscalar":
            violations.append(_viol(TF_NOT_SCALAR, "tf"))
            r = None
            pi = frozenset()
        else:
            r = diag  # None exactly when the group is periodic
            pi = prime_divisors(r.denominator) if r is not None else frozenset()
        for p in sorted(pi):
            if inv.profile(p).prufer_rank != 0:
                violations.append(_viol(PI_HAS_DIVISIBLE, f"div {p}", p))

    for (s, d) in sorted(phi.tau):
        violations.append(_viol(TAU_NONZERO, f"tau {s[0]}.{s[1]}->{d[0]}.{d[1]}",
                                g.block(d[0]).prime))
        break  # one is enough; the family only needs the first source

    facts: list[PrimeFacts] = []
    for p in g.active_primes():
        prof = inv.profile(p)
        val = phi.div.get(p, Fraction(0))
        alpha_div: Fraction | None
        if isinstance(val, dict):
            violations.append(_viol(DIV_NOT_SCALAR, f"div {p}", p))
            alpha_div = None
        else:
            alpha_div = val if prof.prufer_rank != 0 else None
        joint = _cyc_crt(phi, p, omega_only=True)
        if joint == "conflict":
            violations.append(_viol(CRT_INCONSISTENT, f"cyc p={p}", p))
            joint = None
        if free is not None:
            ref: Fraction | None = Fraction(phi.free_scalar)
        elif r is not None and p not in pi:
            ref = r
        else:
            ref = None
        if alpha_div is not None and ref is not None and alpha_div != ref:
            violations.append(_viol(DIV_VS_R_MISMATCH, f"div {p}", p))
        if free is not None and joint is not None and \
                frac_residue(Fraction(phi.free_scalar), p, joint.exp) != joint:
            violations.append(_viol(CRT_INCONSISTENT, f"cyc p={p}", p))
        if prof.prufer_rank is OMEGA and alpha_div is not None \
                and joint is not None and \
                frac_residue(alpha_div, p, joint.exp) != joint:
            violations.append(_viol(OMEGA_DIV_MISMATCH, f"cyc p={p}", p))
        bridged = False
        if prof.critical and joint is not None and not violations:
            if prof.prufer_rank != 0:
                base = alpha_div if alpha_div is not None else Fraction(0)
            elif ref is not None:
                base = ref
            else:
                base = Fraction(0)
            bridged = frac_residue(base, p, prof.omega_exp) != \
                joint.reduce(prof.omega_exp)
        facts.append(PrimeFacts(p, joint, alpha_div, bridged))

    if violations:
        return None, tuple(violations)
    exempt = tuple(name for name, b in g.cyclic_items() if is_finite(b.mult))
    return InertialCertificate(r, pi, tuple(facts), exempt), ()


# ---------------------------------------------------------------------------
# the three-part splitting

@dataclass(frozen=True)
class Decomposition:
    """phi = sm + ui + nm with sm a semi-multiplication, ui uniform,
    nm a bridging prime-part action; residual is phi - sm."""

    sm: Endo
    ui: Endo
    nm: Endo
    residual: Endo


def decompose(phi: Endo) -> Decomposition:
    """Split an inertial endomorphism canonically.  Raises UsageError
    when phi is not inertial."""
    cert, violations = is_inertial(phi)
    if cert is None:
        kinds = ", ".join(v.kind for v in violations)
        raise UsageError(f"not inertial: {kinds}")
    g = phi.group
    inv = invariants(g)
    if g.free_omega_name is not None:
        sm = multiplication_endo(g, phi.free_scalar)
    elif cert.r is None:
        sm = zero_endo(g)
    else:
        sm = semi_multiplication(g, cert.r)
    residual = sub(phi, sm)

    gaps = []
    for p in sorted(inv.critical_primes):
        prof = inv.profile(p)
        joint = _cyc_crt(residual, p, omega_only=True)
        a1 = residual.div.get(p, Fraction(0)) if prof.prufer_rank != 0 \
            else Fraction(0)
        gap = joint - frac_residue(a1, p, prof.omega_exp).reduce(joint.exp) \
            if joint is not None else None
        if gap is not None and gap.value:
            gaps.append(Residue(gap.value, p, prof.reduced_bound))
    if gaps:
        n = crt_lift(gaps)
        nm = mini_endo(g, n, {res.prime for res in gaps})
    else:
        nm = zero_endo(g)
    ui = sub(residual, nm)
    if is_uniform(ui) is None:
        raise AssertionError("residual of an inertial map must be uniform")
    if add(sm, add(ui, nm)) != phi:
        raise AssertionError("the three parts must add up to the map")
    return Decomposition(sm=sm, ui=ui, nm=nm, residual=residual)


def is_uniform(phi: Endo) -> JElement | None:
    """The componentwise scalar matching a uniformly inertial action,
    or None.  Uniform means: inertial, no torsion-free or twisted part,
    and per prime one scalar beta that agrees with every unbounded
    residue block, equals the divisible scalar exactly, and vanishes
    where the torsion-free part is p-divisible."""
    cert, violations = is_inertial(phi)
    if violations or phi.tf or phi.free_scalar or phi.tau:
        return None
    g = phi.group
    inv = invariants(g)
    betas: dict[int, Fraction] = {}
    for p in g.active_primes():
        prof = inv.profile(p)
        joint = _cyc_crt(phi, p, omega_only=True)
        if prof.tf_rank != 0:
            beta = Fraction(0)
        elif prof.prufer_rank != 0:
            val = phi.div.get(p, Fraction(0))
            if not isinstance(val, Fraction):
                raise AssertionError("an inertial map acts on divisible "
                                     "blocks by a scalar")
            beta = val
        elif joint is not None:
            beta = Fraction(joint.value)
        else:
            beta = Fraction(0)
        if prof.prufer_rank != 0 and phi.div.get(p, Fraction(0)) != beta:
            return None
        if joint is not None and (beta.denominator % p == 0 or
                                  frac_residue(beta, p, joint.exp) != joint):
            return None
        if beta:
            betas[p] = beta
    return JElement(0, betas)


def ui_class_in_H(phi: Endo) -> HElement:
    """The class of a uniform endomorphism in the residue-scalar group
    attached to the group's descriptor."""
    beta = is_uniform(phi)
    if beta is None:
        raise UsageError("not a uniform endomorphism")
    return HElement.make(h_descriptor(phi.group), beta)


def bounded_split(phi: Endo) -> tuple[Endo, Endo]:
    """Split an inertial endomorphism with no torsion-free, divisible,
    or twisted action into (finitary part, prime-part action)."""
    if phi.tf or phi.free_scalar or phi.div or phi.tau:
        raise UsageError("the endomorphism has unbounded-support parts")
    cert, violations = is_inertial(phi)
    if cert is None:
        kinds = ", ".join(v.kind for v in violations)
        raise UsageError(f"not inertial: {kinds}")
    g = phi.group
    picked = []
    for fact in cert.per_prime:
        if fact.alpha_cyc is not None and fact.alpha_cyc.value:
            picked.append(fact.alpha_cyc)
    if picked:
        nm = mini_endo(g, crt_lift(picked), {res.prime for res in picked})
    else:
        nm = zero_endo(g)
    fin = sub(phi, nm)
    if not is_finitary(fin):
        raise AssertionError("removing the prime-part action must leave a "
                             "finitary map")
    return fin, nm

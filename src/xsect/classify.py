"""Existence decisions for cross-sections of the two singly generated actions.

For the continuous action ``gamma -> gamma exp(tB)`` a cross-section
exists unless ``exp(B)`` is conjugate-orthogonal, i.e. every eigenvalue
of the generator ``B`` is purely imaginary (or zero) and ``B`` is
semisimple.  For the discrete action ``gamma -> gamma A^k`` the same
dichotomy reads: no cross-section iff ``A`` is diagonalizable over C
with all eigenvalue moduli equal to 1.  On top of bare existence, the
discrete action admits a finite-measure cross-section iff
``|det A| != 1`` and a bounded one iff the moduli sit entirely on one
side of 1.

Verdict cases follow a fixed priority: a nonzero real eigenvalue (or a
modulus != 1) wins over a complex pair, which wins over the nilpotent
modulus-one cases.  Within the winning case the witness block is the
qualifying block that grows fastest: the largest ``|alpha|`` for the
continuous action, the largest ``|log modulus|`` for the discrete one.
The section pins the witness coordinate ``x1`` and leaves the others
free; along the orbit a free coordinate then scales like
``|x1|**(alpha_i / alpha_w)`` (resp. ``|x1|**(log mu_i / log lambda_w)``),
an exponent of magnitude at most 1, so no free block outgrows the
witness coordinate beyond float range and the usable part of the
section does not depend on eigenvalue order.  Rates equal within
tolerance are ties and go to the earlier block in block order; the
nilpotent modulus-one cases all have rate zero, so their witness is
still the first qualifying block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BorderlineModulus
from .linalg import DEFAULT_TOL, RealJordanForm, as_matrix, real_jordan_form


@dataclass(frozen=True)
class ContinuousVerdict:
    exists: bool
    case: str | None
    witness_block: int | None
    jordan: RealJordanForm

    def to_json(self) -> dict:
        return {
            "mode": "continuous",
            "exists": self.exists,
            "case": self.case,
            "witness_block": self.witness_block,
        }


@dataclass(frozen=True)
class DiscreteVerdict:
    exists: bool
    finite_measure: bool
    bounded: bool
    case: str | None
    witness_block: int | None
    det_modulus: float
    jordan: RealJordanForm

    def to_json(self) -> dict:
        return {
            "mode": "discrete",
            "exists": self.exists,
            "finite_measure": self.finite_measure,
            "bounded": self.bounded,
            "case": self.case,
            "witness_block": self.witness_block,
            "det_modulus": self.det_modulus,
        }


def _pick(blocks, pred, rate, slack):
    """Index of the qualifying block with the largest ``rate``, or None.

    A later block wins only if its rate exceeds the best so far by more
    than ``slack``, so ties go to the earlier block.
    """
    best = None
    for idx, blk in enumerate(blocks):
        if pred(blk) and (best is None or rate(blk) > rate(blocks[best]) + slack):
            best = idx
    return best


def _first_case(blocks, cases, grows, rate, slack):
    """``(case, witness)`` of the first of the four ``cases`` in priority
    order that has a qualifying block, or ``(None, None)``: a real block
    that ``grows``, a complex one that grows, a real nilpotent block, a
    complex nilpotent one.  A growing witness has the largest ``rate``;
    a nilpotent witness is the first qualifying block."""
    flat = lambda blk: 0.0
    tiers = (
        (lambda blk: not blk.is_complex and grows(blk), rate),
        (lambda blk: blk.is_complex and grows(blk), rate),
        (lambda blk: not blk.is_complex and blk.nilpotent, flat),
        (lambda blk: blk.is_complex and blk.nilpotent, flat),
    )
    for case, (pred, tier_rate) in zip(cases, tiers):
        idx = _pick(blocks, pred, tier_rate, slack)
        if idx is not None:
            return case, idx
    return None, None


def classify_continuous(b, tol=DEFAULT_TOL) -> ContinuousVerdict:
    """Decide existence of a cross-section for ``gamma -> gamma exp(tB)``.

    The generator ``B`` may be singular (``exp(B)`` never is).  Cases are
    tried in priority order; ``exists`` is False exactly when every
    eigenvalue of ``B`` is purely imaginary or zero and no block carries
    a nilpotent part.  In the two nonzero cases the witness is the
    qualifying block with the largest ``|alpha|`` (ties within
    ``tol * max(||B||_2, 1)`` go to the earlier block), so every free coordinate
    scales like the witness coordinate to a power of magnitude at most
    1; in the nilpotent cases it is the first qualifying block.
    """
    form = real_jordan_form(b, tol=tol, require_invertible=False)
    case, witness = _first_case(
        form.blocks,
        ("real_nonzero", "complex_nonzero", "zero_nilpotent", "imaginary_nilpotent"),
        grows=lambda blk: abs(blk.alpha) > tol * form.scale,
        rate=lambda blk: abs(blk.alpha),
        slack=tol * form.scale,
    )
    return ContinuousVerdict(case is not None, case, witness, form)


def classify_discrete(a, tol=DEFAULT_TOL) -> DiscreteVerdict:
    """Decide cross-section existence/finite-measure/boundedness for
    ``gamma -> gamma A^k``.

    ``finite_measure`` compares ``|det A|`` to 1 at tolerance ``tol``;
    ``bounded`` requires every modulus strictly on one side of 1.  An
    eigenvalue modulus inside the gray zone around 1 whose block has no
    nilpotent part would flip the existence verdict either way, so it is
    reported as :class:`BorderlineModulus` instead of guessed.

    In the two modulus-not-one cases the witness is the qualifying block
    with the largest ``|log modulus|`` (ties within ``tol`` go to the
    earlier block), so every free coordinate scales like the witness
    coordinate to a power of magnitude at most 1; in the modulus-one
    nilpotent cases it is the first qualifying block.
    """
    a = as_matrix(a)
    form = real_jordan_form(a, tol=tol)
    det_modulus = abs(float(np.linalg.det(a)))

    def mod_dist(blk):
        return abs(blk.modulus - 1.0)

    case, witness = _first_case(
        form.blocks,
        ("modulus_not_one", "complex_modulus_not_one", "real_modulus_one_nilpotent", "complex_modulus_one_nilpotent"),
        grows=lambda blk: mod_dist(blk) > tol,
        rate=lambda blk: abs(math.log(blk.modulus)),
        slack=tol,
    )

    if case is None:
        # verdict would be "no cross-section"; make sure no semisimple block
        # is hiding a modulus genuinely different from 1 inside the gray zone
        for blk in form.blocks:
            if not blk.nilpotent and tol / 10 < mod_dist(blk) <= tol:
                raise BorderlineModulus(
                    f"eigenvalue modulus {blk.modulus!r} within tolerance of 1; "
                    "existence verdict would be unreliable"
                )

    finite = abs(det_modulus - 1.0) > tol
    return DiscreteVerdict(
        exists=case is not None,
        finite_measure=finite,
        bounded=moduli_one_side(form, tol),
        case=case,
        witness_block=witness,
        det_modulus=det_modulus,
        jordan=form,
    )


def moduli_one_side(form: RealJordanForm, tol) -> bool:
    """True iff every eigenvalue modulus of ``form`` exceeds ``1 + tol``, or
    every one is below ``1 - tol``: the rule for a bounded cross-section."""
    moduli = [blk.modulus for blk in form.blocks]
    return all(m > 1.0 + tol for m in moduli) or all(m < 1.0 - tol for m in moduli)


def is_similar_to_unitary(a, tol=DEFAULT_TOL) -> bool:
    """True iff ``A`` is diagonalizable over C with every modulus 1.

    Equivalent to the nonexistence of a cross-section for the discrete
    action, and to the nonexistence of an orthonormal wavelet of
    infinite order.
    """
    return not classify_discrete(a, tol=tol).exists

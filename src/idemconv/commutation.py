"""Commutation trichotomy for pairs of contractive idempotents.

classify_pair decides, in closed form, whether rho1*m_K1 and rho2*m_K2
have zero product, commute, or fail to commute.  The closed form is the
structure theorem for finite groups: if rho1 and rho2 differ somewhere on
K1 meet K2 the product is 0; otherwise

    (rho1 m_K1) * (rho2 m_K2) = 1/|K1K2| * sum over x = ab in K1K2 of rho1(a) rho2(b) delta_x.

One scatter decides both (_left_scatter): each term ab writes its exponent
t1(a) + t2(b), modulo the parent's exponent, at x = ab and reads x back.
Two factorisations of x differ by some c in K1 meet K2, ab = (ac)(c^-1 b),
and their exponents by t1(c) - t2(c), so every term reads back its own
value exactly when rho1 = rho2 on K1 meet K2 (c = ce = ec), and the row
then holds the left product's exponents.  A second scatter gives the
right product, and the two are compared as integer vectors; a verdict
keeps them and builds the product measures only when they are read.  When
they agree, _commuting proves the product characters against the
generators of K1 and K2 (_proves_characters, which verify_prop_43's
product step shares with the scatter), and runs the full Character check
only to name a failure.

classify_row decides every pair of characters of K1 against each block
(K2, characters of K2) of a row, one array pass per block: the characters'
exponents are stacked, so one compare on K1 meet K2 finds every zero
product and one scatter through the multiplication table gives every pair
of products; classify_block is a row of one block.  classify_pair keeps
the per-pair form, which is faster than a block of one pair.  Both forms
prove product characters through the same _commuting.  Nothing is
convolved unless verify=True (the tests, the oracle fixture and
semidirect_counterexample), which cross-checks the verdicts of a whole
row against brute-force convolution, one stacked kernel call per side for
each conductor of the row's blocks; classify_pair(verify=True) checks a
row of one 1x1 block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .characters import Character
from .cyclo import field_tables
from .errors import InvariantViolation, PreconditionError
from .groups import (
    GroupTable,
    Subgroup,
    _require_same_parent,
    semidirect_product,
    subgroup_from_elements,
)
from .measures import Measure, _convolve_rows, _monomial_rows

__all__ = [
    "CommutationVerdict",
    "classify_pair",
    "classify_block",
    "classify_row",
    "SemidirectReport",
    "semidirect_counterexample",
]


@dataclass(frozen=True)
class CommutationVerdict:
    """Outcome of classify_pair.

    kind is "zero_product", "commute", or "non_commuting".  For "commute"
    the product equals char_idem(product_subgroup, product_character); for
    "non_commuting" witness is the smallest element index where the two
    products differ.  left/right are the products, bit-identical to
    convolve: for "non_commuting" always, for the other kinds only under
    verify.  They are built on first read from _products, which holds
    (parent, conductor, exps): exps[0] and exps[1] are the exponents of the
    left and right products, -1 off their support.
    """

    kind: str
    product_subgroup: Optional[Subgroup] = None
    product_character: Optional[Character] = None
    witness: Optional[int] = None
    _products: Optional[tuple] = field(default=None, repr=False, compare=False)

    @cached_property
    def left(self) -> Optional[Measure]:
        return self._product(0)

    @cached_property
    def right(self) -> Optional[Measure]:
        return self._product(1)

    def _product(self, side: int) -> Optional[Measure]:
        if self._products is None:
            return None
        parent, n, exps = self._products
        # over den = |K1K2|, the support (1 for a zero product), the row at the
        # identity, exponent 0, is (1, 0, ..., 0), so rows are in lowest terms
        den = np.count_nonzero(exps[side] >= 0) or 1
        return Measure(parent, n, _monomial_rows(parent, exps[side], n), den)


def _require(
    k1: Subgroup, chars1: Sequence[Character], k2: Subgroup, chars2: Sequence[Character]
) -> None:
    # identity first: Subgroup.__eq__ compares element tuples
    for i, k, chars in ((1, k1, chars1), (2, k2, chars2)):
        for rho in chars:
            if rho.domain is not k and rho.domain != k:
                raise PreconditionError(f"rho{i} is not a character of K{i}")
    if k1.parent is not k2.parent:
        _require_same_parent(k1, k2)


def _left_scatter(
    k1: Subgroup, rho1: Character, k2: Subgroup, rho2: Character, row: np.ndarray
) -> Optional[np.ndarray]:
    """Scatter s = t1(a) + t2(b) mod e of each term ab of rho1 m_K1 * rho2 m_K2
    into row at ab and read it back: s, (|K1|, |K2|), if every term reads its
    own value, else None, the zero product (module docstring)."""
    parent = k1.parent
    a, b = k1.elements_np, k2.elements_np
    idx = parent.mul_np[a[:, None], b]
    s = (rho1._exponents[a][:, None] + rho2._exponents[b]) % parent.exponent
    row[idx] = s
    return None if np.count_nonzero(row[idx] != s) else s


def _decide(
    k1: Subgroup, rho1: Character, k2: Subgroup, rho2: Character, keep: bool
) -> CommutationVerdict:
    """The closed-form verdict on one pair.  Non-commuting verdicts keep
    their products; keep=True keeps them for every kind."""
    parent = k1.parent
    n = lcm(rho1.conductor, rho2.conductor)
    # the exponent of rho1(a) rho2(b) at x = ab (left) and at x = ba
    # (right), -1 off the product set
    exps = np.full((2, parent.order), -1, dtype=np.int64)
    s = _left_scatter(k1, rho1, k2, rho2, exps[0])
    if s is None:
        if not keep:
            return CommutationVerdict("zero_product")
        exps[0] = -1  # the read-back wrote the left row
        return CommutationVerdict("zero_product", _products=(parent, n, exps))
    exps[1, parent.mul_np[k2.elements_np[:, None], k1.elements_np]] = s.T
    differs = exps[0] != exps[1]
    witness = int(differs.argmax())
    products = (parent, n, exps)
    if not differs[witness]:
        k12, (rho12,) = _commuting(k1, k2, exps[:1])
        return CommutationVerdict("commute", k12, rho12, _products=products if keep else None)
    return CommutationVerdict("non_commuting", witness=witness, _products=products)


def _proves_characters(
    k1: Subgroup, k2: Subgroup, rows: np.ndarray, support: np.ndarray
) -> bool:
    """Whether every row of exponents t, each with the support K1K2 (-1 off
    it), is proven a character of a subgroup against S = span(K1) | span(K2).

    K1K2 lies inside <S>.  If t[e] = 0 and t[x s] = (t[x] + t[s]) mod e for
    every x in the support and s in S (-1 off the support never matches),
    the support is closed under right multiplication by S, so it is <S> =
    K12, a subgroup, and t is a character of it: one stacked compare proves
    every row exactly.
    """
    parent = k1.parent
    span = np.concatenate([k1._span, k2._span])
    # (rows, |K1K2|, |S|) entries, |S| <= log2|K1| + log2|K2|
    moved = rows[:, parent.mul_np[support[:, None], span]]
    return not np.count_nonzero(rows[:, parent.identity]) and not np.count_nonzero(
        moved != (rows[:, support, None] + rows[:, None, span]) % parent.exponent
    )


def _commuting(k1: Subgroup, k2: Subgroup, rows: np.ndarray) -> tuple[Subgroup, list[Character]]:
    """K12 and the product characters of agreeing products, one per row of
    exponents t (-1 off K1K2), proven by _proves_characters.

    Equal products make a nonzero idempotent of norm <= 1, which is rho m_K
    for a subgroup K and a character rho (Greenleaf), so a row the proof
    rejects is an InvariantViolation: Character(...) runs on it only to name
    the failure, and if it passes, the disagreement is the violation.
    """
    parent = k1.parent
    support = np.flatnonzero(rows[0] >= 0)
    k12 = Subgroup(parent, tuple(support.tolist()), k1.generators + k2.generators)
    exps = rows[:, support].tolist()
    if _proves_characters(k1, k2, rows, support):
        return k12, [Character._unchecked(k12, tuple(t)) for t in exps]
    try:
        for t in exps:
            Character(k12, tuple(t))
    except ValueError as exc:
        raise InvariantViolation(f"products agree but give no character: {exc}") from exc
    raise InvariantViolation(
        "the generator proof rejects a product character that the full check accepts"
    )


def _exponents(chars: Sequence[Character]) -> np.ndarray:
    """The characters' _exponents stacked as rows: -1 off their domain."""
    return np.stack([rho._exponents for rho in chars])


def _decide_block(
    k1: Subgroup,
    chars1: Sequence[Character],
    t1: np.ndarray,
    k2: Subgroup,
    chars2: Sequence[Character],
    keep: bool,
) -> list[list[CommutationVerdict]]:
    """_decide on every pair of one (K1, K2) block, in one array pass.

    The pairs share the scatter indices mul[K1][:, K2] and mul[K2][:, K1],
    the intersection K1 meet K2 and the support K1K2, so stacking the characters'
    exponents gives every zero test, every pair of products and every
    witness at once.  K12 is built once and every commuting pair's product
    character proven in one stacked compare, by the _commuting that _decide
    calls.  Entry [i][j] is _decide's verdict on (chars1[i], chars2[j]),
    products included.  t1 is _exponents(chars1), computed once per row.
    """
    if not chars1 or not chars2:
        return [[] for _ in chars1]
    parent = k1.parent
    t2 = _exponents(chars2)
    a, b = k1.elements_np, k2.elements_np
    meet = a[t2[0, a] >= 0]
    zero = (t1[:, None, meet] != t2[None, :, meet]).any(axis=2)
    i, j = (~zero).nonzero()

    # _decide's exponent vectors for each pair that is not zero, in row order
    s = (t1[i][:, a, None] + t2[j][:, None, b]) % parent.exponent
    exps = np.full((i.size, 2, parent.order), -1, dtype=np.int64)
    exps[:, 0][:, parent.mul_np[a[:, None], b]] = s
    exps[:, 1][:, parent.mul_np[b[:, None], a]] = s.swapaxes(1, 2)
    differs = exps[:, 0] != exps[:, 1]
    commute = ~differs.any(axis=1)
    witness = differs.argmax(axis=1).tolist()
    if commute.any():
        k12, rhos12 = _commuting(k1, k2, exps[commute, 0])
        rhos12 = iter(rhos12)
    # the exponents of two zero products, shared by the block's zero verdicts
    zeros = np.full((2, parent.order), -1, dtype=np.int64)
    zeros.flags.writeable = False

    conductors2 = [rho.conductor for rho in chars2]
    verdicts = []
    p = 0
    for rho1, row_zero in zip(chars1, zero.tolist()):
        n1, row = rho1.conductor, []
        for n2, z in zip(conductors2, row_zero):
            n = lcm(n1, n2)
            if z:
                products = (parent, n, zeros) if keep else None
                row.append(CommutationVerdict("zero_product", _products=products))
                continue
            products = (parent, n, exps[p])
            if not commute[p]:
                v = CommutationVerdict("non_commuting", witness=witness[p], _products=products)
            else:
                rho12 = next(rhos12)
                v = CommutationVerdict("commute", k12, rho12, _products=products if keep else None)
            row.append(v)
            p += 1
        verdicts.append(row)
    return verdicts


_DISAGREES = {
    "zero_product": "zero_product verdict, nonzero convolution",
    "commute": "commute verdict, convolutions disagree with it",
    "non_commuting": "closed-form products disagree with the convolutions",
}

# bound on the bytes of stacked products that the row check holds for one run
# of blocks: the left and right convolutions and their closed forms, four
# int64 entries per pair, group element and coordinate
_ROW_BYTES = 8 << 20


def _row_runs(
    k1: Subgroup,
    chars1: Sequence[Character],
    blocks2: Sequence[tuple[Subgroup, Sequence[Character]]],
) -> list[list[int]]:
    """The block indices of a row, in the runs that _check_row convolves.

    Blocks are grouped by their conductor, the lcm of every conductor in
    chars1 and in the block's chars2, so each pair is convolved at its
    block's conductor, as a block on its own would be.  A group whose
    stacked products would pass _ROW_BYTES is cut into runs of whole
    blocks.  Blocks with no characters are in no run.
    """
    order, n1 = k1.parent.order, lcm(*(rho.conductor for rho in chars1))
    groups: dict[int, list[int]] = {}
    for b, (_, chars2) in enumerate(blocks2):
        if chars2:
            groups.setdefault(lcm(n1, *(rho.conductor for rho in chars2)), []).append(b)
    runs = []
    for n, members in groups.items():
        per_char = 4 * len(chars1) * order * field_tables(n).degree * 8
        runs.append([])
        size = 0
        for b in members:
            width = len(blocks2[b][1]) * per_char
            if runs[-1] and size + width > _ROW_BYTES:
                runs.append([])
                size = 0
            runs[-1].append(b)
            size += width
    return runs


def _check_row(
    k1: Subgroup,
    chars1: Sequence[Character],
    blocks2: Sequence[tuple[Subgroup, Sequence[Character]]],
    verdicts: Sequence[list[list[CommutationVerdict]]],
) -> None:
    """Check the verdicts of a row of blocks against brute-force convolution,
    one run of blocks (_row_runs) at a time."""
    for run in _row_runs(k1, chars1, blocks2):
        _check_run(k1, chars1, [blocks2[b] for b in run], [verdicts[b] for b in run])


def _check_run(
    k1: Subgroup,
    chars1: Sequence[Character],
    blocks2: Sequence[tuple[Subgroup, Sequence[Character]]],
    verdicts: Sequence[list[list[CommutationVerdict]]],
) -> None:
    """Check the verdicts of one run of blocks of a row.

    The run's K2 characters are stacked as one list of columns.  Each
    side's char_idem rows are built once, from the characters' exps (never
    from the closed form), at the run's common conductor n; one kernel call
    per side gives every left and every right product, each over |K1||K2|.
    Every closed-form product counts each x = ab once per element of
    K1 meet K2, so times its column's |K1 meet K2| it must equal its
    convolution.  A commute verdict's character must restrict to rho1 and
    rho2 and its char_idem must equal the products; a witness must be the
    first element where the two convolutions differ.  Failures raise
    InvariantViolation.
    """
    chars2 = [rho for _, chars in blocks2 for rho in chars]
    parent = k1.parent
    order, m1, m2 = parent.order, len(chars1), len(chars2)
    n = lcm(*(rho.conductor for rho in chars1), *(rho.conductor for rho in chars2))

    def scattered(k: Subgroup, chars: Sequence[Character]) -> np.ndarray:
        # exps over the parent, -1 off k: read from exps, not from the
        # _exponents that the closed form reads
        t = np.full((len(chars), order), -1, dtype=np.int64)
        t[:, k.elements_np] = [rho.exps for rho in chars]
        return t

    t1s = scattered(k1, chars1)
    t2s = np.concatenate([scattered(k2, chars) for k2, chars in blocks2])
    d = field_tables(n).degree
    rows1 = _monomial_rows(parent, t1s, n).reshape(-1, d)
    rows2 = _monomial_rows(parent, t2s, n).reshape(-1, d)
    left = _convolve_rows(parent, n, rows1, rows2).reshape(m1, m2, order, -1)
    right = _convolve_rows(parent, n, rows2, rows1).reshape(m2, m1, order, -1).swapaxes(0, 1)
    widths = [len(chars) for _, chars in blocks2]
    meet = np.repeat([len(k1.element_set & k2.element_set) for k2, _ in blocks2], widths)

    # verdict [i, c] of the run: row i of chars1, column c of chars2
    flat = [v for i in range(m1) for block in verdicts for v in block[i]]
    exps = np.stack([v._products[2] for v in flat]).reshape(m1, m2, 2, order)
    closed = _monomial_rows(parent, exps, n)
    closed *= meet[:, None, None, None]
    wrong = ((left != closed[:, :, 0]) | (right != closed[:, :, 1])).any(axis=(2, 3)).ravel()
    if wrong.any():
        raise InvariantViolation(_DISAGREES[flat[int(wrong.argmax())].kind])

    pairs = [p for p, v in enumerate(flat) if v.kind == "commute"]
    if pairs:
        i, c = np.divmod(pairs, m2)
        t12 = _exponents([flat[p].product_character for p in pairs])
        t1, t2 = t1s[i], t2s[c]
        if (((t1 >= 0) & (t12 != t1)) | ((t2 >= 0) & (t12 != t2))).any():
            raise InvariantViolation("product character does not restrict to rho1, rho2")
        # rho12's char_idem over |K12| is _monomial_rows of its exponents
        idem = meet[c][:, None, None] * _monomial_rows(parent, t12, n)
        if (left[i, c] != idem).any():
            raise InvariantViolation("commute verdict, convolutions differ from its char_idem")

    differs = (left != right).any(axis=3)
    first = np.where(differs.any(axis=2), differs.argmax(axis=2), -1).ravel()
    if first.tolist() != [-1 if v.witness is None else v.witness for v in flat]:
        raise InvariantViolation("witness is not the first difference of the convolutions")


def classify_pair(
    k1: Subgroup,
    rho1: Character,
    k2: Subgroup,
    rho2: Character,
    *,
    verify: bool = False,
) -> CommutationVerdict:
    """Decide commutation of the idempotents rho1*m_K1 and rho2*m_K2.

    (a) rho1, rho2 differ on K1 meet K2              -> zero_product
    (b) the two closed-form products agree: then K1K2
        is a subgroup carrying the character
        k1k2 -> rho1(k1) rho2(k2)                    -> commute
    (c) otherwise                                    -> non_commuting, witness.

    The products are compared as exponent vectors (module docstring);
    verify=True checks the verdict as a row of one 1x1 block (classify_row).
    """
    _require(k1, (rho1,), k2, (rho2,))
    v = _decide(k1, rho1, k2, rho2, verify)
    if verify:
        _check_row(k1, (rho1,), [(k2, (rho2,))], [[[v]]])
    return v


def classify_row(
    k1: Subgroup,
    chars1: Sequence[Character],
    blocks2: Sequence[tuple[Subgroup, Sequence[Character]]],
    *,
    verify: bool = False,
) -> list[list[list[CommutationVerdict]]]:
    """classify_block of K1 against each (k2, chars2) of blocks2.

    Entry [b][i][j] is the verdict on (chars1[i], blocks2[b][1][j]), decided
    as classify_pair decides it, one array pass per block.  verify=True
    checks the whole row against brute-force convolution: one stacked
    kernel call per side for each conductor of the row's blocks, cut into
    runs of whole blocks where the stack would pass _ROW_BYTES.
    """
    # chars1 once for the row, then each block's characters and parent
    _require(k1, chars1, k1, ())
    for k2, chars2 in blocks2:
        _require(k1, (), k2, chars2)
    t1 = _exponents(chars1) if chars1 else None
    verdicts = [_decide_block(k1, chars1, t1, k2, chars2, verify) for k2, chars2 in blocks2]
    if verify and chars1:
        _check_row(k1, chars1, blocks2, verdicts)
    return verdicts


def classify_block(
    k1: Subgroup,
    chars1: Sequence[Character],
    k2: Subgroup,
    chars2: Sequence[Character],
    *,
    verify: bool = False,
) -> list[list[CommutationVerdict]]:
    """classify_pair on every pair of characters of K1 and of K2: the row of
    one block (classify_row).  Entry [i][j] is the verdict on
    (chars1[i], chars2[j]).
    """
    return classify_row(k1, chars1, [(k2, chars2)], verify=verify)[0]


@dataclass(frozen=True)
class SemidirectReport:
    group: GroupTable
    left: Measure  # (rho m_K) * m_A
    right: Measure  # m_A * (rho m_K)
    witness: int
    coefficient_check: bool


def semidirect_counterexample(
    k_grp: GroupTable,
    a_grp: GroupTable,
    action: Sequence[Sequence[int]],
    rho: Character,
) -> SemidirectReport:
    """Non-commutation of rho*m_K with m_A inside K semidirect A.

    Requires rho to move under the action of some element of A; the right
    product's coefficient at (k, x) is rho(x^-1(k)) / (|K| |A|), checked
    exactly against the convolution.
    """
    if not k_grp.is_abelian:
        raise PreconditionError("K must be abelian")
    if rho.domain.order != k_grp.order or rho.domain.parent is not k_grp:
        raise PreconditionError("rho must be a character of all of K")
    acts = [tuple(p) for p in action]
    t = rho.exps  # rho is on all of K, so t[g] is its exponent at g
    moved = any(tuple(t[x] for x in p) != t for p in acts)
    if not moved:
        raise PreconditionError("rho is invariant under the action; no counterexample")

    g = semidirect_product(k_grp, a_grp, acts)
    na = a_grp.order
    k_embedded = subgroup_from_elements(
        g, [k * na + a_grp.identity for k in range(k_grp.order)], validate=False
    )
    a_embedded = subgroup_from_elements(
        g, [k_grp.identity * na + x for x in range(na)], validate=False
    )
    # rho transported along the embedding k -> (k, e) is a character, as is
    # the trivial one; K's exponent divides that of K x| A
    scale = g.exponent // k_grp.exponent
    rho_emb = Character._unchecked(
        k_embedded, tuple(t[x // na] * scale for x in k_embedded.elements)
    )
    trivial = Character._unchecked(a_embedded, (0,) * na)
    v = classify_pair(k_embedded, rho_emb, a_embedded, trivial, verify=True)
    if v.kind != "non_commuting":
        raise InvariantViolation("products agree; the action test should have failed")
    left, right = v.left, v.right

    # right at (k, x) is rho(x^-1(k)) / (|K| |A|): one root of unity per row
    n = rho.conductor
    exps = np.array(t)[np.array([acts[x] for x in a_grp.inv]).T] // (k_grp.exponent // n)
    coeff_ok = right == Measure(g, n, field_tables(n).roots[exps.ravel()], k_grp.order * na)
    if not coeff_ok:
        raise InvariantViolation("closed-form coefficients disagree with the convolution")
    return SemidirectReport(g, left, right, v.witness, coeff_ok)

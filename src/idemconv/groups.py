"""Finite groups as explicit multiplication tables, plus subgroup machinery.

Composition convention, fixed globally: ``g * h`` means "apply h, then g"
(left action). All element arithmetic goes through the tables; permutations
and construction formulas exist only while a table is being built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import InvariantViolation, MismatchedParents, PreconditionError

__all__ = [
    "GroupTable",
    "Subgroup",
    "CosetSpace",
    "ProductVerdict",
    "Quotient",
    "closure",
    "subgroup_from_elements",
    "trivial_subgroup",
    "full_subgroup",
    "product_set",
    "is_subgroup_product",
    "normalizer",
    "centralizer",
    "commutator_subgroup",
    "quotient_group",
    "intersection",
    "is_matched_pair",
    "all_subgroups",
    "normal_subgroups",
    "left_cosets",
    "symmetric_group",
    "cyclic_group",
    "dihedral_group",
    "quaternion_group",
    "direct_product",
    "semidirect_product",
    "from_permutations",
    "from_table",
]

def _find_identity(mul_np: np.ndarray) -> int:
    straight = np.arange(mul_np.shape[0])
    two_sided = (mul_np == straight).all(axis=1) & (mul_np.T == straight).all(axis=1)
    if not two_sided.any():
        raise ValueError("table has no two-sided identity")
    return int(np.argmax(two_sided))


def _find_inverses(mul_np: np.ndarray, identity: int) -> np.ndarray:
    g = np.arange(mul_np.shape[0])
    hits = mul_np == identity
    inv = hits.argmax(axis=1)  # the first right inverse, or 0 if there is none
    bad = ~hits[g, inv] | (mul_np[inv, g] != identity)
    if bad.any():
        raise ValueError(f"element {int(np.argmax(bad))} has no two-sided inverse")
    inv.flags.writeable = False
    return inv


def _element_orders(mul_np: np.ndarray, identity: int) -> np.ndarray:
    """The order of every element: the powers of each element that no walk
    has reached yet are walked once, and g^k of an element g of order m has
    order m / gcd(k, m).  Filled as a list, made an array once."""
    orders = [0] * mul_np.shape[0]
    for g in range(len(orders)):
        if orders[g]:
            continue
        pows = [g]
        while pows[-1] != identity:
            pows.append(mul_np.item(pows[-1], g))
        m = len(pows)
        for k, p in enumerate(pows, 1):
            orders[p] = m // gcd(k, m)
    return np.array(orders, dtype=np.int64)


def _spanning_set(
    mul: Sequence[Sequence[int]],
    identity: int,
    candidates: Iterable[int],
    check: Optional[Callable[[int], None]] = None,
) -> tuple[list[int], set[int]]:
    """The candidates a walk from the identity takes, and the set they reach:
    the one routine that grows subgroups.

    mul is a table read one row at a time (GroupTable.mul, or mul_np while
    a table is being built).  Each candidate, in order, is skipped if it is
    already reached; otherwise it is passed to check and taken, and the
    reached set regrows by row lookups: every reached element times the new
    one, then every fresh element times every element taken, until nothing
    is fresh.  In a group the reached set is then the subgroup the taken
    elements generate, which at least doubles with every element taken, so
    a subgroup of order n takes at most log2(n), however many candidates
    reach it.
    """
    reached = {identity}
    taken: list[int] = []
    for g in candidates:
        if g in reached:
            continue
        if check is not None:
            check(g)
        taken.append(g)
        fresh, by = list(reached), (g,)
        while fresh:
            grown = []
            for x in fresh:
                row = mul[x]
                for t in by:
                    y = row[t]
                    if y not in reached:
                        reached.add(y)
                        grown.append(y)
            fresh, by = grown, taken
    return taken, reached


def _check_associativity(mul_np: np.ndarray, identity: int) -> None:
    """Light's associativity test, exact at every order.

    The elements g with (x*g)*y = x*(g*y) for all x, y are closed under the
    product, so it is enough to check a generating set: each element that
    _spanning_set takes for the whole table is checked with one n x n
    comparison.  With a two-sided identity and inverses the reached set is
    a subgroup that at least doubles with every check, so a table of order
    n needs at most log2(n) checks.
    """

    def check(g: int) -> None:
        left = mul_np[mul_np[:, g], :]  # (x*g)*y
        right = mul_np[:, mul_np[g, :]]  # x*(g*y)
        if not np.array_equal(left, right):
            x, y = np.argwhere(left != right)[0]
            raise ValueError(f"table is not associative at ({x},{g},{y})")

    _spanning_set(mul_np, identity, range(mul_np.shape[0]), check)


class GroupTable:
    """A finite group: order, multiplication and inverse tables, labels.

    mul_np and inv_np are the tables as int64 arrays, inv_np read-only; inv
    is inv_np as a tuple and mul, built on first use, mul_np as nested
    tuples, for scalar lookups: op, conjugate and power, and the subgroup
    walk (_spanning_set) of closure and Subgroup._span, which reads rows.

    Instances are immutable after construction and compare by identity;
    two independently built copies of the same group are distinct parents.
    """

    def __init__(
        self,
        mul: Union[Sequence[Sequence[int]], np.ndarray],
        labels: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ):
        n = len(mul)
        if n == 0:
            raise ValueError("empty table")
        try:
            mul_np = np.array(mul, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            mul_np = None  # ragged rows, or entries that are not integers
        if mul_np is None or mul_np.shape != (n, n) or mul_np.min() < 0 or mul_np.max() >= n:
            raise ValueError("table rows must be length-n index vectors")
        identity = _find_identity(mul_np)
        inv_np = _find_inverses(mul_np, identity)
        _check_associativity(mul_np, identity)
        if labels is None:
            labels = [f"g{i}" for i in range(n)]
        labels = tuple(str(s) for s in labels)
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be distinct, one per element")

        self.order = n
        self.inv_np = inv_np  # read-only
        self.inv = tuple(inv_np.tolist())
        self.identity = identity
        self.labels = labels
        self.name = name if name is not None else f"G{n}"
        self.mul_np = mul_np
        self.element_orders = _element_orders(mul_np, identity)
        self.exponent = int(np.lcm.reduce(self.element_orders))

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """mul_np as nested tuples, for scalar lookups; built on first use."""
        return tuple(map(tuple, self.mul_np.tolist()))

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.labels)}

    def idx(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise KeyError(f"no element labelled {label!r} in {self.name}") from None

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        return self.mul[self.mul[g][a]][self.inv[g]]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv[g], -k
        x = self.identity
        for _ in range(k):
            x = self.mul[x][g]
        return x

    def element_order(self, g: int) -> int:
        return int(self.element_orders[g])

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul_np, self.mul_np.T))

    def __repr__(self) -> str:
        return f"<GroupTable {self.name} order={self.order}>"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of a parent GroupTable, stored as sorted element indices.

    Its array form, read-only and built on first use, is what other modules
    gather with: elements_np, and positions, each parent element's index in
    elements, -1 off the subgroup (positions >= 0 is the membership mask).
    """

    parent: GroupTable
    elements: tuple[int, ...]
    generators: tuple[int, ...]

    def __post_init__(self):
        if self.elements != tuple(sorted(set(self.elements))):
            raise ValueError("elements must be sorted and distinct")

    @cached_property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    @cached_property
    def elements_np(self) -> np.ndarray:
        out = np.array(self.elements, dtype=np.int64)
        out.flags.writeable = False
        return out

    @cached_property
    def positions(self) -> np.ndarray:
        out = np.full(self.parent.order, -1, dtype=np.int64)
        out[self.elements_np] = np.arange(self.order)
        out.flags.writeable = False
        return out

    @cached_property
    def _span(self) -> np.ndarray:
        """A small generating set, read-only, proven to reach exactly the
        elements by growth from the identity (_spanning_set); the public
        generators are left as they are."""
        parent = self.parent
        gens, reached = _spanning_set(parent.mul, parent.identity, self.elements)
        if reached != self.element_set:
            raise InvariantViolation("the spanning set does not reach exactly the subgroup")
        out = np.array(gens, dtype=np.int64)
        out.flags.writeable = False
        return out

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self.element_set

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the subgroup is frozen, so its element tuple is hashed once
        return hash((id(self.parent), self.elements))

    @cached_property
    def label_list(self) -> tuple[str, ...]:
        return tuple(self.parent.labels[g] for g in self.elements)

    def is_normal(self) -> bool:
        return is_normal_in(self, full_subgroup(self.parent))

    def __repr__(self) -> str:
        inside = ",".join(self.label_list[:6])
        if self.order > 6:
            inside += ",..."
        return f"<Subgroup order={self.order} {{{inside}}} of {self.parent.name}>"


def subgroup_from_elements(
    parent: GroupTable,
    elements: Iterable[int],
    generators: Optional[Iterable[int]] = None,
    *,
    validate: bool = True,
) -> Subgroup:
    elts = tuple(sorted(set(int(x) for x in elements)))
    sub = Subgroup(parent, elts, tuple(generators) if generators is not None else elts)
    if not validate:
        return sub
    e, inside = sub.elements_np, sub.positions >= 0
    if not inside[parent.identity]:
        raise ValueError("subgroup must contain the identity")
    # the first element whose inverse or row of products escapes, in order
    inv_ok = inside[parent.inv_np[e]]
    prod_ok = inside[parent.mul_np[e[:, None], e]]
    bad = ~inv_ok | ~prod_ok.all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        a = parent.labels[elts[i]]
        if not inv_ok[i]:
            raise ValueError(f"not inverse-closed at {a}")
        b = parent.labels[elts[int(prod_ok[i].argmin())]]
        raise ValueError(f"not closed: {a}*{b} escapes")
    return sub


def closure(parent: GroupTable, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed elements; its generators are
    the sorted distinct seed, though the walk takes only the seeds it has
    not reached yet (_spanning_set)."""
    gens = sorted(set(int(x) for x in seed))
    for g in gens:
        if g < 0 or g >= parent.order:
            raise ValueError(f"element index {g} out of range")
    _, reached = _spanning_set(parent.mul, parent.identity, gens)
    return Subgroup(parent, tuple(sorted(reached)), tuple(gens))


def trivial_subgroup(parent: GroupTable) -> Subgroup:
    return Subgroup(parent, (parent.identity,), ())


def full_subgroup(parent: GroupTable) -> Subgroup:
    return Subgroup(parent, tuple(range(parent.order)), tuple(range(parent.order)))


def _require_same_parent(*subs: Subgroup) -> GroupTable:
    parent = subs[0].parent
    for s in subs[1:]:
        if s.parent is not parent:
            raise MismatchedParents(
                f"subgroups live in different parents ({parent.name} vs {s.parent.name})"
            )
    return parent


def _product_mask(k1: Subgroup, k2: Subgroup) -> np.ndarray:
    """Membership mask over the parent of the set {a*b : a in K1, b in K2}."""
    parent = _require_same_parent(k1, k2)
    inside = np.zeros(parent.order, dtype=bool)
    inside[parent.mul_np[k1.elements_np[:, None], k2.elements_np]] = True
    return inside


def product_set(k1: Subgroup, k2: Subgroup) -> tuple[int, ...]:
    """The set {a*b : a in K1, b in K2}, sorted."""
    return tuple(np.flatnonzero(_product_mask(k1, k2)).tolist())


@dataclass(frozen=True)
class ProductVerdict:
    """Whether K1K2 is a subgroup; if not, witness is an x in K1K2 whose
    inverse is not in K1K2 (witness_kind is then always "inverse_escapes")."""

    is_subgroup: bool
    subgroup: Optional[Subgroup]
    witness_kind: Optional[str]
    witness: Optional[int]


def is_subgroup_product(k1: Subgroup, k2: Subgroup) -> ProductVerdict:
    """Decide whether the product set K1K2 is a subgroup.

    (K1K2)^-1 = K2K1 and both sets have the same size, so K1K2 is a
    subgroup exactly when it is closed under inversion (then K1K2 = K2K1
    and K1K2K1K2 = K1K2).  Otherwise the witness is the least x in K1K2
    with inv(x) outside K1K2.
    """
    inside = _product_mask(k1, k2)
    p12 = np.flatnonzero(inside)
    escapes = ~inside[k1.parent.inv_np[p12]]
    if escapes.any():
        return ProductVerdict(False, None, "inverse_escapes", int(p12[escapes.argmax()]))
    sub = Subgroup(k1.parent, tuple(p12.tolist()), k1.generators + k2.generators)
    return ProductVerdict(True, sub, None, None)


def _conjugates_inside(k: Subgroup, gs: Sequence[int]) -> np.ndarray:
    """Mask [i, j]: whether gs[i] * k_j * gs[i]^-1 lies in K, by one gather."""
    parent = k.parent
    mul_np = parent.mul_np
    gs = np.asarray(gs, dtype=np.int64)
    conj = mul_np[mul_np[gs[:, None], k.elements_np], parent.inv_np[gs][:, None]]
    return k.positions[conj] >= 0


def normalizer(k: Subgroup) -> Subgroup:
    parent = k.parent
    members = np.flatnonzero(_conjugates_inside(k, range(parent.order)).all(axis=1))
    return subgroup_from_elements(parent, members.tolist(), validate=False)


def centralizer(k: Subgroup) -> Subgroup:
    mul_np, ks = k.parent.mul_np, k.elements_np
    members = np.flatnonzero((mul_np[:, ks] == mul_np[ks].T).all(axis=1))
    return subgroup_from_elements(k.parent, members.tolist(), validate=False)


def commutator_subgroup(k: Subgroup) -> Subgroup:
    parent = k.parent
    mul_np, ks = parent.mul_np, k.elements_np
    inv = parent.inv_np[ks]
    # [a, b] -> (a b)(a^-1 b^-1)
    comms = mul_np[mul_np[ks[:, None], ks], mul_np[inv[:, None], inv]]
    return closure(parent, np.flatnonzero(np.bincount(comms.ravel(), minlength=parent.order)))


def intersection(k1: Subgroup, k2: Subgroup) -> Subgroup:
    parent = _require_same_parent(k1, k2)
    elts = tuple(sorted(k1.element_set & k2.element_set))
    return Subgroup(parent, elts, elts)


def is_normal_in(n: Subgroup, h: Subgroup) -> bool:
    _require_same_parent(n, h)
    if not n.element_set <= h.element_set:
        return False
    return bool(_conjugates_inside(n, h.elements).all())


def is_matched_pair(k1: Subgroup, k2: Subgroup) -> bool:
    """Trivial intersection and the product set is a subgroup."""
    if intersection(k1, k2).order != 1:
        return False
    return is_subgroup_product(k1, k2).is_subgroup


@dataclass(frozen=True)
class Quotient:
    group: GroupTable
    projection: dict[int, int]  # parent element index -> quotient index
    cosets: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]


def quotient_group(h: Subgroup, n: Subgroup) -> Quotient:
    """The quotient H/N with its projection, for N normal in H: element i
    is the left coset named by representatives[i], its least element, and
    the projection and table (coset i times coset j is the coset of
    reps[i] * reps[j]) are read from the names."""
    parent = _require_same_parent(h, n)
    if not n.element_set <= h.element_set:
        raise PreconditionError("N is not contained in H")
    if not is_normal_in(n, h):
        raise PreconditionError("N is not normal in H")
    rows, names = _coset_rows(h, n)
    named = names == np.arange(h.order)
    reps = h.elements_np[named]
    # a name's coset index is the number of names before it in H
    coset_of = (np.cumsum(named) - 1)[names]
    q_mul = coset_of[h.positions[parent.mul_np[reps[:, None], reps]]]
    q_labels = [f"[{parent.labels[r]}]" for r in reps.tolist()]
    q_name = f"{parent.name}/N{n.order}"
    group = GroupTable(q_mul, q_labels, name=q_name)
    projection = dict(zip(h.elements, coset_of.tolist()))
    cosets = tuple(map(tuple, rows[named].tolist()))
    return Quotient(group, projection, cosets, tuple(reps.tolist()))


@dataclass(frozen=True)
class CosetSpace:
    """Left cosets hL of L inside H, with one representative per coset."""

    parent: Subgroup  # H
    subgroup: Subgroup  # L
    cosets: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]

    def coset_index_of(self, g: int) -> int:
        for i, coset in enumerate(self.cosets):
            if g in coset:
                return i
        raise KeyError(f"element {g} not in the coset space")


def _coset_rows(h: Subgroup, lsub: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """The sorted row xL of each x in H, and the position in H of its name,
    its least element; raises unless the rows partition H (left_cosets)."""
    parent = _require_same_parent(h, lsub)
    if not lsub.element_set <= h.element_set:
        raise PreconditionError("L is not contained in H")
    rows = np.sort(parent.mul_np[h.elements_np[:, None], lsub.elements_np], axis=1)
    names = h.positions[rows[:, 0]]
    if (names < 0).any() or not (rows[names] == rows).all():
        raise InvariantViolation("cosets do not partition H into |L|-sized blocks")
    return rows, names


def left_cosets(h: Subgroup, lsub: Subgroup) -> CosetSpace:
    """The left cosets xL of L in H as sorted tuples, each named by its least
    element, in ascending order of the names, which are the representatives.

    Every row xL must equal the row of its name, which, with e in L inside
    H, holds exactly when L is closed: the partition is checked exactly,
    and an L that is not closed raises InvariantViolation.
    """
    rows, names = _coset_rows(h, lsub)
    named = names == np.arange(h.order)
    cosets = tuple(map(tuple, rows[named].tolist()))
    return CosetSpace(h, lsub, cosets, tuple(h.elements_np[named].tolist()))


# bounded like character_group; one paper-suite run holds 86 lattices
@lru_cache(maxsize=256)
def _all_subgroups_cached(
    parent_ref: GroupTable, ambient_elements: tuple[int, ...]
) -> tuple[Subgroup, ...]:
    mul = parent_ref.mul_np
    triv = trivial_subgroup(parent_ref)
    found: dict[tuple[int, ...], Subgroup] = {triv.elements: triv}
    frontier = [triv]
    while frontier:
        fresh = []
        for h in frontier:
            hs, marked = h.elements_np, h.positions >= 0
            for g in ambient_elements:
                if marked[g]:
                    continue
                marked[mul[mul[hs, g][:, None], hs]] = True  # the double coset HgH
                s = closure(parent_ref, h.generators + (g,))
                if s.elements not in found:
                    found[s.elements] = s
                    fresh.append(s)
        frontier = fresh
    return tuple(sorted(found.values(), key=lambda s: (s.order, s.elements)))


def all_subgroups(ambient: Union[GroupTable, Subgroup]) -> tuple[Subgroup, ...]:
    """Every subgroup contained in the ambient group (or Subgroup).

    Breadth-first over extensions <H, g>, deduplicated by element set and
    ordered by (order, elements).  <H, g> = <H, h g h'> for h, h' in H, so g
    runs in ascending order and its whole double coset HgH is then skipped:
    each closure starts from the smallest element of its double coset, the
    first g that trying every element would reach, so the generators are
    the ones that exhaustive search gives.
    """
    if isinstance(ambient, GroupTable):
        sub = full_subgroup(ambient)
    else:
        sub = ambient
    return _all_subgroups_cached(sub.parent, sub.elements)


def normal_subgroups(k: Subgroup) -> tuple[Subgroup, ...]:
    return tuple(n for n in all_subgroups(k) if is_normal_in(n, k))


# ---------------------------------------------------------------------------
# constructions


def _perm_compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_label(perm: Sequence[int]) -> str:
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = perm[x]
        parts.append(cyc)
    if not parts:
        return "e"
    sep = "" if n <= 9 else ","
    return "".join("(" + sep.join(str(v) for v in c) + ")" for c in parts)


def symmetric_group(n: int) -> GroupTable:
    """S_n on points 1..n; labels in cycle notation."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _permutation_table(itertools.permutations(range(n)), name=f"S{n}")


def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("need n >= 1")
    k = np.arange(n)
    labels = ["e"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    return GroupTable((k[:, None] + k) % n, labels[:n], name=f"C{n}")


def dihedral_group(n: int) -> GroupTable:
    """Dihedral group of order 2n: rotations r^i and reflections r^i s."""
    if n < 1:
        raise ValueError("need n >= 1")
    # element j*n + i is r^i s^j, and r^i s^j * r^k s^l = r^(i + (-1)^j k) s^(j+l)
    j, i = np.divmod(np.arange(2 * n), n)
    rot = (i[:, None] + (1 - 2 * j)[:, None] * i) % n
    mul = (j[:, None] ^ j) * n + rot
    labels = []
    for j in range(2):
        for i in range(n):
            r = "e" if i == 0 else ("r" if i == 1 else f"r^{i}")
            if j == 0:
                labels.append(r)
            else:
                labels.append("s" if i == 0 else ("rs" if i == 1 else f"r^{i}s"))
    return GroupTable(mul, labels, name=f"D{n}")


# the units 1, i, j, k on axes 0..3 multiply by XOR of the axes; the product
# of axes a and b has sign bit _QUATERNION_SIGN[a][b] (i*j = k but j*i = -k)
_QUATERNION_SIGN = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


def quaternion_group() -> GroupTable:
    """The quaternion group {1,-1,i,-i,j,-j,k,-k}."""
    # element 2 * axis + sign is (-1)^sign times the unit of that axis
    a, s = np.divmod(np.arange(8), 2)
    mul = (a[:, None] ^ a) * 2 + (s[:, None] ^ s ^ _QUATERNION_SIGN[a[:, None], a])
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return GroupTable(mul, names, name="Q8")


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    na, nb = a.order, b.order
    # element x * nb + y is (x, y); the axes below are x1, y1, x2, y2
    mul = a.mul_np[:, None, :, None] * nb + b.mul_np[None, :, None, :]
    labels = [
        f"({a.labels[x]},{b.labels[y]})" for x in range(na) for y in range(nb)
    ]
    return GroupTable(mul.reshape(na * nb, na * nb), labels, name=f"{a.name}x{b.name}")


def semidirect_product(
    n_grp: GroupTable,
    a_grp: GroupTable,
    action: Union[Sequence[Sequence[int]], Callable[[int], Sequence[int]]],
) -> GroupTable:
    """N semidirect A with multiplication (k,x)(k',y) = (k * x(k'), x*y).

    The action maps each element of A to a permutation of N's indices; it
    must be a homomorphism into automorphisms of N (validated).  A failure
    names the first element of A that is not a bijection or not an
    automorphism, before the identity and homomorphism checks.
    """
    nn, na = n_grp.order, a_grp.order
    if callable(action):
        acts = [tuple(action(x)) for x in range(na)]
    else:
        acts = [tuple(p) for p in action]
    if len(acts) != na:
        raise ValueError("need one automorphism per element of A")
    straight = tuple(range(nn))
    # sorted() takes ragged rows, any index and ints past int64
    bijective = next((x for x, p in enumerate(acts) if tuple(sorted(p)) != straight), na)
    acts_np = np.array(acts[:bijective], dtype=np.int64).reshape(bijective, nn)
    nmul = n_grp.mul_np
    # x(u*v) == x(u) * x(v) for all u, v, one (nn, nn) block per x
    auto = (acts_np[:, nmul] == nmul[acts_np[:, :, None], acts_np[:, None, :]]).all(axis=(1, 2))
    x = int(auto.argmin()) if not auto.all() else bijective
    if x < na:
        kind = "an automorphism" if x < bijective else "a bijection"
        raise ValueError(f"action of {a_grp.labels[x]} is not {kind}")
    if acts[a_grp.identity] != straight:
        raise ValueError("identity of A must act trivially")
    # (x*y)(k) == x(y(k)), one row per pair (x, y)
    if not np.array_equal(acts_np[a_grp.mul_np], acts_np[:, acts_np]):
        raise ValueError("action is not a homomorphism")

    # element k * na + x is (k, x); the axes below are k, x, k', y
    mul = nmul[:, acts_np][:, :, :, None] * na + a_grp.mul_np[None, :, None, :]
    labels = [
        f"({n_grp.labels[k]},{a_grp.labels[x]})"
        for k in range(nn)
        for x in range(na)
    ]
    return GroupTable(mul.reshape(nn * na, nn * na), labels, name=f"{n_grp.name}:{a_grp.name}")


def _permutation_closure(
    gens: Sequence[tuple[int, ...]], degree: int, cap: Optional[int] = None
) -> set[tuple[int, ...]]:
    """The permutations that gens generate, breadth-first; stops once past cap."""
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = _perm_compose(p, g)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
                    if cap is not None and len(seen) > cap:
                        return seen
        frontier = fresh
    return seen


def _permutation_table(
    closed: Iterable[tuple[int, ...]], name: Optional[str] = None
) -> GroupTable:
    """The table of a set of permutations closed under composition, in sorted
    order with cycle-notation labels, named perm<order> unless name is given."""
    perms = sorted(closed)
    m, d = len(perms), len(perms[0])
    table = np.array(perms, dtype=np.int64).reshape(m, d)
    # p*q is p[q], the row table[i, table[j]], found by searchsorted on
    # base-d keys of the rows, most significant digit first.  Every product
    # is a row of the table, so before a key would leave int64 each key is
    # replaced by its rank among the table's keys, which keeps their order.
    keys, comp_keys = np.zeros(m, dtype=np.int64), np.zeros((m, m), dtype=np.int64)
    bound = 1  # every key is below bound
    for k in range(d):
        if bound * d >= 2**63:
            ranks, keys = np.unique(keys, return_inverse=True)
            comp_keys, bound = np.searchsorted(ranks, comp_keys), m
        keys = keys * d + table[:, k]
        comp_keys = comp_keys * d + table[:, table[:, k]]
        bound *= d
    mul = np.searchsorted(keys, comp_keys)
    labels = [_cycle_label(p) for p in perms]
    return GroupTable(mul, labels, name=name or f"perm{m}")


def from_permutations(
    gens: Sequence[Sequence[int]], degree: Optional[int] = None
) -> GroupTable:
    """The permutation group generated by 0-based permutation tuples."""
    if not gens and degree is None:
        raise ValueError("need generators or an explicit degree")
    d = degree if degree is not None else len(gens[0])
    gen_tuples = []
    straight = tuple(range(d))
    for p in gens:
        pt = tuple(int(x) for x in p)
        if tuple(sorted(pt)) != straight:
            raise ValueError(f"{p} is not a permutation of 0..{d-1}")
        gen_tuples.append(pt)
    return _permutation_table(_permutation_closure(gen_tuples, d))


def from_table(
    mul: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> GroupTable:
    return GroupTable(mul, labels, name=name)

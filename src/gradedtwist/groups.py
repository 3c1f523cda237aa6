"""Grading groups.

Two backends share one duck-typed interface:

- FiniteGroup: a multiplication table over dense element indices 0..n-1.
  Construction only validates shape; the group axioms are the business of
  check_group, so candidate tables that fail them can still be probed.
- IntegerWindow: the additive integers, together with a window [lo, hi]
  declaring where graded data over this group may be nonzero. The window
  is bookkeeping attached to a structure's degrees; any two ℤ-backed
  structures are compatible as living over the same group.

The fixed global element order (used for every direct-sum block layout)
is index order for finite groups and ascending integers for windows.

`FiniteGroup.mul` is the public, checked product. It answers two indices
of type int in 0..n-1 with one test and a table lookup, and hands anything
else (an int subclass, a bool, a float, an index out of range) to
`_check_index`, so it accepts and refuses exactly what that check does,
with its message. `mul_unchecked` is the bare lookup, for degrees already
known to be elements: the library's loops over support elements and their
products use it (the axiom, morphism and twist checkers, `shift_module`,
the equalizer and Gamma), while keys and degrees that come from a caller
go through `mul` or `inv`. `inv` reads a table of the inverses found by
one scan of the multiplication table, made on its first call, so that
building a group stays a shape check; an element with no inverse is
refused with the same message as by a scan.
"""

from __future__ import annotations

from itertools import permutations

from .report import Report


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class FiniteGroup:
    is_finite = True
    _inverses = None  # {a: a^-1}, built by the first inv call

    def __init__(self, table, identity: int = 0, names=None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        for row in table:
            if len(row) != n:
                raise ValueError("multiplication table must be square")
            for x in row:
                if not (_is_int(x) and 0 <= x < n):
                    raise ValueError(f"table entry {x!r} is not an integer in 0..{n - 1}")
        if not (_is_int(identity) and 0 <= identity < n):
            raise ValueError(f"identity {identity!r} is not an integer in 0..{n - 1}")
        if names is not None and len(names) != n:
            raise ValueError("need one name per element")
        self.order = n
        self.table = table
        self.identity = identity
        self.names = tuple(names) if names is not None else None

    def mul(self, a: int, b: int) -> int:
        n = self.order
        if type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n:
            return self.table[a][b]
        # anything else (an int subclass, a bool, a float, an index out of
        # range) is accepted or refused by the full check
        self._check_index(a)
        self._check_index(b)
        return self.table[a][b]

    def mul_unchecked(self, a: int, b: int) -> int:
        """a * b for indices already known to be elements: a bare table lookup."""
        return self.table[a][b]

    def inv(self, a: int) -> int:
        if type(a) is not int:
            self._check_index(a)  # an int subclass that passes is looked up by value
        if self._inverses is None:
            t, e, elements = self.table, self.identity, self.elements()
            # y descends, so each x keeps the first inverse a scan finds
            self._inverses = {x: y for y in reversed(elements) for x in elements if t[x][y] == e and t[y][x] == e}
        found = self._inverses.get(a)
        if found is None:
            self._check_index(a)
            raise ValueError(f"element {a} has no inverse")
        return found

    def elements(self):
        return range(self.order)

    def contains(self, g) -> bool:
        return _is_int(g) and 0 <= g < self.order

    def _check_index(self, a):
        if not self.contains(a):
            raise ValueError(f"element index {a} out of range 0..{self.order - 1}")

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and other.table == self.table
            and other.identity == self.identity
        )

    def __hash__(self):
        return hash((self.table, self.identity))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


class IntegerWindow:
    """The integers under addition, with a support window lo <= 0 <= hi."""

    is_finite = False

    def __init__(self, lo: int, hi: int):
        if not (_is_int(lo) and _is_int(hi)):
            raise ValueError(f"window bounds {lo!r}, {hi!r} are not integers")
        if not (lo <= 0 <= hi):
            raise ValueError(f"window [{lo},{hi}] must contain 0")
        self.lo = lo
        self.hi = hi

    identity = 0

    def mul(self, a: int, b: int) -> int:
        return a + b

    mul_unchecked = mul  # a sum needs no check

    def inv(self, a: int) -> int:
        return -a

    def elements(self):
        return range(self.lo, self.hi + 1)

    def contains(self, g) -> bool:
        return _is_int(g) and self.lo <= g <= self.hi

    def __eq__(self, other):
        return isinstance(other, IntegerWindow) and (other.lo, other.hi) == (self.lo, self.hi)

    def __hash__(self):
        return hash(("integer-window", self.lo, self.hi))

    def __repr__(self):
        return f"IntegerWindow({self.lo}, {self.hi})"


def same_group(a, b) -> bool:
    """Compatibility for graded structures: windows over ℤ always match."""
    if isinstance(a, IntegerWindow) and isinstance(b, IntegerWindow):
        return True
    return a == b


def mul(group, a, b):
    return group.mul(a, b)


def check_group(g) -> Report:
    """Exhaustive verification of the group axioms of a finite table.

    The integer backend passes vacuously; its axioms are those of (ℤ, +).
    Reports the first counterexample: ("identity", a), ("inverse", a), or
    ("associativity", (a, b, c)).
    """
    if isinstance(g, IntegerWindow):
        return Report("check_group", True, notes=("integer backend, axioms hold by construction",))
    e = g.identity
    for a in g.elements():
        if g.table[e][a] != a or g.table[a][e] != a:
            return Report("check_group", False, witness=("identity", a))
    for a in g.elements():
        if not any(
            g.table[a][b] == e and g.table[b][a] == e for b in g.elements()
        ):
            return Report("check_group", False, witness=("inverse", a))
    for a in g.elements():
        for b in g.elements():
            for c in g.elements():
                if g.table[g.table[a][b]][c] != g.table[a][g.table[b][c]]:
                    return Report("check_group", False, witness=("associativity", (a, b, c)))
    return Report("check_group", True)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, identity=0)


def is_cyclic_table(g) -> bool:
    """True when g is literally the addition table of ℤ/n.

    Automorphism-kind twisting systems use the element index as an
    exponent, which only makes sense for this table form.
    """
    return isinstance(g, FiniteGroup) and g.table == cyclic_group(g.order).table


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on letters 0..n-1; elements are permutations in lex order.

    The product p*q acts by "apply q first, then p".
    """
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            composite = tuple(p[q[k]] for k in range(n))
            row.append(index[composite])
        table.append(row)
    names = ["".join(str(x) for x in p) for p in perms]
    return FiniteGroup(table, identity=index[tuple(range(n))], names=names)

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedtwist.groups import (
    FiniteGroup,
    IntegerWindow,
    check_group,
    cyclic_group,
    is_cyclic_table,
    mul,
    same_group,
    symmetric_group,
)


def test_z2_table_passes():
    g = FiniteGroup([[0, 1], [1, 0]])
    r = check_group(g)
    assert r.passed


def test_missing_inverse_fails_with_witness():
    # table[1][1] = 1 and table[1][0] = 1: element 1 has no inverse
    g = FiniteGroup([[0, 1], [1, 1]])
    r = check_group(g)
    assert not r.passed
    assert r.witness[0] in ("identity", "inverse")
    assert r.witness[1] == 1


def test_broken_associativity_has_triple_witness():
    # a quasigroup-style table that is unital but not associative
    g = FiniteGroup(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    r = check_group(g)
    assert not r.passed
    assert r.witness[0] == "associativity"
    a, b, c = r.witness[1]
    lhs = g.table[g.table[a][b]][c]
    rhs = g.table[a][g.table[b][c]]
    assert lhs != rhs


def test_s3_passes_exhaustive_216_triples():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert check_group(s3).passed
    # nonabelian witness
    assert any(s3.mul(a, b) != s3.mul(b, a) for a in s3.elements() for b in s3.elements())


def test_cyclic_group_ops():
    z2 = cyclic_group(2)
    assert mul(z2, 1, 1) == 0
    assert z2.inv(1) == 1
    assert z2.identity == 0
    assert is_cyclic_table(z2)
    assert not is_cyclic_table(symmetric_group(3))


def test_s3_matches_table_on_all_pairs():
    s3 = symmetric_group(3)
    for a in s3.elements():
        for b in s3.elements():
            assert s3.mul(a, b) == s3.mul_unchecked(a, b) == s3.table[a][b]
    for a in s3.elements():
        assert s3.mul(a, s3.inv(a)) == s3.identity


def test_integer_window():
    z = IntegerWindow(-2, 3)
    assert z.mul(2, 3) == z.mul_unchecked(2, 3) == 5
    assert z.inv(5) == -5
    assert z.identity == 0
    assert list(z.elements()) == [-2, -1, 0, 1, 2, 3]
    assert z.contains(3) and not z.contains(4)
    assert check_group(z).passed
    with pytest.raises(ValueError):
        IntegerWindow(1, 3)


def test_window_compatibility():
    assert same_group(IntegerWindow(0, 3), IntegerWindow(-1, 5))
    assert not same_group(IntegerWindow(0, 3), cyclic_group(3))
    assert same_group(cyclic_group(3), cyclic_group(3))
    assert not same_group(cyclic_group(3), cyclic_group(4))


def test_index_range_errors():
    z3 = cyclic_group(3)
    # the public product checks both arguments: out of range, bool, float
    for bad in (3, -1, True, False, 1.0):
        for args in ((0, bad), (bad, 0)):
            with pytest.raises(ValueError):
                z3.mul(*args)
            with pytest.raises(ValueError):
                mul(z3, *args)
    with pytest.raises(ValueError):
        z3.inv(-1)
    with pytest.raises(ValueError):
        z3.inv(True)


class Index(int):
    """An int subclass: an element index, but not of type int."""


def _outcome(call):
    try:
        return ("product", call())
    except ValueError as exc:
        return ("refused", str(exc))


# around the range 0..5 of S3: ints (negative, in range, and n = 6), int
# subclasses, bools and floats
indices = st.one_of(
    st.integers(min_value=-3, max_value=8),
    st.integers(min_value=-3, max_value=8).map(Index),
    st.booleans(),
    st.floats(min_value=-3, max_value=8, allow_nan=False),
)


@given(indices, indices)
def test_mul_accepts_and_refuses_what_check_index_does(a, b):
    s3 = symmetric_group(3)

    def checked():
        s3._check_index(a)
        s3._check_index(b)
        return s3.table[a][b]

    assert _outcome(lambda: s3.mul(a, b)) == _outcome(checked)


def test_mul_refusals_name_the_first_bad_index():
    z3 = cyclic_group(3)
    assert z3.mul(Index(2), 2) == z3.mul(2, Index(2)) == 1
    for args, bad in (((True, 0), "True"), ((0, 3), "3"), ((-1, 5), "-1"), ((1.0, 0), "1.0")):
        with pytest.raises(ValueError, match=rf"^element index {bad} out of range 0\.\.2$"):
            z3.mul(*args)


def scanned_inverse(g, a):
    """FiniteGroup.inv as a scan of the table on every call."""
    g._check_index(a)
    for b in g.elements():
        if g.table[a][b] == g.identity and g.table[b][a] == g.identity:
            return b
    raise ValueError(f"element {a} has no inverse")


INVERSE_GROUPS = {
    "Z1": lambda: cyclic_group(1),
    "Z5": lambda: cyclic_group(5),
    "Z8": lambda: cyclic_group(8),
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "Klein": lambda: FiniteGroup([[a ^ b for b in range(4)] for a in range(4)]),
    # 1 and 2 each have two inverses, 1 and 2, and 3 has none
    "not-a-group": lambda: FiniteGroup([[0, 1, 2, 3], [1, 0, 0, 3], [2, 0, 0, 3], [3, 3, 3, 3]]),
}

queries = st.one_of(
    st.integers(min_value=-3, max_value=26),
    st.integers(min_value=-3, max_value=26).map(Index),
    st.booleans(),
    st.floats(min_value=-3, max_value=26, allow_nan=False),
)


@given(st.sampled_from(sorted(INVERSE_GROUPS)), st.lists(queries, min_size=1, max_size=8))
def test_inv_answers_and_refuses_as_a_scan_does(name, drawn):
    g = INVERSE_GROUPS[name]()
    assert g._inverses is None  # building a group builds no table
    for a in [*drawn, *g.elements()]:
        assert _outcome(lambda: g.inv(a)) == _outcome(lambda: scanned_inverse(g, a))


def test_inv_refusals_keep_their_messages():
    g = INVERSE_GROUPS["not-a-group"]()
    assert [g.inv(0), g.inv(1), g.inv(2), g.inv(Index(2))] == [0, 1, 1, 1]
    with pytest.raises(ValueError, match=r"^element 3 has no inverse$"):
        g.inv(3)
    for bad in (4, -1, True, 1.0):
        with pytest.raises(ValueError, match=rf"^element index {bad} out of range 0\.\.3$"):
            g.inv(bad)

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mqg.cyclo import CycloNum, root_of_unity
from mqg.quiver import Path, PathVector, parse_path
from bialgebra_oracle import comultiply, counit
from test_shuffle import thin_splits


def test_path_basics():
    p = Path(4, 6, 3)
    assert p.source == 2 and p.target == 1
    assert str(p) == "p(2,3)"
    with pytest.raises(ValueError):
        Path(4, 0, -1)


def test_parse_path():
    assert parse_path("p(2,3)", 4) == Path(4, 2, 3)
    assert parse_path("g^3", 4) == Path(4, 3, 0)
    assert parse_path("g2", 4) == Path(4, 2, 0)
    assert parse_path("X_1", 4) == Path(4, 0, 1)
    assert parse_path("X4", 4) == Path(4, 3, 1)
    with pytest.raises(ValueError):
        parse_path("nonsense", 4)


def test_comultiply_and_counit():
    p = Path(3, 1, 2)
    splits = comultiply(p)
    assert len(splits) == 3
    for left, right in splits:
        assert left.length + right.length == 2
        assert right.source == 1
        assert left.source == (1 + right.length) % 3
        assert left.target == p.target
    assert counit(Path(3, 2, 0)) == 1
    assert counit(p) == 0


def test_path_vector_algebra():
    one = CycloNum.one()
    z = root_of_unity(4)
    p = Path(4, 0, 1)
    q = Path(4, 1, 1)
    v = PathVector(4, {p: one, q: z})
    w = v + v
    assert w.terms[p] == one * 2
    assert (v - v).is_zero()
    assert v.scale(z).terms[q] == z * z
    with pytest.raises(ValueError):
        PathVector(4, {Path(3, 0, 1): one})


def test_thin_splits_counts():
    p = Path(3, 1, 2)
    for parts in (2, 3, 5):
        out = thin_splits(p, parts)
        assert len(out) == comb(parts, 2)
        for d, segments in out:
            assert sum(d) == 2
            assert len(segments) == parts
            # segments traverse the path: sources advance with each arrow
            k = 0
            for slot, seg in zip(d, segments):
                assert seg.length == slot
                assert seg.source == (1 + k) % 3
                k += slot
    with pytest.raises(ValueError):
        thin_splits(p, 1)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(0, 11), st.integers(0, 5))
def test_comultiply_coassociative(n, i, l):
    def key(*paths):
        return tuple((q.source, q.length) for q in paths)

    p = Path(n, i, l)
    lhs = sorted(
        key(x1, x2, y)
        for x, y in comultiply(p)
        for x1, x2 in comultiply(x)
    )
    rhs = sorted(
        key(x, y1, y2)
        for x, y in comultiply(p)
        for y1, y2 in comultiply(y)
    )
    assert lhs == rhs


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(0, 11), st.integers(0, 5))
def test_comultiply_counit_law(n, i, l):
    p = Path(n, i, l)
    left = [x for x, y in comultiply(p) if counit(y)]
    right = [y for x, y in comultiply(p) if counit(x)]
    assert left == [p] and right == [p]

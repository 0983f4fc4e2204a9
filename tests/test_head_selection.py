"""Head selection: the packed-key sort against a full stable sort."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynavq.codebook import Codebook, init_codebook
from dynavq.quantizer import QuantizeMode, quantize, quantize_chunk, select_head


def stable_head(sims, cap):
    return np.argsort(-sims, axis=1, kind="stable")[:, :cap]


@st.composite
def tied_sims(draw):
    """Similarity matrices full of ties: a few distinct levels, all-zero
    rows, and rows whose boundary value at ``cap`` is repeated just past
    it."""
    codes = draw(st.integers(2, 12))
    rows = draw(st.integers(1, 8))
    cap = draw(st.sampled_from(sorted({1, 2, codes - 1, codes})))
    levels = st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0])
    sims = draw(arrays(np.float64, (rows, codes), elements=levels))
    zero = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    sims[np.array(zero)] = 0.0
    if cap < codes:
        for i in draw(st.sets(st.integers(0, rows - 1))):
            order = np.argsort(-sims[i], kind="stable")
            sims[i, order[cap]] = sims[i, order[cap - 1]]
    return sims, cap


@settings(max_examples=300, deadline=None)
@given(tied_sims())
def test_head_equals_stable_argsort(case):
    sims, cap = case
    assert np.array_equal(select_head(sims, cap), stable_head(sims, cap))


@st.composite
def colliding_sims(draw):
    """Rows whose packed keys collide in their high part: a few levels,
    their np.nextafter neighbours, and values some ulps of the key
    ``2 - s`` away, near multiples of ``2**b``, with +-0.0 and code counts
    whose index width ``b`` crosses a bit boundary."""
    codes = draw(st.sampled_from([2, 3, 64, 65, 256, 257]))
    rows = draw(st.integers(1, 4))
    cap = draw(st.sampled_from(sorted({2, codes - 1, codes, draw(st.integers(2, codes))})))
    step = 1 << (codes - 1).bit_length()
    anchors = [-1.0, -0.5, -1e-9, 0.0, 0.25, 0.5, 1.0 - 2.0**-20, 1.0]
    levels = draw(st.lists(st.sampled_from(anchors), min_size=1, max_size=3, unique=True))
    pool = [0.0, -0.0]
    for level in levels:
        up = down = level
        for _ in range(3):
            up, down = np.nextafter(up, 2.0), np.nextafter(down, -2.0)
            pool += [up, down]
        key = 2.0 - level
        for k in (1, step - 1, step, step + 1, 2 * step):
            # 2 - (2 - s) is exact for keys in [1, 3] (Sterbenz)
            pool += [2.0 - (key + sign * k * np.spacing(key)) for sign in (-1, 1)]
    values = [float(np.clip(v, -1.0, 1.0)) for v in pool]
    sims = draw(arrays(np.float64, (rows, codes), elements=st.sampled_from(values)))
    return sims, cap


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colliding_sims())
def test_head_equals_stable_argsort_near_key_collisions(case):
    sims, cap = case
    assert np.array_equal(select_head(sims, cap), stable_head(sims, cap))


@st.composite
def duplicated_codebooks(draw):
    """A sub-codebook whose codes repeat, and rows that include zeros and
    copies of codes, so whole groups of similarities tie."""
    distinct = draw(st.integers(1, 4))
    codes = draw(st.integers(max(2, distinct), 10))
    dim = draw(st.integers(1, 3))
    small = st.integers(-2, 2).map(float)
    base = draw(arrays(np.float64, (distinct, dim), elements=small))
    picks = draw(arrays(np.int64, codes, elements=st.integers(0, distinct - 1)))
    entries = base[picks]
    rows = draw(arrays(np.float64, (draw(st.integers(1, 6)), dim), elements=small))
    cap = draw(st.sampled_from(sorted({1, 2, codes - 1, codes})))
    return entries, rows, cap


@settings(max_examples=200, deadline=None)
@given(duplicated_codebooks())
def test_quantize_selects_stable_argsort_head(case):
    entries, rows, cap = case
    cb = Codebook(entries[None], np.zeros((1, entries.shape[0]), dtype=np.uint64))
    out = quantize(rows, cb, None, QuantizeMode.fixed_top_n(cap))
    (cache,) = out.cache
    (sims,) = cache.sims
    assert np.array_equal(out.alloc.indices[0], stable_head(sims, cap))


def test_pool_changes_no_output():
    """quantize_chunk keeps the top-n of all codes, so widening its pool
    from n to the whole sub-codebook changes nothing."""
    rng = np.random.default_rng(4)
    sub_cb = init_codebook(1, 32, 4, seed=6).entries[0]
    for row in rng.normal(size=(40, 4)):
        for n in (1, 3, 8):
            a, b = (quantize_chunk(row, sub_cb, n=n, pool=pool) for pool in (n, 32))
            for x, y in zip(a, b):
                assert x.tobytes() == y.tobytes()

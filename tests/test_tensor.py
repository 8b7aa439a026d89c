"""Tensor helpers. A test named for ``embed`` checks the 16x16 matrix of a
2x2 operator lifted onto one slot, read off ``apply_slot``'s images of the
16 basis tensors and compared with an ``np.kron`` oracle written here."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol.tensor import (
    DIM,
    apply_slot,
    basis_index,
    basis_label,
    basis_state,
    dagger,
    norms_squared,
)

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
BS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def kron_embedded(op, slot):
    """Oracle: the 16x16 matrix of a 2x2 operator on one slot, from np.kron."""
    factors = [I2] * 4
    factors[slot] = op
    return np.kron(np.kron(np.kron(factors[0], factors[1]), factors[2]), factors[3])


def embedded(op, slot):
    """The 16x16 matrix(es) of ``apply_slot``: its images of the 16 basis tensors."""
    basis = np.eye(DIM, dtype=complex).reshape(DIM, *([1] * (np.ndim(op) - 2)), 2, 2, 2, 2)
    images = apply_slot(op, basis, slot).reshape(DIM, *np.shape(op)[:-2], DIM)
    return np.moveaxis(images, 0, -1)


@pytest.mark.parametrize("slot", range(4))
def test_embed_identity_any_slot(slot):
    assert np.array_equal(embedded(I2, slot), np.eye(DIM))


def test_embed_flips_one_factor():
    out = apply_slot(X, basis_state(0, 0, 0, 0).reshape(2, 2, 2, 2), 1)
    assert np.array_equal(out.reshape(DIM), basis_state(0, 1, 0, 0))


def test_embed_matches_kron_build():
    built = embedded(BS, 0) @ embedded(BS, 2)
    direct = np.kron(np.kron(np.kron(BS, I2), BS), I2)
    assert np.max(np.abs(built - direct)) < 1e-15


def test_embed_slots_commute():
    rng = np.random.default_rng(3)
    basis = np.eye(DIM, dtype=complex).reshape(DIM, 2, 2, 2, 2)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s, t = rng.choice(4, size=2, replace=False)
        lhs = apply_slot(a, apply_slot(b, basis, t), s)
        rhs = apply_slot(b, apply_slot(a, basis, s), t)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("slot", range(4))
def test_embed_stack_equals_per_matrix_embed(slot):
    ops = np.random.default_rng(slot + 10).normal(size=(3, 2, 2, 2)) @ np.array([1.0, 1j])
    stacked = embedded(ops, slot)
    assert stacked.shape == (3, DIM, DIM)
    for k in range(3):
        assert stacked[k].tobytes() == embedded(ops[k], slot).tobytes()


def test_embed_validation():
    # lifting onto a slot takes 2x2 operators and the slots 0..3 only
    with pytest.raises(ValueError):
        embedded(np.eye(3), 0)
    with pytest.raises(ValueError):
        embedded(I2, 4)
    with pytest.raises(ValueError):
        embedded(I2, -1)


@pytest.mark.parametrize("slot", range(4))
def test_apply_slot_matches_embedded_matrix(slot):
    rng = np.random.default_rng(slot)
    psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    ops = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    # one operator on one state, then a stack of operators broadcast over it
    single = apply_slot(ops[0], psi.reshape(2, 2, 2, 2), slot)
    assert np.max(np.abs(single.reshape(DIM) - kron_embedded(ops[0], slot) @ psi)) < 1e-14
    stacked = apply_slot(ops, psi.reshape(2, 2, 2, 2), slot)
    assert stacked.shape == (5, 2, 2, 2, 2)
    for k in range(5):
        assert np.max(np.abs(stacked[k].reshape(DIM) - kron_embedded(ops[k], slot) @ psi)) < 1e-14


def _paired_oracle(ops, states, slot):
    """kron_embedded(op_k, slot) @ psi_k for each paired operator and state."""
    return np.stack(
        [kron_embedded(op, slot) @ psi.reshape(DIM) for op, psi in zip(ops, states)]
    )


# every leading-shape form a caller uses, and the oracle's reading of it
LEADING_FORMS = ("single-on-single", "single-on-stack", "stack-on-stack", "stack-on-basis")


@pytest.mark.parametrize("form", LEADING_FORMS)
@pytest.mark.parametrize("slot", range(4))
@seed(20149)
@settings(max_examples=10, deadline=None, database=None)
@given(n=st.integers(1, 6), draw=st.integers(0, 2**32 - 1))
def test_apply_slot_matches_kron_oracle(slot, form, n, draw):
    rng = np.random.default_rng(draw)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if form == "single-on-single":
        op, state = normal(2, 2), normal(2, 2, 2, 2)
        want = _paired_oracle([op], [state], slot).reshape(2, 2, 2, 2)
    elif form == "single-on-stack":
        op, state = normal(2, 2), normal(n, 2, 2, 2, 2)
        want = _paired_oracle([op] * n, state, slot).reshape(n, 2, 2, 2, 2)
    elif form == "stack-on-stack":
        op, state = normal(n, 2, 2), normal(n, 2, 2, 2, 2)
        want = _paired_oracle(op, state, slot).reshape(n, 2, 2, 2, 2)
    else:
        # the 16 basis tensors, with an axis for the instances of the stack
        op = normal(n, 2, 2)
        state = np.eye(DIM, dtype=complex).reshape(DIM, 1, 2, 2, 2, 2)
        columns = np.stack([kron_embedded(m, slot) for m in op]).transpose(2, 0, 1)
        want = columns.reshape(DIM, n, 2, 2, 2, 2)
    got = apply_slot(op, state, slot)
    assert got.shape == want.shape
    scale = np.max(np.abs(op)) * np.max(np.abs(state))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_apply_slot_validation():
    psi = np.zeros((2, 2, 2, 2))
    with pytest.raises(ValueError):
        apply_slot(np.eye(3), psi, 0)
    with pytest.raises(ValueError):
        apply_slot(I2, np.zeros(16), 0)
    with pytest.raises(ValueError):
        apply_slot(I2, psi, 4)


def test_dagger_of_a_stack_conjugates_each_matrix():
    assert np.array_equal(dagger(np.stack([BS, 1j * X]))[1], -1j * X)


def test_norms_squared_reduce_like_vdot():
    rng = np.random.default_rng(13)
    vectors = rng.normal(size=(2, 5, DIM)) + 1j * rng.normal(size=(2, 5, DIM))
    norms = norms_squared(vectors)
    assert norms.shape == (2, 5)
    for index in np.ndindex(2, 5):
        assert norms[index] == np.vdot(vectors[index], vectors[index]).real


def test_basis_index_label_roundtrip():
    for p1 in (0, 1):
        for o1 in (0, 1):
            for p2 in (0, 1):
                for o2 in (0, 1):
                    idx = basis_index(p1, o1, p2, o2)
                    label = basis_label(idx)
                    assert label == "ab"[p1] + "VH"[o1] + "ab"[p2] + "VH"[o2]
    assert basis_label(0) == "aVaV"
    assert basis_label(15) == "bHbH"
    with pytest.raises(ValueError):
        basis_index(2, 0, 0, 0)
    with pytest.raises(ValueError):
        basis_label(16)

import numpy as np
import pytest

from pathpol.tensor import (
    DIM,
    JonesVector,
    PolState,
    apply_slot,
    basis_index,
    basis_label,
    basis_state,
    embed,
    is_unitary,
    kron,
    make_pol_state,
)

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
BS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_permutation_structure():
    m = kron(X, X)
    expected = np.zeros((4, 4))
    for i, j in ((0, 3), (1, 2), (2, 1), (3, 0)):
        expected[i, j] = 1.0
    assert np.array_equal(m, expected)


def test_kron_splitter_on_first_factor():
    # |a>|V> -> ((|a>+|b>)/sqrt2)|V>
    av = np.array([1.0, 0.0, 0.0, 0.0])
    out = kron(BS, I2) @ av
    expected = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.max(np.abs(out - expected)) < 1e-15


def test_kron_associativity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b, c = (
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)
        )
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left - right)) < 1e-12


def test_kron_is_bit_identical_to_numpy_kron():
    # each entry is one product, so the outer-product form rounds like np.kron
    rng = np.random.default_rng(11)
    for shape_a, shape_b in (((2, 2), (2, 2)), ((4,), (4,)), ((8, 8), (2, 2)), ((2,), (3, 2))):
        a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
        b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
        assert kron(a, b).tobytes() == np.kron(a, b).tobytes()
        assert kron(a, b).shape == np.kron(a, b).shape


def test_kron_rejects_empty():
    with pytest.raises(ValueError):
        kron()


@pytest.mark.parametrize("slot", range(4))
def test_embed_identity_any_slot(slot):
    assert np.array_equal(embed(I2, slot), np.eye(DIM))


def test_embed_flips_one_factor():
    out = embed(X, 1) @ basis_state(0, 0, 0, 0)
    assert np.array_equal(out, basis_state(0, 1, 0, 0))


def test_embed_matches_kron_build():
    built = embed(BS, 0) @ embed(BS, 2)
    direct = kron(BS, I2, BS, I2)
    assert np.max(np.abs(built - direct)) < 1e-15


def test_embed_slots_commute():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s, t = rng.choice(4, size=2, replace=False)
        lhs = embed(a, s) @ embed(b, t)
        rhs = embed(b, t) @ embed(a, s)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_embed_validation():
    with pytest.raises(ValueError):
        embed(np.eye(3), 0)
    with pytest.raises(ValueError):
        embed(I2, 4)
    with pytest.raises(ValueError):
        embed(I2, -1)


@pytest.mark.parametrize("slot", range(4))
def test_apply_slot_matches_embedded_matrix(slot):
    rng = np.random.default_rng(slot)
    psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    ops = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    # one operator on one state, then a stack of operators broadcast over it
    single = apply_slot(ops[0], psi.reshape(2, 2, 2, 2), slot)
    assert np.max(np.abs(single.reshape(DIM) - embed(ops[0], slot) @ psi)) < 1e-14
    stacked = apply_slot(ops, psi.reshape(2, 2, 2, 2), slot)
    assert stacked.shape == (5, 2, 2, 2, 2)
    for k in range(5):
        assert np.max(np.abs(stacked[k].reshape(DIM) - embed(ops[k], slot) @ psi)) < 1e-14


def test_apply_slot_validation():
    psi = np.zeros((2, 2, 2, 2))
    with pytest.raises(ValueError):
        apply_slot(np.eye(3), psi, 0)
    with pytest.raises(ValueError):
        apply_slot(I2, np.zeros(16), 0)
    with pytest.raises(ValueError):
        apply_slot(I2, psi, 4)


def test_is_unitary_accepts_and_rejects():
    assert is_unitary(BS, 1e-12)
    assert is_unitary(np.diag([1.0, 1j]), 1e-12)
    assert not is_unitary(2.0 * BS, 1e-12)
    assert not is_unitary(np.ones((2, 3)), 1e-12)


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


def test_make_pol_state_values():
    v = make_pol_state(PolState(0.0, 0.0))
    assert np.allclose(v, [1.0, 0.0])
    v = make_pol_state(PolState(np.pi / 4.0, np.pi / 2.0))
    assert np.max(np.abs(v - np.array([1.0, 1j]) / np.sqrt(2.0))) < 1e-15
    v = make_pol_state(PolState(np.pi / 2.0, 0.0, np.pi))
    assert np.max(np.abs(v - np.array([0.0, -1.0]))) < 1e-15


def test_make_pol_state_unit_norm():
    rng = np.random.default_rng(11)
    for _ in range(100):
        theta, chi, phi = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 3)
        v = make_pol_state(PolState(theta, chi, phi))
        assert abs(np.vdot(v, v).real - 1.0) < 1e-12


def test_jones_vector_intensity_and_normalization():
    j = JonesVector(3.0, 4.0j)
    assert j.intensity == 25.0
    n = j.normalized()
    assert abs(n.intensity - 1.0) < 1e-12
    assert np.allclose(n.as_array(), [0.6, 0.8j])
    with pytest.raises(ValueError):
        JonesVector(0.0, 0.0).normalized()

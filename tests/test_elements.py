import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol.elements import (
    PLATES,
    beam_splitter,
    phase_diagonal,
    plate,
    pol_swap,
)
from pathpol.observables import _sigma_core, sigma

SQRT2 = np.sqrt(2.0)


def phase(x, sign):
    """A plate as the 2x2 matrix diag(``phase_diagonal(x, sign)``)."""
    return np.diag(phase_diagonal(x, sign))


def test_beam_splitter_port_actions():
    bs = beam_splitter()
    assert np.max(np.abs(bs @ [1.0, 0.0] - np.array([1.0, 1.0]) / SQRT2)) < 1e-15
    assert np.max(np.abs(bs @ [0.0, 1.0] - np.array([1.0, -1.0]) / SQRT2)) < 1e-15


def test_beam_splitter_is_its_own_inverse():
    bs = beam_splitter()
    assert np.max(np.abs(bs @ bs - np.eye(2))) < 1e-15


def test_pol_swap_exchanges_components():
    assert np.array_equal(pol_swap() @ [1.0, 0.0], [0.0, 1.0])
    assert np.array_equal(pol_swap() @ [0.0, 1.0], [1.0, 0.0])


# one phase factory serves the polarization (V, H) and the path (a, b) plates
def test_pol_phase_half_turn_flips_superposition_sign():
    diagonal = np.array([1.0, 1.0]) / SQRT2  # (|V> + |H>)/sqrt2
    antidiagonal = np.array([1.0, -1.0]) / SQRT2
    assert np.max(np.abs(phase(np.pi, 1) @ diagonal - antidiagonal)) < 1e-15


def test_path_phase_quarter_turn_conjugate_sign():
    out = phase(np.pi / 2.0, -1) @ np.array([0.0, 1.0])  # |b> picks up e^{-i pi/2}
    assert np.max(np.abs(out - np.array([0.0, -1j]))) < 1e-15


def test_phase_stacks_one_matrix_per_entry():
    # one diagonal per entry, each that of the entry alone
    x = np.array([0.0, 0.4, -2.5])
    stack = phase_diagonal(x, -1)
    assert stack.shape == (3, 2)
    for k, xk in enumerate(x):
        assert np.array_equal(stack[k], phase_diagonal(xk, -1))
    assert np.array_equal(stack[:, 1], np.exp(-1j * x))


def test_phase_elements_invert_with_opposite_phase():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = float(rng.uniform(-7.0, 7.0))
        sign = 1 if rng.integers(0, 2) else -1
        assert np.max(np.abs(phase(x, sign) @ phase(-x, sign) - np.eye(2))) < 1e-12


def test_phase_sign_validation():
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match=f"sign must be \\+1 or -1, got {sign}"):
            phase_diagonal(0.3, sign)


phases = st.floats(-2.0 * np.pi, 2.0 * np.pi)


# both senses on every drawn phase
@pytest.mark.parametrize("sign", [1, -1])
@seed(20145)
@settings(max_examples=50, deadline=None, database=None)
@given(x=phases)
def test_all_elements_unitary(sign, x):
    for m in (beam_splitter(), pol_swap(), phase(x, sign)):
        resid = m.conj().T @ m - np.eye(2)
        assert np.max(np.abs(resid)) <= 1e-12


@pytest.mark.parametrize("sense", [1, -1])
@seed(20146)
@settings(max_examples=50, deadline=None, database=None)
@given(x=phases)
def test_sigma_cores_flip_and_project(sense, x):
    # the flip squares to one; its two branches are complementary projectors
    full, plus, minus = (_sigma_core(x, sense, b) for b in ("full", "plus", "minus"))
    eye = np.eye(2)
    assert np.max(np.abs(full @ full - eye)) <= 1e-12
    assert np.max(np.abs(plus @ plus - plus)) <= 1e-12
    assert np.max(np.abs(plus @ minus)) <= 1e-12
    assert np.max(np.abs(plus + minus - eye)) <= 1e-12


@seed(20150)
@settings(max_examples=30, deadline=None, database=None)
@given(x=st.one_of(phases, st.lists(phases, min_size=1, max_size=8).map(np.array)))
def test_plates_and_observables_share_one_table(x):
    # each plate and its flip observable sit on the table's slot and turn
    # the same way, bit for bit
    for (source, dof), (slot, sign) in PLATES.items():
        diagonal, plate_slot = plate(source, dof, x)
        flip, flip_slot = sigma(source, dof, x)
        assert plate_slot == flip_slot == slot
        assert np.array_equal(flip[..., 1, 0], diagonal[..., 1])
        assert np.array_equal(diagonal, phase_diagonal(x, sign))
        assert np.all(diagonal[..., 0] == 1.0)
    assert len({slot for slot, _ in PLATES.values()}) == 4


@pytest.mark.parametrize(
    "source, dof, message",
    [
        (3, "pol", "source must be 1 or 2, got 3"),
        (1, "spin", "dof must be 'path' or 'pol', got 'spin'"),
        (0, "spin", "source must be 1 or 2, got 0"),
        (1, ["pol"], "dof must be 'path' or 'pol', got ['pol']"),
        (2, None, "dof must be 'path' or 'pol', got None"),
        (1, b"pol", "dof must be 'path' or 'pol', got b'pol'"),
    ],
    ids=["source", "dof", "both", "dof-list", "dof-None", "dof-bytes"],
)
def test_plate_refuses_a_bad_source_or_dof_as_sigma_does(source, dof, message):
    # both read one checked lookup: a plate outside the table was a bare
    # KeyError, and a list dof reached the table unhashed, a TypeError
    for factory in (plate, sigma):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            factory(source, dof, 0.1)


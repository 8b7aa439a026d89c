import numpy as np
import pytest

from pathpol.elements import (
    beam_splitter,
    path_phase,
    pol_phase,
    pol_swap,
)
from pathpol.tensor import is_unitary

SQRT2 = np.sqrt(2.0)


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


def test_pol_phase_half_turn_flips_superposition_sign():
    plus = np.array([1.0, 1.0]) / SQRT2
    minus = np.array([1.0, -1.0]) / SQRT2
    assert np.max(np.abs(pol_phase(np.pi, 1) @ plus - minus)) < 1e-15


def test_path_phase_quarter_turn_conjugate_sign():
    out = path_phase(np.pi / 2.0, -1) @ np.array([0.0, 1.0])
    assert np.max(np.abs(out - np.array([0.0, -1j]))) < 1e-15


def test_phase_elements_invert_with_opposite_phase():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = float(rng.uniform(-7.0, 7.0))
        sign = 1 if rng.integers(0, 2) else -1
        assert np.max(np.abs(pol_phase(x, sign) @ pol_phase(-x, sign) - np.eye(2))) < 1e-12
        assert np.max(np.abs(path_phase(x, sign) @ path_phase(-x, sign) - np.eye(2))) < 1e-12


def test_phase_sign_validation():
    with pytest.raises(ValueError):
        pol_phase(0.3, 0)
    with pytest.raises(ValueError):
        path_phase(0.3, 2)


@pytest.mark.parametrize("sign", [1, -1])
def test_all_elements_unitary(sign):
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = float(rng.uniform(-2.0 * np.pi, 2.0 * np.pi))
        for m in (
            beam_splitter(),
            pol_swap(),
            pol_phase(x, sign),
            path_phase(x, sign),
        ):
            assert is_unitary(m, 1e-12)


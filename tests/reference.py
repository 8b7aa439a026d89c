"""The bench written out with ``np.kron``: the independent model the oracle
tests compare ``pathpol`` against.

Every element is an explicit 2x2 matrix, every stage an explicit 4x4 or
16x16 matrix built with ``np.kron`` on the slot order (path1, pol1, path2,
pol2), and the sources enter as the kets A1|bV> and A2|aV>. This module
imports numpy only, never ``pathpol``, so a fault shared by the program's
tensor helpers and its stages cannot cancel out of a comparison. The name
does not match pytest's ``test_*.py`` pattern, so the suite does not collect
it; the tests import it as they import ``digests``.
"""

import numpy as np

I2 = np.eye(2)
BS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
KET_A = np.array([1.0, 0.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
# one beam is (path, pol): the splitter acts on the path, the rotator swaps
# the polarization on path b
BS_BEAM = np.kron(BS, I2)
PR_BEAM = np.kron(np.diag([1.0, 0.0]), I2) + np.kron(np.diag([0.0, 1.0]), SWAP)
KET_AV = np.array([1.0, 0.0, 0.0, 0.0])
KET_BV = np.array([0.0, 0.0, 1.0, 0.0])

# a run's stage fields, in chain order
STAGE_FIELDS = ("source", "post_bs", "input", "phased", "output")


def kron4(a, b, c, d):
    return np.kron(np.kron(np.kron(a, b), c), d)


def kron_embedded(op, slot):
    """The 16x16 matrix of a 2x2 operator on one slot, identity elsewhere."""
    factors = [I2] * 4
    factors[slot] = op
    return kron4(*factors)


def phase(x, sense):
    """A plate: e^{i sense x} on the second basis state."""
    return np.diag([1.0, np.exp(1j * sense * x)])


def flip(x, sense):
    """The flip observable whose phase follows the plate's."""
    return np.array([[0.0, np.exp(-1j * sense * x)], [np.exp(1j * sense * x), 0.0]])


def sym(x, y):
    """Two beam kets symmetrized into one 16-dim two-beam ket."""
    return (np.kron(x, y) + np.kron(y, x)) / np.sqrt(2.0)


def plate_stage(theta1, theta2, phi1, phi2):
    """The four plates as one 16x16 matrix: source 1 advances, source 2 conjugates."""
    return kron4(phase(phi1, 1), phase(theta1, 1), phase(phi2, -1), phase(theta2, -1))


def stages(a1, a2, theta1, theta2, phi1, phi2):
    """The five stages in ``STAGE_FIELDS`` order, as flat 16-vectors."""
    psi, phi = a1 * KET_BV, a2 * KET_AV
    chain = [sym(psi, phi)]
    psi, phi = BS_BEAM @ psi, BS_BEAM @ phi
    chain.append(sym(psi, phi))
    psi, phi = PR_BEAM @ psi, PR_BEAM @ phi
    chain.append(sym(psi, phi))
    phased = plate_stage(theta1, theta2, phi1, phi2) @ chain[-1]
    return [*chain, phased, kron4(BS, I2, BS, I2) @ phased]


def sweep_row(a1, a2, theta1, theta2, phi1, phi2):
    """C_numeric and p45 of one setting, from the documented input state
    (A1 A2 / sqrt2)(|aVaV> - |bHbH>) and explicit 16x16 matrices."""
    psi = np.zeros(16, dtype=complex)
    psi[0], psi[15] = 1.0, -1.0  # |aVaV>, |bHbH>
    psi *= a1 * a2 / np.sqrt(2.0)
    sigmas = kron4(flip(phi1, 1), flip(theta1, 1), flip(phi2, -1), flip(theta2, -1))
    c_numeric = np.vdot(psi, sigmas @ psi).real / (abs(a1) ** 2 + abs(a2) ** 2) ** 2

    out = kron4(BS, I2, BS, I2) @ plate_stage(theta1, theta2, phi1, phi2) @ psi
    port_a, plus = np.outer(KET_A, KET_A), np.outer(KET_PLUS, KET_PLUS)
    both_a = kron4(port_a, I2, port_a, I2)
    both_45 = kron4(port_a, plus, port_a, plus)
    # squared ++ coefficient of sqrt2 * (unit aa polarization block)
    p45 = 2.0 * np.vdot(out, both_45 @ out).real / np.vdot(out, both_a @ out).real
    return c_numeric, p45

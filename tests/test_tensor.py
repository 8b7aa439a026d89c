"""Tensor helpers. A test named for ``embed`` checks the 16x16 matrix of a
2x2 operator lifted onto one slot, read off ``apply_slot``'s images of the
16 basis tensors and compared with an ``np.kron`` oracle written here."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol.bench import PhaseSetting, SourceSpec
from pathpol.contextuality import pair, scan_max
from pathpol.correlations import g2_generalized
from pathpol.detector import autocorrelation_demo
from pathpol.elements import phase_diagonal, plate
from pathpol.observables import sigma
from pathpol.scenario import Scenario
from pathpol.tensor import (
    DIM,
    apply_slot,
    basis_index,
    basis_label,
    basis_state,
    dagger,
    matmul2,
    norms_squared,
    shown,
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
        # bit for bit: re^2 + im^2 of each entry, summed first to last
        total = 0.0
        for z in vectors[index].tolist():
            total += z.real * z.real + z.imag * z.imag
        assert norms[index] == total
        # and within a few ulps of the BLAS dot product
        vdot = np.vdot(vectors[index], vectors[index]).real
        assert abs(norms[index] - vdot) <= 4 * np.spacing(vdot)


def test_matmul2_is_the_written_out_two_term_sum():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    b = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    got = matmul2(a, b)
    for i, k in np.ndindex(2, 2):
        want = a[:, i, 0] * b[:, 0, k] + a[:, i, 1] * b[:, 1, k]
        assert np.array_equal(got[:, i, k], want)
    assert np.max(np.abs(got - a @ b)) <= 1e-14
    # leading axes broadcast, and a block may have one row or one column
    assert matmul2(a[0], b).shape == (5, 2, 2)
    assert np.array_equal(matmul2(a[:, :1], b), got[:, :1])
    assert np.array_equal(matmul2(a, b[:, :, 1:]), got[:, :, 1:])
    with pytest.raises(ValueError):
        matmul2(np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        matmul2(I2, np.ones((3, 2)))


# the array products that go to BLAS or LAPACK, and so round as the kernel
# numpy's BLAS picks for the host does
_BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot"}
# fit_sinusoid's least squares printed the same bytes on the five OpenBLAS
# kernels tried (Haswell, Prescott, Sandybridge, Zen, SkylakeX)
_BLAS_ALLOWED = ["correlations.fit_sinusoid: np.linalg.lstsq"]


def blas_calls(tree, module):
    """``module.function: expression`` of each matrix product in ``tree``: an
    ``@``, a call of a BLAS-backed numpy function or of ``np.linalg``, and
    an ``np.einsum`` with ``optimize``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        text = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            text = "@"
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            parts = name.split(".")
            if (
                parts[-1] in _BLAS_NAMES
                or "linalg" in parts
                or (parts[-1] == "einsum" and any(k.arg == "optimize" for k in node.keywords))
            ):
                text = name
        if text is not None:
            found.append(f"{where}: {text}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return sorted(found)


def test_blas_guard_sees_every_kind_of_product():
    source = (
        "def f(a, b):\n"
        "    a @ b\n"
        "    a @= b\n"
        "    np.dot(a, b); a.dot(b); np.vdot(a, b); np.matmul(a, b)\n"
        "    np.inner(a, b); np.tensordot(a, b); np.linalg.solve(a, b)\n"
        "    np.einsum('ij,jk', a, b, optimize=True); np.einsum('ij,jk', a, b)\n"
        "    a * b\n"
    )
    found = blas_calls(ast.parse(source), "m")
    assert len(found) == 10 and all(entry.startswith("m.f: ") for entry in found)
    assert "m.f: np.einsum" in found and found.count("m.f: np.einsum") == 1


def test_no_blas_product_outside_the_allowlist():
    # a product that goes to BLAS rounds as the host's kernel does; every
    # 2x2 product is tensor.matmul2, so no printed byte depends on the kernel
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "pathpol").glob("*.py")):
        found += blas_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == _BLAS_ALLOWED


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


def test_shown_names_an_int_past_the_float_range_by_its_bit_length():
    assert shown(10**5000) == "a 16610-bit integer"
    assert shown(-(10**5000)) == "a negative 16610-bit integer"
    assert shown(2**1024) == "a 1025-bit integer"
    # within the float range an int keeps its digits, and every value its repr
    assert shown(2**1023) == repr(2**1023)
    assert (shown(3), shown(0.5), shown("x"), shown(None)) == ("3", "0.5", "'x'", "None")
    assert shown([10**5000]) == "a list holding an integer too long to print"


_PS = PhaseSetting(0.1, 0.0, 0.0, 0.0)
_SOURCES = Scenario().sources()
_STATE = basis_state(0, 0, 0, 0).reshape(2, 2, 2, 2)
_ENTRY_POINTS = {
    "autocorrelation_demo-samples": (
        "samples",
        lambda h: autocorrelation_demo(*_SOURCES, _PS, 4000.0, h),
    ),
    "scan_max-resolution": ("resolution", lambda h: scan_max(1, h)),
    "scan_max-case": ("case", lambda h: scan_max(h, 64)),
    "pair-case": ("case", lambda h: pair(h, 0.1, 0.2)),
    "g2_generalized-k": ("k", lambda h: g2_generalized(h, 0, 0, 0, _PS, *_SOURCES)),
    "basis_label-index": ("index", basis_label),
    "basis_index-digit": ("basis digits", lambda h: basis_index(1, h, 0, 0)),
    "apply_slot-slot": ("slot", lambda h: apply_slot(I2, _STATE, h)),
    "SourceSpec-amplitude": ("source amplitude", lambda h: SourceSpec(h, 1.0)),
    "SourceSpec-omega": ("source frequency", lambda h: SourceSpec(1.0, h)),
    "PhaseSetting-theta1": ("theta1", lambda h: PhaseSetting(h, 0.0, 0.0, 0.0)),
    "phase_diagonal-sign": ("sign", lambda h: phase_diagonal(0.1, h)),
    "sigma-source": ("source", lambda h: sigma(h, "pol", 0.1)),
    "plate-source": ("source", lambda h: plate(h, "pol", 0.1)),
    "plate-dof": ("dof", lambda h: plate(1, h, 0.1)),
    "sigma-branch": ("branch", lambda h: sigma(1, "pol", 0.1, h)),
}


@pytest.mark.parametrize("huge", [10**5000, -(10**5000)], ids=["positive", "negative"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_refuses_a_huge_int_by_name(entry, huge):
    # str() of an int of more than 4300 digits raises its own ValueError,
    # which names no field (test_detector.py covers the window)
    field, call = _ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{field} must .*, got {shown(huge)}$"):
        call(huge)


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bool_by_name(entry, flag):
    # True == 1 and False == 0, so an index or a choice would take a bool for
    # one of its values; an amplitude or a phase refuses it as a non-number
    field, call = _ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{field} must .*, got {shown(flag)}$"):
        call(flag)


# every index, count and numeric choice, and every named choice
_INT_ENTRIES = (
    "apply_slot-slot",
    "basis_label-index",
    "basis_index-digit",
    "sigma-source",
    "plate-source",
    "phase_diagonal-sign",
    "pair-case",
    "scan_max-case",
    "g2_generalized-k",
    "scan_max-resolution",
    "autocorrelation_demo-samples",
)
_STR_ENTRIES = ("plate-dof", "sigma-branch")


@pytest.mark.parametrize(
    "value", [1.0, 1.5, np.float64(2.0), "3", "1"], ids=["1.0", "1.5", "np.float64", "'3'", "'1'"]
)
@pytest.mark.parametrize("entry", _INT_ENTRIES)
def test_every_index_refuses_a_float_or_a_string_by_name(entry, value):
    # 1.0 passed the range checks, and then failed as a tuple index or gave
    # the float basis index 8.0, and 1.0 equals source 1, sign +1, case 1 and
    # shift 1; a string failed in a comparison with an int
    field, call = _ENTRY_POINTS[entry]
    refusal = f"^{re.escape(field)} must .*, got {re.escape(shown(value))}$"
    with pytest.raises(ValueError, match=refusal):
        call(value)


@pytest.mark.parametrize(
    "value",
    [None, 1, b"pol", ["full"], np.array("full")],
    ids=["None", "1", "bytes", "list", "0-d-array"],
)
@pytest.mark.parametrize("entry", _STR_ENTRIES)
def test_every_named_choice_refuses_a_non_string_by_name(entry, value):
    # a 0-d array of 'full' equals 'full', and passed as a branch
    field, call = _ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{field} must .*, got {re.escape(shown(value))}$"):
        call(value)


@pytest.mark.parametrize("integer", [np.int64, np.int8, np.uint16])
def test_every_index_takes_a_numpy_integer(integer):
    assert np.array_equal(apply_slot(I2, _STATE, integer(3)), apply_slot(I2, _STATE, 3))
    assert basis_label(integer(11)) == basis_label(11)
    assert basis_index(integer(1), 0, integer(1), 1) == 11
    assert np.array_equal(basis_state(integer(1), 0, 0, 0), basis_state(1, 0, 0, 0))
    # and so does a numeric choice
    assert pair(integer(2), 0.1, 0.2) == pair(2, 0.1, 0.2)
    assert np.array_equal(plate(integer(2), "pol", 0.1)[0], plate(2, "pol", 0.1)[0])

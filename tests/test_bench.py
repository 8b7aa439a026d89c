import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol import bench, elements
from pathpol.bench import (
    INTENSITY_RANGE,
    BenchRun,
    PhaseSetting,
    SourceSpec,
    phase_stage,
    run,
    symmetrize,
)
from pathpol.correlations import correlation_report
from pathpol.detector import detect
from pathpol.observables import transfer_check
from pathpol.tensor import apply_factors, basis_state, norms_squared, shown
from reference import STAGE_FIELDS

SQRT2 = np.sqrt(2.0)

S1 = SourceSpec(1.0, 1.0)
S2 = SourceSpec(1.0, 1.3)


def random_sources(rng):
    m1, m2 = rng.uniform(0.5, 1.5, 2)
    a1, a2 = rng.uniform(-np.pi, np.pi, 2)
    return (
        SourceSpec(m1 * np.exp(1j * a1), 1.0),
        SourceSpec(m2 * np.exp(1j * a2), 1.3),
    )


def random_phases(rng):
    return PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))


def literal_prestate(s1, s2, ps):
    # two occupied components with relative phase carried by the b-branch
    n = s1.amplitude * s2.amplitude / SQRT2
    rel = np.exp(1j * (ps.theta1 + ps.phi1 - ps.theta2 - ps.phi2))
    return n * (basis_state(0, 0, 0, 0) - rel * basis_state(1, 1, 1, 1))


def test_build_sources_enter_on_opposite_ports():
    # source 1 is A1|bV>, source 2 is A2|aV>: the source stage holds only
    # (A1 A2 / sqrt2)(|bVaV> + |aVbV>)
    s1, s2 = SourceSpec(2.0j, 1.0), SourceSpec(3.0, 1.3)
    source = run(s1, s2, PhaseSetting(0, 0, 0, 0)).source
    expected = 6.0j / SQRT2 * (basis_state(1, 0, 0, 0) + basis_state(0, 0, 1, 0))
    assert np.array_equal(source.reshape(16), expected)


def test_source_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        SourceSpec(1.0, np.inf)


@pytest.mark.parametrize(
    "amplitude",
    [float("nan"), float("inf"), complex(float("nan"), 0.0), 1e-200, 1e-76, 1e76, 1e200],
    ids=["nan", "inf", "complex-nan", "intensity-underflow", "below-range", "above-range",
         "intensity-overflow"],
)
def test_source_spec_rejects_bad_amplitude(amplitude):
    # non-finite amplitudes and intensities outside INTENSITY_RANGE never get in
    with pytest.raises(ValueError, match="amplitude"):
        SourceSpec(amplitude, 1.0)


def test_a_batch_entry_is_accepted_exactly_when_its_amplitude_alone_is():
    # |A| just inside and just outside both ends of the range, at random
    # angles: a batch took np.abs, which rounds apart from a complex's abs
    # (the hypot of its parts) on about a third of draws, and so refused
    # some amplitudes that a single source accepted
    rng = np.random.default_rng(20300)
    accepted = {"single": [], "batch": []}
    for bound in np.sqrt(INTENSITY_RANGE):
        mags = bound * (1.0 + np.finfo(float).eps * rng.integers(-4, 5, 1000))
        for a in mags * np.exp(1j * rng.uniform(-np.pi, np.pi, 1000)):
            for kind, value in (("single", complex(a)), ("batch", np.array([a]))):
                try:
                    SourceSpec(value, 1.0)
                except ValueError:
                    accepted[kind].append(False)
                else:
                    accepted[kind].append(True)
    assert 0 < sum(accepted["single"]) < len(accepted["single"])
    assert accepted["batch"] == accepted["single"]


@pytest.mark.parametrize(
    "bad", [1j, np.complex128(0.5), np.array([0.1, 1j]), True, np.bool_(False), [True], "0.1"]
)
def test_phase_setting_refuses_a_non_real_phase_by_name(bad):
    # a complex phase once passed and gave |C| > 1, an array dropped its
    # imaginary part, and a bool stood for a phase
    for k, name in enumerate(("theta1", "theta2", "phi1", "phi2")):
        fields = [0.25] * 4
        fields[k] = bad
        with pytest.raises(ValueError, match=f"^{name} must be a float or a 1-d array of floats"):
            PhaseSetting(*fields)


@pytest.mark.parametrize("bad", [True, np.bool_(True), "1", b"1", None, [1.0, [2.0]], [[1.0]]])
def test_source_spec_refuses_a_non_number_by_name(bad):
    with pytest.raises(ValueError, match="^source amplitude must be a number or a 1-d array"):
        SourceSpec(bad, 1.0)
    refusal = f"source frequency must be a finite real number, got {shown(bad)}"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        SourceSpec(1.0, bad)


def test_integer_fields_become_floats():
    ps = PhaseSetting(0, np.int64(1), 2, 3)
    assert all(type(getattr(ps, name)) is float for name in ("theta1", "theta2", "phi1", "phi2"))
    assert ps == PhaseSetting(0.0, 1.0, 2.0, 3.0)
    assert type(PhaseSetting(np.arange(3), 0, 0, 0).theta1[0]) is np.float64
    source = SourceSpec(2, 1)
    assert (type(source.amplitude), type(source.omega)) == (float, float)
    assert source.intensity == 4.0
    # a batch of sources holds a read-only complex array; the frequency is one float
    batch = SourceSpec([1, 2j], 1.0)
    assert batch.amplitude.dtype == complex and not batch.amplitude.flags.writeable
    assert np.array_equal(batch.intensity, [1.0, 4.0])
    refusal = "source frequency must be a finite real number, got [1.0, 1.3]"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        SourceSpec(1.0, [1.0, 1.3])


def test_phase_setting_delta():
    ps = PhaseSetting(0.5, 0.1, 0.25, -0.2)
    assert abs(ps.delta - 0.85) < 1e-15
    with pytest.raises(ValueError):
        PhaseSetting(np.nan, 0, 0, 0)
    # equal-length arrays make a sweep, one setting per entry
    sweep = PhaseSetting(np.array([0.5, 1.0]), 0.1, np.array([0.25, 0.0]), -0.2)
    assert np.array_equal(sweep.delta, [0.5 + 0.25 - 0.1 + 0.2, 1.0 + 0.0 - 0.1 + 0.2])
    with pytest.raises(ValueError, match="phi1 must be finite"):
        PhaseSetting(0.0, 0.0, np.array([0.0, np.inf]), 0.0)
    with pytest.raises(ValueError, match="equal lengths"):
        PhaseSetting(np.zeros(2), np.zeros(3), 0.0, 0.0)
    with pytest.raises(ValueError, match="theta2 must be a float or a 1-d array"):
        PhaseSetting(0.0, np.zeros((2, 2)), 0.0, 0.0)
    # a scalar refusal names its field, for a Python float and an np.float64
    # alike; the other fields are floats or ints (an int holds no NaN or inf)
    names = ("theta1", "theta2", "phi1", "phi2")
    for k, name in enumerate(names):
        for bad in (float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float64("inf")):
            for others in (0.25, 1):
                fields = [others] * 4
                fields[k] = bad
                with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                    PhaseSetting(*fields)
    assert PhaseSetting(1, 2, 3, 4).delta == 1 + 3 - 2 - 4
    assert PhaseSetting(np.float64(0.5), 0.25, 1, 0.0).delta == 1.25
    # the first bad field in field order is the one named, scalar or array
    with pytest.raises(ValueError, match="^theta2 must be finite$"):
        PhaseSetting(0.0, np.float64("nan"), float("inf"), 0)
    with pytest.raises(ValueError, match="^theta1 must be finite$"):
        PhaseSetting(np.array([0.0, np.nan]), float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError, match="^theta1 must be finite$"):
        PhaseSetting(float("inf"), np.array([0.0, np.nan]), 0.0, 0.0)


@pytest.mark.parametrize(
    "phases",
    [(1e308, 0.0, 1e308, 0.0), (0.0, 1e308, -1e308, 0.0), (1e308, -1e308, 0.0, 0.0)],
)
def test_phase_setting_rejects_a_delta_that_overflows(phases):
    # each phase is finite, their combination is not: refused by name, quietly
    with pytest.raises(ValueError, match=r"delta = theta1 \+ phi1 - theta2 - phi2 must be finite"):
        PhaseSetting(*phases)
    sweep = [np.array([0.0, p]) for p in phases]
    with pytest.raises(ValueError, match="delta .* must be finite"):
        PhaseSetting(*sweep)


def test_phase_setting_equality_and_hash_cover_sweeps():
    sweep = PhaseSetting(np.array([0.1, 0.2]), 0.0, [0.3, 0.4], 0.0)
    same = PhaseSetting([0.1, 0.2], -0.0, np.array([0.3, 0.4]), 0)
    assert sweep == same and hash(sweep) == hash(same)
    assert len({sweep, same}) == 1
    assert sweep != PhaseSetting(np.array([0.1, 0.25]), 0.0, [0.3, 0.4], 0.0)
    assert sweep != PhaseSetting(np.array([0.1]), 0.0, [0.3], 0.0)
    # a float never equals a 1-entry array, whatever its value
    assert PhaseSetting(0.5, 0.0, 0.0, 0.0) != PhaseSetting([0.5], 0.0, 0.0, 0.0)
    # single settings compare and hash as plain numbers do
    assert PhaseSetting(0, 0, 0, 0) == PhaseSetting(0.0, -0.0, 0.0, 0.0)
    assert hash(PhaseSetting(0, 0, 0, 0)) == hash(PhaseSetting(0.0, -0.0, 0.0, 0.0))
    assert PhaseSetting(0.1, 0.2, 0.3, 0.4) != PhaseSetting(0.1, 0.2, 0.3, 0.5)
    assert PhaseSetting(0.1, 0.2, 0.3, 0.4) != (0.1, 0.2, 0.3, 0.4)


def test_plates_pair_each_plate_with_the_phase_that_drives_it():
    # phi drives the path plate and theta the pol plate, in elements.PLATES order
    ps = PhaseSetting(theta1=0.1, theta2=0.2, phi1=0.3, phi2=np.array([0.4, 0.5]))
    plates = ps.plates()
    assert [plate[:2] for plate in plates] == list(elements.PLATES)
    (_, _, p1), (_, _, t1), (_, _, p2), (_, _, t2) = plates
    assert (p1, t1, t2) == (0.3, 0.1, 0.2) and p2 is ps.phi2
    assert ps.shape == (2,) and PhaseSetting(0.1, 0.2, 0.3, 0.4).shape == ()


def test_reports_refuse_a_sweep():
    # a 16-entry sweep would otherwise pair entry k with shift term k
    sweep = run(S1, S2, PhaseSetting(np.linspace(0.0, 3.0, 16), 0.0, 0.0, 0.0))
    for report in (
        lambda: correlation_report(sweep),
        lambda: transfer_check(sweep),
        lambda: detect(sweep.output),
    ):
        with pytest.raises(ValueError, match="single"):
            report()


def test_symmetrize_matches_hand_expansion():
    # each beam after splitter and rotator, as (path, pol) tensors by hand:
    # source 1 (|aV> - |bH>)/sqrt2, source 2 (|aV> + |bH>)/sqrt2
    psi = np.array([[1.0, 0.0], [0.0, -1.0]]) / SQRT2
    phi = np.array([[1.0, 0.0], [0.0, 1.0]]) / SQRT2
    state = symmetrize(psi, phi).reshape(16)
    expected = (basis_state(0, 0, 0, 0) - basis_state(1, 1, 1, 1)) / SQRT2
    assert np.max(np.abs(state - expected)) < 1e-12


def test_symmetrize_of_identical_inputs():
    v = np.array([0.5, 0.5j, -0.5, 0.5])
    out = symmetrize(v.reshape(2, 2), v.reshape(2, 2)).reshape(16)
    assert np.max(np.abs(out - SQRT2 * np.kron(v, v))) < 1e-15


def test_symmetrize_unit_norm_for_orthonormal_inputs():
    e1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = symmetrize(e1, e2).reshape(16)
    assert abs(np.vdot(out, out).real - 1.0) < 1e-15


def test_symmetrize_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        symmetrize(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        symmetrize(np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        symmetrize(np.ones((2, 2)), np.ones((2, 3)))


def phased(s1, s2, ps):
    """The run's state after the plates, as a flat 16-vector."""
    return run(s1, s2, ps).phased.reshape(16)


def test_bench_state_is_immutable_and_checked():
    # a run is frozen, and every stage it holds is a read-only state tensor
    bench_run = run(S1, S2, PhaseSetting(np.array([0.1, 0.2, 0.3]), 0.0, 0.0, 0.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        bench_run.input = bench_run.output
    # compared and hashed by identity, never field by field through its arrays
    assert bench_run == bench_run and len({bench_run, bench_run}) == 1
    shapes = {"source": (2, 2, 2, 2), "post_bs": (2, 2, 2, 2), "input": (2, 2, 2, 2),
              "phased": (3, 2, 2, 2, 2), "output": (3, 2, 2, 2, 2)}
    for name, shape in shapes.items():
        stage = getattr(bench_run, name)
        assert stage.shape == shape and stage.dtype == complex
        with pytest.raises(ValueError):
            stage[..., 0, 0, 0, 0] = 1.0


def test_symmetrized_input_two_components():
    state = run(S1, S2, PhaseSetting(0.7, 0.0, 0.0, 0.0)).input.reshape(16)
    expected = (basis_state(0, 0, 0, 0) - basis_state(1, 1, 1, 1)) / SQRT2
    assert np.max(np.abs(state - expected)) < 1e-12


def test_evolve_prestate_zero_phases():
    pre = phased(S1, S2, PhaseSetting(0, 0, 0, 0))
    assert np.max(np.abs(pre - literal_prestate(S1, S2, PhaseSetting(0, 0, 0, 0)))) < 1e-12


def test_evolve_prestate_single_phase_rides_on_b_branch():
    ps = PhaseSetting(0.6, 0.0, 0.0, 0.0)
    pre = phased(S1, S2, ps)
    assert abs(pre[0] - 1.0 / SQRT2) < 1e-12
    assert abs(pre[15] - (-np.exp(0.6j) / SQRT2)) < 1e-12


def test_evolve_prestate_golden_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s1, s2 = random_sources(rng)
        ps = random_phases(rng)
        pre = phased(s1, s2, ps)
        assert np.max(np.abs(pre - literal_prestate(s1, s2, ps))) < 1e-12
        occupied = np.abs(pre) > 1e-12
        assert occupied.sum() == 2 and occupied[0] and occupied[15]
        # equal magnitudes on the two components
        assert abs(abs(pre[0]) - abs(pre[15])) < 1e-12


def test_evolve_prestate_depends_only_on_phase_sums():
    rng = np.random.default_rng(29)
    for _ in range(50):
        t1, t2, p1, p2, shift = rng.uniform(-3.0, 3.0, 5)
        a = phased(S1, S2, PhaseSetting(t1, t2, p1, p2))
        b = phased(S1, S2, PhaseSetting(t1 + shift, t2, p1 - shift, p2))
        assert np.max(np.abs(a - b)) < 1e-12


def test_phase_diagonal_is_diagonal_unitary():
    # the phase stage's 16x16 matrix, column k its image of basis tensor k
    basis = np.eye(16, dtype=complex).reshape(16, 2, 2, 2, 2)
    d = phase_stage(basis, PhaseSetting(0.3, -0.7, 1.1, 0.4)).reshape(16, 16).T
    assert np.max(np.abs(d - np.diag(np.diag(d)))) == 0.0
    assert np.max(np.abs(np.abs(np.diag(d)) - 1.0)) < 1e-12
    # the stage reads each plate as the diagonal elements.plate gives: the
    # table's phase_diagonal, on the table's slot
    x = np.array([0.3, -0.7, 2.9])
    for (source, dof), (slot, sign) in elements.PLATES.items():
        diagonal, plate_slot = elements.plate(source, dof, x)
        assert plate_slot == slot
        assert np.array_equal(diagonal, elements.phase_diagonal(x, sign))


def plate_matrix(x, sign):
    """diag(``phase_diagonal(x, sign)``) with exact zeros off the diagonal,
    or its ``x.shape + (2, 2)`` stack."""
    return np.where(np.eye(2, dtype=bool), elements.phase_diagonal(x, sign)[..., None, :], 0.0)


def plate_factors(ps):
    """The four plates as full matrices on their slots, in ``elements.PLATES``
    order."""
    return [
        (plate_matrix(x, elements.PLATES[source, dof][1]), elements.PLATES[source, dof][0])
        for source, dof, x in ps.plates()
    ]


def plate_route(state, ps):
    """The phase stage as ``apply_factors`` of its four plates as matrices,
    the route ``phase_stage`` replaced, kept as its oracle."""
    return apply_factors(state, plate_factors(ps))


def random_tensor(rng, lead=()):
    return rng.normal(size=lead + (2, 2, 2, 2)) + 1j * rng.normal(size=lead + (2, 2, 2, 2))


_ANGLE = st.floats(-2.0 * np.pi, 2.0 * np.pi)


@seed(20180)
@settings(max_examples=40)
@given(
    rows=st.lists(st.tuples(_ANGLE, _ANGLE, _ANGLE, _ANGLE), min_size=1, max_size=5),
    sweep=st.booleans(),
    lead=st.sampled_from([(), (3, 1), "per-setting"]),
    draw=st.integers(0, 2**32 - 1),
)
def test_phase_stage_equals_the_plate_factors(rows, sweep, lead, draw):
    # single and stacked states, at one setting or a sweep; a "per-setting"
    # stack holds one state per entry of the setting
    ps = PhaseSetting(*np.transpose(rows)) if sweep else PhaseSetting(*rows[0])
    if lead == "per-setting":
        lead = (len(rows),) if sweep else (1,)
    state = random_tensor(np.random.default_rng(draw), lead)
    got, want = phase_stage(state, ps), plate_route(state, ps)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_phase_stage_reads_both_diagonal_entries(monkeypatch):
    # a plate whose first diagonal entry is not 1 still acts: the stage scales
    # both halves of its slot by what elements.plate returns, assuming nothing
    state = random_tensor(np.random.default_rng(18))
    ps = PhaseSetting(0.3, -0.7, np.array([1.1, -0.2]), 0.4)
    before = phase_stage(state, ps)
    original = elements.plate

    def tilted(source, dof, x):
        diagonal, slot = original(source, dof, x)
        if (source, dof) == (2, "path"):
            diagonal = diagonal.copy()
            diagonal[..., 0] = np.exp(0.5j)
        return diagonal, slot

    monkeypatch.setattr(elements, "plate", tilted)
    after = phase_stage(state, ps)
    # the matrix route with the same entry in the path-2 plate's matrix
    factors = plate_factors(ps)
    factors[2][0][..., 0, 0] = np.exp(0.5j)
    assert np.array_equal(after, apply_factors(state, factors))
    # slot path 2: its a half moves, its b half does not
    assert np.all(after[:, :, :, 0] != before[:, :, :, 0])
    assert np.array_equal(after[:, :, :, 1], before[:, :, :, 1])
    assert np.allclose(after[:, :, :, 0], np.exp(0.5j) * before[:, :, :, 0], rtol=1e-15, atol=0)


def test_apply_bs_prime_zero_phase_expansion():
    post = run(S1, S2, PhaseSetting(0, 0, 0, 0)).output.reshape(16)
    expected = (
        0.5
        * (
            basis_state(0, 0, 0, 0)
            + basis_state(0, 0, 1, 0)
            + basis_state(1, 0, 0, 0)
            + basis_state(1, 0, 1, 0)
        )
        - 0.5
        * (
            basis_state(0, 1, 0, 1)
            - basis_state(0, 1, 1, 1)
            - basis_state(1, 1, 0, 1)
            + basis_state(1, 1, 1, 1)
        )
    ) / SQRT2
    assert np.max(np.abs(post - expected)) < 1e-12


def test_norm_preserved_at_every_stage():
    rng = np.random.default_rng(31)
    for _ in range(100):
        s1, s2 = random_sources(rng)
        ps = random_phases(rng)
        target = (abs(s1.amplitude) * abs(s2.amplitude)) ** 2
        bench_run = run(s1, s2, ps)
        for name in STAGE_FIELDS:
            state = getattr(bench_run, name).reshape(16)
            assert abs(norms_squared(state) - target) < 1e-12


def composed_stages(s1, s2, ps):
    """The five stages composed here element by element, one beam at a time:
    source 1 on bV and source 2 on aV, the splitter and the rotator on each
    beam, each pair symmetrized, then the plates and the second splitter."""
    beam1, beam2 = np.zeros((2, 2, 2), dtype=complex)
    beam1[1, 0], beam2[0, 0] = s1.amplitude, s2.amplitude
    pairs = [(beam1, beam2)]
    for element in (bench._bs_beam, bench._pr_beam):
        pairs.append(tuple(element(beam) for beam in pairs[-1]))
    stages = [symmetrize(*pair) for pair in pairs]
    stages.append(phase_stage(stages[-1], ps))
    return [*stages, bench.bs_prime_stage(stages[-1])]


def test_run_holds_the_traced_stages_in_order():
    # the run's stage fields are the chain composed in order, bit for bit;
    # its other fields are the arguments it was made from
    ps = PhaseSetting(0.4, 0.1, -0.2, 0.9)
    s1 = SourceSpec(0.7 - 1.1j, 1.0)
    bench_run = run(s1, S2, ps)
    fields = [field.name for field in dataclasses.fields(BenchRun)]
    assert fields == ["s1", "s2", "ps", *STAGE_FIELDS]
    assert (bench_run.s1, bench_run.s2, bench_run.ps) == (s1, S2, ps)
    for name, want in zip(STAGE_FIELDS, composed_stages(s1, S2, ps), strict=True):
        assert np.array_equal(getattr(bench_run, name), want)
    # each stage is a distinct tensor: the prisms around the plates leave none
    assert not np.array_equal(bench_run.input, bench_run.phased)

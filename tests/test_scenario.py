import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol.bench import INTENSITY_RANGE, PhaseSetting
from pathpol.scenario import (
    MAX_SWEEP_POINTS,
    SWEEP_VARIABLES,
    ConfigError,
    Scenario,
    parse_assignment,
    parse_scenario,
    phase_setting_for,
)


def test_empty_text_yields_defaults():
    sc = parse_scenario("")
    assert sc.amplitudes == (1.0, 1.0)
    assert sc.phases == PhaseSetting(0.0, 0.0, 0.0, 0.0)
    assert sc.sweep is None
    assert sc.output is None


def test_comments_and_blank_lines_ignored():
    sc = parse_scenario(
        """
        # a comment-only line
        phases.theta1 = 0.5   # trailing comment

        phases.phi1 = 3
        """
    )
    assert sc.phases.theta1 == 0.5
    assert sc.phases.phi1 == 3.0


def test_later_assignment_wins():
    sc = parse_scenario("phases.theta2 = 1\nphases.theta2 = 9\n")
    assert sc.phases.theta2 == 9.0


def test_override_beats_file():
    sc = parse_scenario("phases.phi2 = 1.0\n", overrides=("phases.phi2=-2.5",))
    assert sc.phases.phi2 == -2.5


def test_sources_take_sqrt_of_intensity():
    sc = parse_scenario("amplitudes.i1 = 4.0\namplitudes.i2 = 9.0\n")
    s1, s2 = sc.sources()
    assert s1.amplitude == 2.0
    assert s2.amplitude == 3.0
    assert s1.omega != s2.omega
    assert s1.intensity == 4.0


def test_unknown_key_is_named_in_error():
    with pytest.raises(ConfigError, match="unknown key 'bogus.key'"):
        parse_scenario("bogus.key = 1\n")


def test_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_scenario("output = a.csv\nnot an assignment\n")


def test_parse_assignment_shapes():
    assert parse_assignment("sweep.points=4") == ("sweep.points", "4")
    assert parse_assignment("  output =  runs.csv ") == ("output", "runs.csv")
    with pytest.raises(ConfigError, match="empty value"):
        parse_assignment("sweep.points =")
    with pytest.raises(ConfigError, match="key = value"):
        parse_assignment("just words")


def test_bad_number_messages():
    with pytest.raises(ConfigError, match="invalid number for phases.theta1"):
        parse_scenario("phases.theta1 = fast\n")
    with pytest.raises(ConfigError, match="must be finite"):
        parse_scenario("phases.phi1 = inf\n")
    with pytest.raises(ConfigError, match="invalid integer for sweep.points"):
        parse_scenario("sweep.variable = delta\nsweep.points = 1.5\n")


def test_intensity_bounds():
    with pytest.raises(ConfigError, match="amplitudes.i1 must be > 0"):
        parse_scenario("amplitudes.i1 = 0\n")
    with pytest.raises(ConfigError, match="amplitudes.i2 must be > 0"):
        parse_scenario("amplitudes.i2 = -3\n")
    with pytest.raises(ConfigError, match=r"amplitudes.i1 must be in \[1e-150, 1e\+150\]"):
        parse_scenario("amplitudes.i1 = 1e-151\n")
    with pytest.raises(ConfigError, match=r"amplitudes.i2 must be in \[1e-150, 1e\+150\]"):
        parse_scenario("amplitudes.i2 = 2e150\n")
    # the bounds themselves are in range, and so are the sources they give
    for bound in INTENSITY_RANGE:
        sc = parse_scenario(f"amplitudes.i1 = {bound!r}\namplitudes.i2 = {bound!r}\n")
        assert sc.amplitudes == (bound, bound)
        sc.sources()


def test_seed_key_is_refused():
    # the randomized checks take their seed from ``verify --seed`` only
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        parse_scenario("seed = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        parse_scenario("", overrides=("seed=3",))


def test_sweep_block_defaults():
    sc = parse_scenario("sweep.variable = delta\n")
    assert sc.sweep is not None
    assert sc.sweep.variable == "delta"
    assert sc.sweep.start == 0.0
    assert abs(sc.sweep.stop - 2.0 * np.pi) < 1e-15
    assert sc.sweep.points == 64


def test_sweep_requires_variable():
    with pytest.raises(ConfigError, match="sweep.variable is required"):
        parse_scenario("sweep.points = 16\n")


def test_sweep_variable_whitelist():
    with pytest.raises(ConfigError, match="sweep.variable must be one of"):
        parse_scenario("sweep.variable = gamma\n")


def test_sweep_points_bound():
    with pytest.raises(ConfigError, match="sweep.points must be >= 2, got 1"):
        parse_scenario("sweep.variable = delta\nsweep.points = 1\n")
    over = MAX_SWEEP_POINTS + 1
    with pytest.raises(ConfigError, match=f"sweep.points must be <= MAX_SWEEP_POINTS={MAX_SWEEP_POINTS}, got {over}"):
        parse_scenario(f"sweep.variable = delta\nsweep.points = {over}\n")


def test_dash_output_means_stdout():
    assert parse_scenario("output = -\n").output is None
    assert parse_scenario("output = rows.csv\n").output == "rows.csv"


def test_phase_setting_for_direct_variables():
    base = PhaseSetting(0.1, 0.2, 0.3, 0.4)
    ps = phase_setting_for("phi1", 2.0, base)
    assert ps == PhaseSetting(0.1, 0.2, 2.0, 0.4)
    ps = phase_setting_for("theta2", -1.0, base)
    assert ps == PhaseSetting(0.1, -1.0, 0.3, 0.4)


def test_phase_setting_for_delta_pins_total():
    base = PhaseSetting(0.1, 0.2, 0.3, 0.4)
    rng = np.random.default_rng(2)
    for d in rng.uniform(-7.0, 7.0, 25):
        ps = phase_setting_for("delta", float(d), base)
        assert abs(ps.delta - d) < 1e-12
        assert (ps.theta2, ps.phi1, ps.phi2) == (0.2, 0.3, 0.4)


def test_phase_setting_for_overflow_is_config_error():
    # finite sweep values and base phases whose sum leaves the float range
    big = PhaseSetting(0.0, 1e308, 0.0, 0.0)
    with pytest.raises(ConfigError, match="sweep of delta .*: theta1 must be finite"):
        phase_setting_for("delta", np.array([0.0, 1e308]), big)
    with pytest.raises(ConfigError, match="sweep of phi1 .*: delta .* must be finite"):
        phase_setting_for("phi1", np.array([0.0, 1e308]), PhaseSetting(1e308, 0.0, 0.0, 0.0))


def test_overflowing_phase_combinations_are_refused_by_name():
    with pytest.raises(ConfigError, match=r"phases: delta = theta1 \+ phi1 .* must be finite"):
        parse_scenario("", ("phases.theta1=1e308", "phases.phi1=1e308"))
    with pytest.raises(ConfigError, match=r"sweep\.stop - sweep\.start must be finite"):
        parse_scenario(
            "", ("sweep.variable=phi1", "sweep.start=-1e308", "sweep.stop=1e308")
        )


def test_phase_setting_for_unknown_variable():
    with pytest.raises(ConfigError, match="unknown sweep variable"):
        phase_setting_for("gamma", 0.0, PhaseSetting(0, 0, 0, 0))


def test_scenario_is_frozen():
    sc = Scenario()
    with pytest.raises(AttributeError):
        sc.output = "runs.csv"


finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
VALUES = {
    "amplitudes.i1": st.floats(*INTENSITY_RANGE).map(repr),
    "amplitudes.i2": st.floats(*INTENSITY_RANGE).map(repr),
    "phases.theta1": finite,
    "phases.theta2": finite,
    "phases.phi1": finite,
    "phases.phi2": finite,
    "sweep.variable": st.sampled_from(SWEEP_VARIABLES),
    "sweep.start": finite,
    "sweep.stop": finite,
    "sweep.points": st.integers(2, MAX_SWEEP_POINTS).map(str),
    "output": st.sampled_from(["-", "out.csv", "runs/sweep_1.csv"]),
}
assignments = st.lists(
    st.sampled_from(sorted(VALUES)).flatmap(lambda key: st.tuples(st.just(key), VALUES[key])),
    max_size=12,
)


@seed(20150)
@settings(max_examples=60, deadline=None, database=None)
@given(first=assignments, later=assignments)
def test_file_and_overrides_round_trip(first, later):
    # a sweep key needs sweep.variable, so every drawn table carries one first
    items = [("sweep.variable", "delta")] + first + later
    text = "".join(f"{key} = {raw}\n" for key, raw in items)
    sets = tuple(f"{key}={raw}" for key, raw in items)
    from_file = parse_scenario(text)
    assert parse_scenario("", sets) == from_file
    # overrides come after the file, and the later assignment wins either way
    head = len(items) - len(later)
    assert parse_scenario(text, sets[head:]) == from_file
    assert parse_scenario("".join(text.splitlines(True)[:head]), sets[head:]) == from_file
    last = dict(items)
    phases = (float(last.get(f"phases.{n}", "0.0")) for n in ("theta1", "theta2", "phi1", "phi2"))
    assert from_file.phases == PhaseSetting(*phases)
    assert from_file.amplitudes == tuple(float(last.get(f"amplitudes.i{k}", "1.0")) for k in (1, 2))
    assert from_file.sweep.variable == last["sweep.variable"]


BAD_VALUES = {
    key: st.sampled_from(["nan", "inf", "-inf", "1e400"])
    for key in VALUES
    if key.startswith(("amplitudes.", "phases.", "sweep.st"))
}
for key in ("amplitudes.i1", "amplitudes.i2"):
    BAD_VALUES[key] = BAD_VALUES[key] | st.one_of(
        st.floats(max_value=INTENSITY_RANGE[0], exclude_max=True, allow_nan=False),
        st.floats(min_value=INTENSITY_RANGE[1], exclude_min=True, allow_nan=False),
    ).map(repr)
BAD_VALUES["sweep.points"] = st.one_of(
    st.integers(max_value=1), st.integers(min_value=MAX_SWEEP_POINTS + 1)
).map(str)


@seed(20151)
@settings(max_examples=60, deadline=None, database=None)
@given(
    bad=st.sampled_from(sorted(BAD_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), BAD_VALUES[key])
    )
)
def test_non_finite_or_out_of_range_value_is_refused_by_name(bad):
    key, raw = bad
    table = f"sweep.variable = delta\n{key} = {raw}\n"
    for text, sets in ((table, ()), ("sweep.variable = delta\n", (f"{key}={raw}",))):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_scenario(text, sets)

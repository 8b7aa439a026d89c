"""A trimmed output digest check on every run.

``tests/digests.py --check`` hashes all 336 committed outputs in ~1.8 s,
counting interpreter start, most of it 61 verify seeds. This test recomputes
the 23 of them that cover every command and every code path at a fraction
of that: ``verify --seed`` 1..9, every sweep variable at 7 points and all
but delta at 64, and ``chsh`` at five resolutions (8, 13, 64, 100, 256). It
names every output that moved. Seven outputs are left out because
``test_cli.py``'s golden files pin them byte for byte, with the same argv or
the same default bytes: verify seeds 0 and 12345, the 64-point delta sweep,
and ``correlate`` and ``report`` at both settings. The seven demos are left
out too (``test_demos.py`` runs them), and so are verify seeds 10..59, the
300-point sweeps and the other 244 chsh resolutions, which take the same
paths as the ones kept; ``--check`` still covers them all.
"""

import digests

# pinned byte for byte by test_cli.py's golden files
_GOLDEN_PINNED = {
    "verify --seed 0",
    "verify --seed 12345",
    "sweep --set sweep.variable=delta --set sweep.points=64",
    *(name for name in digests.commands() if name.split()[0] in ("correlate", "report")),
}
TRIMMED = [
    name
    for name, argv in digests.commands().items()
    if name not in _GOLDEN_PINNED
    and (
        (argv[0] == "chsh" and int(argv[-1]) in (8, 13, 64, 100, 256))
        or (argv[0] == "verify" and int(argv[-1]) in range(10))
        or (argv[0] == "sweep" and argv[-1].endswith(("=7", "=64")))
    )
]


def test_trimmed_outputs_hash_as_committed():
    assert len(TRIMMED) == 23
    committed = digests.read_digests(digests.DIGESTS)
    assert digests.moved(digests.digests(TRIMMED), {name: committed[name] for name in TRIMMED}) == []

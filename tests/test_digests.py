"""A trimmed output digest check on every run.

``tests/digests.py --check`` hashes all 92 committed outputs in ~2.5 s, most
of it 61 verify seeds. This test recomputes the 30 of them that cover every
command and every code path at a fraction of that: ``verify --seed`` 0..9
and 12345, each sweep variable at 7 and 64 points, ``chsh`` at all five
resolutions, and ``correlate`` and ``report`` at both settings. It names
every output that moved. The seven demos are left out (``test_demos.py``
runs them) and so are verify seeds 10..59 and the 300-point sweeps, which
take the same paths as the ones kept; ``--check`` still covers them.
"""

import digests

TRIMMED = [
    name
    for name, argv in digests.commands().items()
    if argv[0] in ("chsh", "correlate", "report")
    or (argv[0] == "verify" and int(argv[-1]) in (*range(10), 12345))
    or (argv[0] == "sweep" and argv[-1].endswith(("=7", "=64")))
]


def test_trimmed_outputs_hash_as_committed():
    assert len(TRIMMED) == 30
    committed = digests.read_digests(digests.DIGESTS)
    assert digests.moved(digests.digests(TRIMMED), {name: committed[name] for name in TRIMMED}) == []
